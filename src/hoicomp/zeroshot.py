"""Unseen-class splits under the verb/object coverage constraint.

A split moves ``n_unseen`` interaction classes out of the training label set
while guaranteeing that every verb and every object still occurs in some
remaining (seen) class. Candidates are scanned greedily by training-instance
count, rarest first or most frequent first; a candidate joins the unseen set
only if removing it keeps coverage, otherwise it is skipped. The greedy scan
is deterministic given the counts and the tie-break seed. A split carries
its label space, and a split file holds it beside the unseen ids, so runs
stay comparable and a split is read only beside data of its own space.

Applying a split to a training set copies its label alone: rows whose every
class is unseen stay, with an all-zero label, and every other column is the
input's own array. Training draws only rows with an active label
(``trainer.group_by_image``), so such rows are never trained on. The label
bits are ``synthdata``'s: a split names classes, and
``synthdata.clear_classes`` turns them into bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .errors import DimensionMismatch, InfeasibleSplit, InvalidConfig, ParseError
from .label_algebra import HoiLabelSpace
from .synthdata import Dataset, clear_classes, read_archive, write_archive

STRATEGIES = ("rare_first", "nonrare_first")


@dataclass(frozen=True)
class ZeroShotSplit:
    """The classes of ``space`` held out of training, and how they were
    chosen; every other class is seen."""

    unseen: frozenset
    space: HoiLabelSpace
    strategy: str
    seed: int = 0

    @property
    def seen(self) -> frozenset:
        return frozenset(range(self.space.num_hois)) - self.unseen


def _uncovered(space: HoiLabelSpace, seen: np.ndarray) -> str | None:
    """The first verb, else the first object, in no class of the boolean
    mask ``seen``, as ``verb 'name'`` or ``object 'name'``; None when every
    verb and object stays in some seen class."""
    for kind, hits, names in (("verb", space.verb_hoi, space.verb_names),
                              ("object", space.object_hoi, space.object_names)):
        missing = np.flatnonzero(~hits[:, seen].any(axis=1))
        if missing.size:
            return f"{kind} {names[missing[0]]!r}"
    return None


def make_split(
    counts,
    space: HoiLabelSpace,
    n_unseen: int,
    strategy: str,
    tie_break_seed: int = 0,
) -> ZeroShotSplit:
    """Select ``n_unseen`` classes greedily while preserving coverage.

    Ordering is by ascending count (rare_first) or descending count
    (nonrare_first); ties are broken by a seeded shuffle. A class is skipped
    when moving it to unseen would leave one of its verbs or its object with
    no remaining class.

    Raises:
        InfeasibleSplit: the scan cannot reach ``n_unseen``; the message
            names a blocking verb or object.
    """
    counts = np.asarray(counts)
    num_hois = space.num_hois
    if counts.shape != (num_hois,):
        raise DimensionMismatch(f"counts has shape {counts.shape}, expected ({num_hois},)")
    if strategy not in STRATEGIES:
        raise InvalidConfig(f"strategy must be one of {STRATEGIES}")
    if not 0 <= n_unseen < num_hois:
        raise InvalidConfig("n_unseen must satisfy 0 <= n_unseen < num_hois")

    perm = rngmod.stream(tie_break_seed, "split-ties").permutation(num_hois)
    sign = 1 if strategy == "rare_first" else -1
    order = sorted(range(num_hois), key=lambda c: (sign * int(counts[c]), int(perm[c]), c))

    seen = np.ones(num_hois, dtype=bool)
    unseen: list[int] = []
    first_blocker = None
    for c in order:
        if len(unseen) == n_unseen:
            break
        seen[c] = False
        blocker = _uncovered(space, seen)
        if blocker is None:
            unseen.append(c)
            continue
        seen[c] = True
        if first_blocker is None:
            first_blocker = f"{blocker} (class {c})"

    if len(unseen) < n_unseen:
        detail = f"; first blocked candidate: {first_blocker}" if first_blocker else ""
        raise InfeasibleSplit(
            f"only {len(unseen)} of {n_unseen} unseen classes selectable under coverage{detail}"
        )
    return ZeroShotSplit(frozenset(unseen), space, strategy, tie_break_seed)


def apply_split(train: Dataset, split: ZeroShotSplit) -> Dataset:
    """Strip unseen label bits from the training set.

    Only the label is copied, with its unseen bits zeroed: mixed-label
    instances keep their seen bits, and instances whose labels are entirely
    unseen stay as rows with an all-zero label, which training never draws.
    Every other column is shared with ``train``, so treat the result as
    read-only. The inputs are left unchanged. ``synthdata.clear_classes``
    zeroes the bits.
    """
    return replace(train, label=clear_classes(train.label, split.unseen))


# ---- reporting partitions ----


def frequency_partition(counts, rare_threshold: int) -> dict[str, frozenset]:
    """Rare/non-rare class sets: rare means fewer than ``rare_threshold``
    training instances (``evaluator.Scoring``'s ``rare_threshold`` in
    every report)."""
    counts = np.asarray(counts)
    rare = frozenset(int(c) for c in np.flatnonzero(counts < rare_threshold))
    nonrare = frozenset(range(len(counts))) - rare
    return {"rare": rare, "nonrare": nonrare}


def zeroshot_partition(split: ZeroShotSplit) -> dict[str, frozenset]:
    return {"unseen": split.unseen, "seen": split.seen}


# ---- split file ----
# One uncompressed ``np.savez`` archive with the entries
#   unseen     (K,)  int64, the unseen class ids, ascending and distinct
#   strategy   ()    unicode, one of ``STRATEGIES``
#   seed       ()    int64, the tie-break seed, >= 0
# and then its label space, as ``synthdata.read_archive`` reads it.

SPLIT_ENTRIES = ("unseen", "strategy", "seed")


def save_split(split: ZeroShotSplit, path):
    """Write ``split`` to ``path`` as the archive above."""
    write_archive(path, {"unseen": np.array(sorted(split.unseen), dtype=np.int64),
                         "strategy": np.array(split.strategy),
                         "seed": np.array(split.seed, dtype=np.int64)}, split.space)


def load_split(path, space: HoiLabelSpace) -> ZeroShotSplit:
    """The split at ``path``, which must hold ``space``. Bytes that are not
    an archive of exactly the entries above raise ``ParseError``, and so do
    an unknown strategy, a negative seed, and unseen ids that are not
    ascending and distinct or lie outside the space. An entry of another
    dtype or shape raises ``DimensionMismatch``, a file of another space
    ``InconsistentLabel``, and a split that leaves a verb or an object in no
    seen class ``InfeasibleSplit``."""
    arrays, _ = read_archive(path, "split", SPLIT_ENTRIES, space=space)
    unseen, strategy, seed = (arrays[name] for name in SPLIT_ENTRIES)
    for arr, name, ok, want in (
        (unseen, "unseen", unseen.dtype == np.int64 and unseen.ndim == 1, "int64 (K,)"),
        (strategy, "strategy", strategy.dtype.kind == "U" and strategy.ndim == 0, "a unicode string"),
        (seed, "seed", seed.dtype == np.int64 and seed.ndim == 0, "int64 ()"),
    ):
        if not ok:
            raise DimensionMismatch(f"entry {name!r} is {arr.dtype} {arr.shape}, expected {want}")
    if strategy.item() not in STRATEGIES:
        raise ParseError(f"entry 'strategy': unknown strategy {strategy.item()!r}")
    if seed < 0:
        raise ParseError(f"entry 'seed': seed {int(seed)} is negative")
    if (np.diff(unseen) <= 0).any():
        raise ParseError("entry 'unseen': class ids are not ascending and distinct")
    outside = (unseen < 0) | (unseen >= space.num_hois)
    if outside.any():
        raise ParseError(f"entry 'unseen': class id {int(unseen[outside][0])} outside label space")
    seen = np.ones(space.num_hois, dtype=bool)
    seen[unseen] = False
    blocker = _uncovered(space, seen)
    if blocker is not None:
        raise InfeasibleSplit(f"split leaves {blocker} in no seen class")
    return ZeroShotSplit(frozenset(unseen.tolist()), space, strategy.item(), int(seed))
