"""Unseen-class splits under the verb/object coverage constraint.

A split moves ``n_unseen`` interaction classes out of the training label set
while guaranteeing that every verb and every object still occurs in some
remaining (seen) class. Candidates are scanned greedily by training-instance
count, rarest first or most frequent first; a candidate joins the unseen set
only if removing it keeps coverage, otherwise it is skipped. The greedy scan
is deterministic given the counts and the tie-break seed, and the resulting
split can be exported/imported as a small text file so runs stay comparable.

Applying a split to a training set copies its label alone: rows whose every
class is unseen stay, with an all-zero label, and every other column is the
input's own array. Training draws only rows with an active label
(``trainer.group_by_image``), so such rows are never trained on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .errors import DimensionMismatch, InfeasibleSplit, InvalidConfig, ParseError, read_text_lines
from .label_algebra import HoiLabelSpace
from .synthdata import Dataset

STRATEGIES = ("rare_first", "nonrare_first")


@dataclass(frozen=True)
class ZeroShotSplit:
    unseen: frozenset
    seen: frozenset
    strategy: str
    seed: int = 0


def _split(unseen, num_hois: int, strategy: str, seed: int) -> ZeroShotSplit:
    unseen = frozenset(unseen)
    return ZeroShotSplit(unseen, frozenset(range(num_hois)) - unseen, strategy, seed)


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
    return _split(unseen, num_hois, strategy, tie_break_seed)


def apply_split(train: Dataset, split: ZeroShotSplit) -> Dataset:
    """Strip unseen label bits from the training set.

    Only the label is copied, with its unseen bits zeroed: mixed-label
    instances keep their seen bits, and instances whose labels are entirely
    unseen stay as rows with an all-zero label, which training never draws.
    Every other column is shared with ``train``, so treat the result as
    read-only. The inputs are left unchanged. The new label is the packed
    label ANDed with a packed row of the seen classes.
    """
    seen = np.ones(8 * train.label.shape[1], dtype=bool)
    seen[sorted(split.unseen)] = False
    return replace(train, label=train.label & np.packbits(seen))


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


# ---- split file: strategy/seed header, an [unseen] line, then one unseen id
# per line (none for a split with no unseen classes) ----


def format_split(split: ZeroShotSplit) -> str:
    lines = [f"strategy\t{split.strategy}", f"seed\t{split.seed}", "[unseen]"]
    lines.extend(str(c) for c in sorted(split.unseen))
    return "\n".join(lines) + "\n"


def save_split(split: ZeroShotSplit, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_split(split))


def load_split(path, space: HoiLabelSpace) -> ZeroShotSplit:
    strategy = None
    seed = 0
    unseen: set[int] = set()
    in_ids = False
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "[unseen]":
            in_ids = True
            continue
        if in_ids:
            try:
                c = int(line)
            except ValueError:
                raise ParseError(f"bad class id {line!r}", line=lineno) from None
            if not 0 <= c < space.num_hois:
                raise ParseError(f"class id {c} outside label space", line=lineno)
            unseen.add(c)
        else:
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("bad header line", line=lineno)
            if parts[0] == "strategy":
                strategy = parts[1]
            elif parts[0] == "seed":
                try:
                    seed = int(parts[1])
                except ValueError:
                    raise ParseError(f"bad seed {parts[1]!r}", line=lineno) from None
    if strategy not in STRATEGIES:
        raise ParseError(f"missing or unknown strategy {strategy!r}")
    if not in_ids:  # a file cut short before its id list is no split
        raise ParseError("missing [unseen] line")
    seen = np.ones(space.num_hois, dtype=bool)
    seen[sorted(unseen)] = False
    blocker = _uncovered(space, seen)
    if blocker is not None:
        raise InfeasibleSplit(f"split leaves {blocker} in no seen class")
    return _split(unseen, space.num_hois, strategy, seed)
