"""Compose new interaction samples inside a minibatch.

Every ordered pair of distinct instances donates the verb feature of one and
the object feature of the other; the pair's label is recomposed through the
label space and infeasible combinations (no matching class) are dropped.
All pairs are labelled at once by broadcasting; the mode keeps pairs from the
same image (within), from different images (between) or both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidConfig
from .label_algebra import HoiLabelSpace, compose, decompose
from .network import CompBatch
from .synthdata import Dataset, unpack_labels

MODES = ("both", "within", "between", "off")


@dataclass(frozen=True)
class ComposeConfig:
    """Composition settings for one training run.

    ``unseen_ids`` lists classes excluded from training labels; when
    ``unseen_allowed`` is false those bits are zeroed out of composed labels
    (candidates left all-zero are dropped), and when true they are kept,
    which is what makes zero-shot training work.
    """

    mode: str = "both"
    interactions_per_minibatch: int = 5
    balance: bool = True
    unseen_allowed: bool = False
    unseen_ids: frozenset = frozenset()

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.interactions_per_minibatch < 1:
            raise InvalidConfig("interactions_per_minibatch must be >= 1")


def compose_batch(
    batch: Dataset,
    space: HoiLabelSpace,
    cfg: ComposeConfig,
    rng: np.random.Generator,
) -> CompBatch:
    """Enumerate, label, filter, and optionally balance composited samples.

    Candidates are all ordered (verb source i, object source j) pairs with
    i != j permitted by ``cfg.mode`` (within: same image, between: different
    images, both: all), in row-major order of (i, j). Each candidate's label
    is the recomposition of instance j's object with instance i's verbs;
    infeasible candidates are removed. With ``balance``, at most one
    composited sample per real interaction in the batch survives, chosen
    uniformly without replacement.
    """
    n = len(batch)
    if n == 0:
        raise EmptyBatch("compose_batch needs at least one instance")
    l_o, l_v = decompose(unpack_labels(batch.label, space.num_hois), space)
    # (verb src, object src, class): the objects of every row composed with
    # the verbs of every row; compose's 0/1 bytes viewed as bool, on which
    # any() below takes numpy's fast path
    hits = compose(l_o[None, :, :], l_v[:, None, :], space).view(bool)
    unseen = sorted(cfg.unseen_ids)
    if not cfg.unseen_allowed and unseen:
        hits[:, :, unseen] = False

    same_image = batch.image_id[:, None] == batch.image_id[None, :]
    allowed = {"within": same_image, "between": ~same_image, "both": True, "off": False}
    keep = hits.any(axis=2) & ~np.eye(n, dtype=bool) & allowed[cfg.mode]
    i, j = np.nonzero(keep)  # row-major: the balance draw indexes into this order

    if cfg.balance and len(i) > n:
        pick = np.sort(rng.choice(len(i), size=n, replace=False))
        i, j = i[pick], j[pick]
    return CompBatch.from_composited(batch, i, j, hits[i, j])
