"""Minibatch construction, SGD with momentum, and the training loop.

Minibatches are drawn as image pairs so between-image composition always has
material. All randomness flows through named streams derived from one seed
(batching, composition, weight init), which keeps ablations byte-for-byte
comparable: turning composition off, or setting its loss weight to zero,
leaves every other stream untouched and the two runs coincide step for step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng as rngmod
from .composer import ComposeConfig, compose_batch
from .errors import (
    DimensionMismatch,
    DivergedTraining,
    InvalidConfig,
    NonFiniteGradient,
    NonFiniteLoss,
    NonFiniteUpdate,
    ParseError,
    read_text_lines,
)
from .label_algebra import HoiLabelSpace
from .network import (
    FLAT_BLOCK,
    CompBatch,
    LossWeights,
    ModelParams,
    NetworkConfig,
    RealBatch,
    check_raster_width,
    init_params,
    inverse_log_weights,
    loss_and_grads,
)
from .synthdata import Dataset, class_counts


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for one run, checked when built."""

    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0005
    iterations: int = 3000
    interactions_per_minibatch: int = 8
    compose: ComposeConfig = field(default_factory=ComposeConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    eval_every: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise InvalidConfig("lr must be finite and > 0")
        if not 0 <= self.momentum < 1:
            raise InvalidConfig("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise InvalidConfig("weight_decay must be finite and >= 0")
        if self.iterations < 0:
            raise InvalidConfig("iterations must be >= 0")
        if self.interactions_per_minibatch < 1:
            raise InvalidConfig("interactions_per_minibatch must be >= 1")
        if self.eval_every < 0:
            raise InvalidConfig("eval_every must be >= 0")
        rngmod.check_seed(self.seed)


@dataclass(frozen=True)
class ImageGroups:
    """Row indices of a dataset's drawable rows grouped by image, in image-id
    order; rows keep their order within an image. ``groups[i]`` is image i's
    rows, a view of one index array, so grouping makes two arrays however
    many images there are."""

    order: np.ndarray   # (drawable rows,) row indices, image after image
    bounds: np.ndarray  # (images + 1,) image i's rows are order[bounds[i]:bounds[i + 1]]

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        if not 0 <= i < len(self):
            raise IndexError(f"image group {i} of {len(self)}")
        return self.order[self.bounds[i] : self.bounds[i + 1]]


def group_by_image(train: Dataset) -> ImageGroups:
    """Row indices per image, ordered by image id; rows keep their order.

    Only rows with an active label are grouped, and an image with none of
    them has no group. This is the one place that decides which rows
    training draws: a row whose label ``zeroshot.apply_split`` emptied is
    never drawn. Leaving rows out keeps the rest in order, so a dataset
    gives the same groups, through its kept rows, as a copy holding only
    those rows.
    """
    order = np.argsort(train.image_id, kind="stable")
    order = order[train.label.any(axis=1)[order]]
    ids = train.image_id[order]
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = np.concatenate([[0], starts, [len(order)]]) if len(order) else np.zeros(1, np.int64)
    return ImageGroups(order, bounds)


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ..., then the rest of the longer one."""
    m = min(len(a), len(b))
    return np.concatenate([np.column_stack([a[:m], b[:m]]).ravel(), a[m:], b[m:]])


def make_minibatch(
    train: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    groups: ImageGroups | None = None,
) -> np.ndarray:
    """Row indices of ``interactions_per_minibatch`` instances drawn as image pairs.

    Each draw picks two distinct images (when the dataset has at least two)
    and interleaves their instances, so any batch of size >= 2 spans two
    images and between-image composition has partners. Rows with no active
    label are never drawn (see ``group_by_image``); with none left,
    ``InvalidConfig`` is raised.
    """
    if groups is None:
        groups = group_by_image(train)
    if not len(groups):
        raise InvalidConfig("training set is empty")
    k = cfg.interactions_per_minibatch
    chosen = np.empty(0, dtype=np.int64)
    while len(chosen) < k:
        if len(groups) >= 2:
            ia, ib = rng.choice(len(groups), size=2, replace=False)
            merged = _interleave(
                rng.permutation(groups[int(ia)]), rng.permutation(groups[int(ib)])
            )
        else:
            merged = rng.permutation(groups[0])
        chosen = np.concatenate([chosen, merged])
    return chosen[:k]


def sgd_step(params: ModelParams, grads: ModelParams, state: ModelParams, cfg: TrainConfig,
             out: np.ndarray | None = None):
    """One SGD step with momentum and decoupled-from-nothing weight decay:
    v <- momentum * v + grad + weight_decay * param; param <- param - lr * v.

    Runs over ``FLAT_BLOCK``-element blocks of the flat buffers, writing the
    new parameters into ``out`` (a new buffer when None) and checking each
    block as it is written. ``out`` may be ``grads.flat``: each block of the
    gradients is read before the same block of ``out`` is written, so the
    gradients are then spent, step or failure. ``out`` must share no memory
    with ``params.flat`` or ``state.flat``; ``DimensionMismatch`` is raised
    before anything is written when it does. ``params.flat`` is rebound to
    ``out`` only once every block is finite, so on ``NonFiniteUpdate`` the
    parameters are unchanged; the momentum ``state``, updated in place, has
    then advanced up to and including the failing block. The buffer
    ``params.flat`` held before the call is not used by it any more, which
    lets a training loop take it as the next step's gradient buffer.
    Returns (params, state)."""
    p, g, v = params.flat, grads.flat, state.flat
    if out is None:
        new = np.empty_like(p)
    elif np.may_share_memory(out, p) or np.may_share_memory(out, v):
        raise DimensionMismatch("out shares memory with the parameters or the momentum")
    else:
        new = out
    for start in range(0, p.size, FLAT_BLOCK):
        block = slice(start, start + FLAT_BLOCK)
        vb, nb = v[block], new[block]
        vb *= cfg.momentum
        vb += g[block]
        if cfg.weight_decay:
            np.multiply(cfg.weight_decay, p[block], out=nb)
            vb += nb
        np.multiply(cfg.lr, vb, out=nb)
        np.subtract(p[block], nb, out=nb)
        finite = np.isfinite(nb)
        if not finite.all():
            bad = params.block_at(start + int(np.argmin(finite)))
            raise NonFiniteUpdate(f"parameter block {bad} became non-finite")
    params.flat = new
    return params, state


def train(
    train_set: Dataset,
    space: HoiLabelSpace,
    cfg: TrainConfig,
    net_cfg: NetworkConfig | None = None,
    eval_fn=None,
):
    """Run the full loop and return (params, metrics log).

    The log holds one dict per iteration with the three loss components;
    when ``eval_every`` > 0 and an ``eval_fn(params) -> dict`` is supplied,
    its entries (e.g. mAP_full, mAP_rare) are merged into the record every
    ``eval_every`` iterations. Every loss term is reweighted per class by
    ``inverse_log_weights`` of the training set's class counts, worked out
    once here. Composition is skipped entirely when its mode is off or its
    loss weight is zero; both disable it identically.
    ``eval_fn`` sees ``params`` between steps; the next step takes its
    ``flat`` buffer as its gradient buffer, so an ``eval_fn`` that keeps
    parameters must copy them. Rows with no active label, such as those
    ``zeroshot.apply_split`` leaves, are never drawn; a training set with no
    other row raises ``InvalidConfig``. A ``net_cfg`` whose spatial input
    is not the raster's width raises ``DimensionMismatch`` before anything
    is set up.
    """
    if net_cfg is None:
        net_cfg = NetworkConfig(
            num_hois=space.num_hois, feature_dim=train_set.human_feat.shape[1]
        )
    check_raster_width(net_cfg)
    groups = group_by_image(train_set)
    if not len(groups):
        raise InvalidConfig("training set is empty")
    class_weights = inverse_log_weights(class_counts(train_set, space))
    lw = cfg.loss_weights

    params = init_params(net_cfg, rngmod.stream(cfg.seed, "init"))
    state = ModelParams(net_cfg, np.zeros_like(params.flat))
    # the one gradient buffer: each step writes the new parameters over it,
    # and the old parameter buffer becomes the next step's gradients.
    # Zero-filled, not empty, for its place in the heap: on hico-600, on a
    # 2-core Xeon, np.empty read the same benchmark peak RSS (88.5 MB) but
    # ran setup, training and eval slower in each of 4 paired runs
    grads = ModelParams(net_cfg, np.zeros_like(params.flat))
    batch_rng = rngmod.stream(cfg.seed, "batch")
    comp_rng = rngmod.stream(cfg.seed, "compose")

    use_comp = cfg.compose.mode != "off" and lw.lambda2 != 0.0
    log: list[dict] = []
    for it in range(cfg.iterations):
        batch = train_set[make_minibatch(train_set, cfg, batch_rng, groups=groups)]
        comp: CompBatch | None = None
        if use_comp:
            comp = compose_batch(batch, space, cfg.compose, comp_rng)
        real = RealBatch.from_instances(batch, space.num_hois)
        try:
            # a step that overflows ends in DivergedTraining below, so
            # numpy's float warnings on the way there add nothing
            with np.errstate(all="ignore"):
                _, comps, grads = loss_and_grads(real, comp, params, lw, class_weights, out=grads)
                previous = params.flat
                sgd_step(params, grads, state, cfg, out=grads.flat)
                grads.flat = previous
        except (NonFiniteLoss, NonFiniteGradient, NonFiniteUpdate) as exc:
            raise DivergedTraining(str(exc), iteration=it) from exc
        entry = {"iter": it, "L_sp": comps["L_sp"], "L_vo": comps["L_vo"], "L_comp": comps["L_comp"]}
        if cfg.eval_every > 0 and eval_fn is not None and (it + 1) % cfg.eval_every == 0:
            entry.update(eval_fn(params))
        log.append(entry)
    return params, log


# ---- metrics log file: one record per line, key=value pairs ----


def format_metric_value(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_metrics_log(log: list[dict]) -> str:
    lines = []
    for entry in log:
        lines.append(" ".join(f"{k}={format_metric_value(v)}" for k, v in entry.items()))
    return "\n".join(lines) + ("\n" if log else "")


def write_metrics_log(log: list[dict], path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics_log(log))


def read_metrics_log(path) -> list[dict]:
    """The records ``write_metrics_log`` wrote; a token that is not
    ``key=value`` with a number for its value raises ``ParseError`` naming
    its line."""
    entries = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
        entry = {}
        for token in line.split():
            key, _, val = token.partition("=")  # no "=" leaves val empty, which fails below
            try:
                entry[key] = int(val) if key == "iter" else float(val)
            except ValueError:
                raise ParseError(f"bad metrics token {token!r}", line=lineno) from None
        if entry:
            entries.append(entry)
    return entries
