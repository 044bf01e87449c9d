"""Multi-branch interaction classifier with hand-rolled gradients.

Three branches share parameters in two places. A single feature stream (one
rectified hidden layer) is applied to BOTH the human feature and the verb
feature; its weight block exists once, so gradients accumulate from both
paths. The verb-object head classifies the concatenated verb/object stream
outputs, and the composition branch reuses that exact head on composited
samples, so composited and real features with identical values produce
identical logits. All blocks live in one flat float64 buffer; gradients and
momentum are buffers of the same layout, and the checkpoint stores it as is.

The spatial-human head reads the rasterized two-channel box map of
``spatial.spatial_vector`` in training. Scoring gets the same logits without
the raster: each channel is one rectangle of cells, so its product with the
channel's rows of ``sp_w1`` is four lookups in a 2-D prefix sum of those rows
(``forward_spatial_human_boxes``). The two differ only by rounding.

A training step reuses its parameter-sized buffers instead of allocating
them: ``loss_and_grads`` writes into a gradient buffer passed as ``out``,
zeroing only the blocks that several loss terms add to, and the spatial
blocks, which have one contribution each, are written once without a
zero-fill. ``trainer.sgd_step`` writes the new parameters into a second
buffer and rebinds ``params.flat`` to it, so the buffer a caller saw before
a step is recycled by the next one: copy ``params.flat`` to keep it.

Targets are multi-label, so every loss term is per-class sigmoid binary
cross entropy, class-reweighted, summed over classes and averaged over
instances. The total is ``L_sp + lambda1 * L_vo + lambda2 * L_comp``.
"""

from __future__ import annotations

import json
import operator
from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFiniteGradient,
    NonFiniteInput,
    NonFiniteLoss,
    OutOfRange,
    ParseError,
)
from .spatial import GRID_SIZE, cell_spans, spatial_vector
from .synthdata import Dataset

BRANCH_MODES = ("both", "vo_only", "sp_only")

# elements per block of a pass over a whole flat buffer (the gradient check
# here, trainer.sgd_step): 256 KiB of float64, so the few arrays a block
# touches stay in a 2 MiB L2 cache, and a check allocates no more than that
FLAT_BLOCK = 32768

BLOCK_NAMES = (
    "shared_w", "shared_b",
    "obj_w", "obj_b",
    "sp_w1", "sp_b1", "sp_w2", "sp_b2",
    "vo_w1", "vo_b1", "vo_w2", "vo_b2", "vo_w3", "vo_b3",
)


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths. The 1024-wide heads of a full-scale run stay available
    through ``vo_hidden``; defaults are sized for fast desk runs."""

    num_hois: int
    feature_dim: int = 32
    hidden: int = 64
    vo_hidden: int = 128
    sp_hidden: int = 64
    spatial_dim: int = 2 * GRID_SIZE * GRID_SIZE


@dataclass
class ModelParams:
    """All learnable blocks, held in one float64 buffer ``flat`` in
    ``BLOCK_NAMES`` order. Each block name (``params.sp_w1``, ...) and
    ``blocks()`` give reshaped views of ``flat``, so writing to a block
    writes to the buffer. Gradients and momentum use the same type and
    layout. ``shared_w``/``shared_b`` is one block used by both the human
    path and the verb path."""

    cfg: NetworkConfig
    flat: np.ndarray

    def __post_init__(self):
        size = _flat_size(self.cfg)
        if self.flat.shape != (size,):
            raise DimensionMismatch(f"flat buffer has shape {self.flat.shape}, expected ({size},)")

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def block_at(self, index: int) -> str:
        """Name of the block that holds element ``index`` of ``flat``."""
        return next(name for name, (_, stop, _) in _layout(self.cfg).items() if index < stop)


def _block_view(name: str) -> property:
    def view(self: ModelParams) -> np.ndarray:
        start, stop, shape = _layout(self.cfg)[name]
        return self.flat[start:stop].reshape(shape)

    def assign(self: ModelParams, value):
        view(self)[...] = value

    return property(view, assign, doc=f"The ``{name}`` block, a view of ``flat``.")


for _name in BLOCK_NAMES:
    setattr(ModelParams, _name, _block_view(_name))


def block_shapes(cfg: NetworkConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter block, in ``BLOCK_NAMES`` order."""
    d, h, q, p, s, c = (
        cfg.feature_dim, cfg.hidden, cfg.vo_hidden, cfg.sp_hidden,
        cfg.spatial_dim, cfg.num_hois,
    )
    return {
        "shared_w": (d, h), "shared_b": (h,),
        "obj_w": (d, h), "obj_b": (h,),
        "sp_w1": (h + s, p), "sp_b1": (p,), "sp_w2": (p, c), "sp_b2": (c,),
        "vo_w1": (2 * h, q), "vo_b1": (q,), "vo_w2": (q, q), "vo_b2": (q,),
        "vo_w3": (q, c), "vo_b3": (c,),
    }


@lru_cache(maxsize=16)
def _layout(cfg: NetworkConfig) -> dict[str, tuple[int, int, tuple[int, ...]]]:
    """(start, stop, shape) of every block within the flat buffer, in
    ``BLOCK_NAMES`` order. Shared between callers: do not mutate."""
    layout, start = {}, 0
    for name, shape in block_shapes(cfg).items():
        stop = start + int(np.prod(shape))
        layout[name] = (start, stop, shape)
        start = stop
    return layout


def _flat_size(cfg: NetworkConfig) -> int:
    return _layout(cfg)[BLOCK_NAMES[-1]][1]


def init_params(cfg: NetworkConfig, rng: np.random.Generator) -> ModelParams:
    """Uniform init scaled by fan-in, weights and biases alike; blocks are
    drawn in ``BLOCK_NAMES`` order."""
    shapes = block_shapes(cfg)
    params = ModelParams(cfg, np.empty(_flat_size(cfg)))
    for name, block in params.blocks().items():
        fan_in = shapes[name.replace("_b", "_w")][0]  # a bias takes its weight's fan-in
        bound = 1.0 / np.sqrt(fan_in)
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return params


@dataclass(frozen=True)
class LossWeights:
    """Loss mixing factors plus per-class reweighting vector (mean 1)."""

    lambda1: float = 2.0
    lambda2: float = 0.5
    class_weights: np.ndarray | None = None

    def validate(self, num_hois=None):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise OutOfRange("lambda weights must be non-negative")
        if self.class_weights is not None:
            w = np.asarray(self.class_weights)
            if num_hois is not None and w.shape != (num_hois,):
                raise DimensionMismatch(f"class_weights shape {w.shape}, expected ({num_hois},)")
            if not np.all(w > 0):
                raise OutOfRange("class_weights must be strictly positive")

    def resolved_weights(self, num_hois: int) -> np.ndarray:
        if self.class_weights is None:
            return np.ones(num_hois)
        return np.asarray(self.class_weights, dtype=np.float64)


def inverse_log_weights(counts, eps: float = 1.0) -> np.ndarray:
    """Inverse-log-frequency class weights, normalized to mean 1.

    Zero counts are clipped to 1 so the weight stays finite (matters for
    unseen classes after a zero-shot split).
    """
    counts = np.maximum(np.asarray(counts, dtype=np.float64), 1.0)
    w = 1.0 / np.log(eps + counts)
    return w / w.mean()


# ---- batch containers ----


@dataclass(frozen=True)
class RealBatch:
    """Network inputs of a minibatch of real instances: the feature columns
    of its ``Dataset`` rows, their rasterized box pairs and float labels."""

    human_feat: np.ndarray   # (n, D)
    verb_feat: np.ndarray    # (n, D)
    object_feat: np.ndarray  # (n, D)
    spatial: np.ndarray      # (n, S)
    label: np.ndarray        # (n, C) float

    def __len__(self) -> int:
        return self.human_feat.shape[0]

    @classmethod
    def from_instances(cls, batch: Dataset) -> "RealBatch":
        return cls(
            human_feat=batch.human_feat,
            verb_feat=batch.verb_feat,
            object_feat=batch.object_feat,
            spatial=spatial_vector(batch.human_box, batch.object_box),
            label=batch.label.astype(np.float64),
        )


@dataclass(frozen=True)
class CompBatch:
    """Composited samples as arrays: row k stitches the verb feature of real
    instance ``verb_src[k]`` to the object feature of ``object_src[k]``."""

    verb_feat: np.ndarray    # (m, D)
    object_feat: np.ndarray  # (m, D)
    label: np.ndarray        # (m, C) float
    verb_src: np.ndarray     # (m,) int, index into the real minibatch
    object_src: np.ndarray   # (m,) int, index into the real minibatch

    def __len__(self) -> int:
        return self.verb_feat.shape[0]

    def __getitem__(self, rows) -> "CompBatch":
        """The selected rows (an index, slice or index array) of every field."""
        return CompBatch(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    @classmethod
    def from_composited(cls, batch: Dataset, verb_src, object_src, label) -> "CompBatch":
        """Gather the composited pairs (``verb_src[k]``, ``object_src[k]``) of
        the real minibatch ``batch``, labelled ``label[k]``."""
        return cls(
            verb_feat=batch.verb_feat[verb_src],
            object_feat=batch.object_feat[object_src],
            label=np.asarray(label, dtype=np.float64),
            verb_src=verb_src,
            object_src=object_src,
        )


# ---- forward passes ----


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _as_2d(x, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected (n, {dim})")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} contains non-finite values")
    return x


def _vo_forward(verb_x: np.ndarray, obj_x: np.ndarray, p: ModelParams):
    sv_pre = verb_x @ p.shared_w + p.shared_b
    sv = np.maximum(sv_pre, 0.0)
    so_pre = obj_x @ p.obj_w + p.obj_b
    so = np.maximum(so_pre, 0.0)
    z = np.concatenate([sv, so], axis=1)
    h1_pre = z @ p.vo_w1 + p.vo_b1
    h1 = np.maximum(h1_pre, 0.0)
    h2_pre = h1 @ p.vo_w2 + p.vo_b2
    h2 = np.maximum(h2_pre, 0.0)
    logits = h2 @ p.vo_w3 + p.vo_b3
    cache = (verb_x, obj_x, sv_pre, so_pre, z, h1_pre, h1, h2_pre, h2)
    return logits, cache


def spatial_input_scale(params: ModelParams) -> float:
    """Scale applied to the flattened spatial map before the spatial head.

    The binary map has far more active inputs than the human stream; scaling
    it by sqrt(hidden / spatial_dim) balances the two sources' contribution
    to the head's pre-activations.
    """
    return float(np.sqrt(params.cfg.hidden / params.cfg.spatial_dim))


def _sp_forward(human_x: np.ndarray, smap_x: np.ndarray, p: ModelParams):
    sh_pre = human_x @ p.shared_w + p.shared_b
    sh = np.maximum(sh_pre, 0.0)
    z = np.concatenate([sh, spatial_input_scale(p) * smap_x], axis=1)
    h_pre = z @ p.sp_w1 + p.sp_b1
    h = np.maximum(h_pre, 0.0)
    logits = h @ p.sp_w2 + p.sp_b2
    cache = (human_x, sh_pre, z, h_pre, h)
    return logits, cache


def _check_rows(*arrays):
    rows = {len(a) for a in arrays}
    if len(rows) > 1:
        raise DimensionMismatch(f"inputs have different row counts {sorted(rows)}")


def forward_verb_object(verb_feat, object_feat, params: ModelParams) -> np.ndarray:
    """(n, C) logits of the verb-object head for (n, D) verb and object features."""
    d = params.shared_w.shape[0]
    verb_x = _as_2d(verb_feat, d, "verb feature")
    obj_x = _as_2d(object_feat, d, "object feature")
    _check_rows(verb_x, obj_x)
    return _vo_forward(verb_x, obj_x, params)[0]


def forward_spatial_human(human_feat, spatial, params: ModelParams) -> np.ndarray:
    """(n, C) logits of the spatial-human head for (n, D) human features and
    their (n, S) ``spatial_vector`` rows."""
    human_x = _as_2d(human_feat, params.shared_w.shape[0], "human feature")
    spatial_x = _as_2d(spatial, params.cfg.spatial_dim, "spatial map")
    _check_rows(human_x, spatial_x)
    return _sp_forward(human_x, spatial_x, params)[0]


def forward_spatial_human_boxes(human_feat, human_box, object_box,
                                params: ModelParams) -> np.ndarray:
    """(n, C) logits of the spatial-human head for (n, D) human features and
    their (n, 4) human and object boxes: ``forward_spatial_human`` of the
    boxes' ``spatial_vector`` rows, up to rounding, without drawing them.

    A channel's raster is 1 on one rectangle of cells (``cell_spans``), so
    its product with the channel's rows of ``sp_w1`` is the sum of those rows
    over the rectangle: four lookups in their 2-D prefix sum, built once per
    call. Raises ``DegenerateBox`` where ``spatial_vector`` would."""
    human_x = _as_2d(human_feat, params.shared_w.shape[0], "human feature")
    human_box = _as_2d(human_box, 4, "human box")
    object_box = _as_2d(object_box, 4, "object box")
    _check_rows(human_x, human_box, object_box)
    cfg = params.cfg
    if cfg.spatial_dim != 2 * GRID_SIZE * GRID_SIZE:
        raise DimensionMismatch(
            f"spatial input is {cfg.spatial_dim} wide, expected {2 * GRID_SIZE * GRID_SIZE}"
        )
    start, stop = cell_spans(human_box, object_box)  # (n, channel, axis x/y)
    w_map = params.sp_w1[cfg.hidden :].reshape(2, GRID_SIZE, GRID_SIZE, cfg.sp_hidden)
    # table[c, y, x] sums channel c's rows over cell rows < y and columns < x
    table = np.zeros((2, GRID_SIZE + 1, GRID_SIZE + 1, cfg.sp_hidden))
    np.cumsum(np.cumsum(w_map, axis=1), axis=2, out=table[:, 1:, 1:])
    ch = np.arange(2)
    x0, y0, x1, y1 = start[..., 0], start[..., 1], stop[..., 0], stop[..., 1]
    rect = table[ch, y1, x1] - table[ch, y0, x1] - table[ch, y1, x0] + table[ch, y0, x0]
    sh = np.maximum(human_x @ params.shared_w + params.shared_b, 0.0)
    h_pre = sh @ params.sp_w1[: cfg.hidden] + spatial_input_scale(params) * rect.sum(axis=1)
    return np.maximum(h_pre + params.sp_b1, 0.0) @ params.sp_w2 + params.sp_b2


# ---- loss and gradients ----


def _weighted_bce(logits: np.ndarray, targets: np.ndarray, w: np.ndarray) -> float:
    # stable elementwise BCE with logits
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float((per * w).sum(axis=1).mean())


def _bce_grad(logits, targets, w, coef: float) -> np.ndarray:
    return coef * w * (sigmoid(logits) - targets) / logits.shape[0]


def _vo_backward(g_out: np.ndarray, cache, p: ModelParams, grads: dict):
    verb_x, obj_x, sv_pre, so_pre, z, h1_pre, h1, h2_pre, h2 = cache
    h = p.cfg.hidden
    grads["vo_w3"] += h2.T @ g_out
    grads["vo_b3"] += g_out.sum(axis=0)
    g2 = (g_out @ p.vo_w3.T) * (h2_pre > 0)
    grads["vo_w2"] += h1.T @ g2
    grads["vo_b2"] += g2.sum(axis=0)
    g1 = (g2 @ p.vo_w2.T) * (h1_pre > 0)
    grads["vo_w1"] += z.T @ g1
    grads["vo_b1"] += g1.sum(axis=0)
    gz = g1 @ p.vo_w1.T
    g_sv = gz[:, :h] * (sv_pre > 0)
    g_so = gz[:, h:] * (so_pre > 0)
    grads["shared_w"] += verb_x.T @ g_sv
    grads["shared_b"] += g_sv.sum(axis=0)
    grads["obj_w"] += obj_x.T @ g_so
    grads["obj_b"] += g_so.sum(axis=0)


_SP_BLOCKS = ("sp_w1", "sp_b1", "sp_w2", "sp_b2")


def _sp_backward(g_out: np.ndarray, cache, p: ModelParams, grads: dict):
    """Write the ``sp_*`` blocks of ``grads``, which no other term touches,
    and add to the shared blocks."""
    human_x, sh_pre, z, h_pre, h_act = cache
    h = p.cfg.hidden
    np.matmul(h_act.T, g_out, out=grads["sp_w2"])
    np.sum(g_out, axis=0, out=grads["sp_b2"])
    g1 = (g_out @ p.sp_w2.T) * (h_pre > 0)
    np.matmul(z.T, g1, out=grads["sp_w1"])
    np.sum(g1, axis=0, out=grads["sp_b1"])
    gz = g1 @ p.sp_w1.T
    g_sh = gz[:, :h] * (sh_pre > 0)
    grads["shared_w"] += human_x.T @ g_sh
    grads["shared_b"] += g_sh.sum(axis=0)


def loss_and_grads(real: RealBatch, comp: CompBatch | None, params: ModelParams,
                   lw: LossWeights, out: ModelParams | None = None):
    """Joint forward/backward over one minibatch; ``comp`` may be None.

    The gradients go into ``out`` when it is given, a ``ModelParams`` of
    ``params``'s config that shares no memory with it; every element of
    ``out`` is overwritten, so its previous contents do not matter. Without
    ``out`` a new buffer is allocated.

    Returns:
        (total_loss, components, grads) where components maps
        L_sp / L_vo / L_comp to floats and grads is ``out`` or the new
        ``ModelParams`` in the layout of ``params``.
    """
    if len(real) == 0:
        raise NonFiniteLoss("real batch is empty")
    c = params.cfg.num_hois
    lw.validate(num_hois=c)
    w = lw.resolved_weights(c)

    vo_logits, vo_cache = _vo_forward(real.verb_feat, real.object_feat, params)
    sp_logits, sp_cache = _sp_forward(real.human_feat, real.spatial, params)
    loss_sp = _weighted_bce(sp_logits, real.label, w)
    loss_vo = _weighted_bce(vo_logits, real.label, w)
    # per loss term: (backward function, logits, cache, targets, coefficient)
    terms = [
        (_sp_backward, sp_logits, sp_cache, real.label, 1.0),
        (_vo_backward, vo_logits, vo_cache, real.label, lw.lambda1),
    ]

    if comp is not None and len(comp):
        comp_logits, comp_cache = _vo_forward(comp.verb_feat, comp.object_feat, params)
        loss_comp = _weighted_bce(comp_logits, comp.label, w)
        terms.append((_vo_backward, comp_logits, comp_cache, comp.label, lw.lambda2))
    else:
        loss_comp = 0.0

    total = loss_sp + lw.lambda1 * loss_vo + lw.lambda2 * loss_comp
    if not np.isfinite(total):
        raise NonFiniteLoss(f"loss is {total}")
    components = {"L_sp": loss_sp, "L_vo": loss_vo, "L_comp": loss_comp}

    if out is None:
        out = ModelParams(params.cfg, np.empty_like(params.flat))
    elif out.cfg != params.cfg:
        raise DimensionMismatch(f"gradient buffer is for {out.cfg}, expected {params.cfg}")
    grads = out
    blocks = grads.blocks()
    for name, block in blocks.items():
        if name not in _SP_BLOCKS:  # accumulated over terms; _sp_backward writes the rest
            block.fill(0.0)
    for backward_fn, logits, cache, targets, coef in terms:
        backward_fn(_bce_grad(logits, targets, w, coef), cache, params, blocks)
    g = grads.flat
    for start in range(0, g.size, FLAT_BLOCK):
        finite = np.isfinite(g[start : start + FLAT_BLOCK])
        if not finite.all():
            bad = grads.block_at(start + int(np.argmin(finite)))
            raise NonFiniteGradient(f"gradient block {bad} is non-finite")

    return total, components, grads


# ---- inference-time scoring ----


def fuse_scores(s_h, s_o, s_sp, s_vo, branch_mode: str = "both") -> np.ndarray:
    """Final per-class score of n pairs: the product of their ``(n,)``
    detector confidences ``s_h``, ``s_o`` and their ``(n, C)`` spatial-human
    and verb-object branch probabilities ``s_sp``, ``s_vo``.

    Ablation modes replace one branch's factor with 1: ``vo_only`` ignores
    the spatial-human branch, ``sp_only`` ignores the verb-object branch.
    """
    if branch_mode not in BRANCH_MODES:
        raise OutOfRange(f"branch_mode must be one of {BRANCH_MODES}")
    s_h, s_o, s_sp, s_vo = (np.asarray(a, dtype=np.float64) for a in (s_h, s_o, s_sp, s_vo))
    if s_sp.ndim != 2 or not s_h.shape == s_o.shape == s_sp.shape[:1] or s_vo.shape != s_sp.shape:
        raise DimensionMismatch(
            f"s_h {s_h.shape}, s_o {s_o.shape}, s_sp {s_sp.shape} and s_vo {s_vo.shape} "
            "are not (n,), (n,), (n, C) and (n, C)"
        )
    for name, val in (("s_h", s_h), ("s_o", s_o), ("s_sp", s_sp), ("s_vo", s_vo)):
        bad = ~((0.0 <= val) & (val <= 1.0))  # also nan
        if bad.any():
            raise OutOfRange(f"{name}={val[bad].flat[0]} outside [0, 1]")
    if branch_mode == "vo_only":
        s_sp = np.ones_like(s_sp)
    elif branch_mode == "sp_only":
        s_vo = np.ones_like(s_vo)
    return s_h[:, None] * s_o[:, None] * s_vo * s_sp


# ---- checkpoint file ----
# Versioned text header (block names, shapes, optional meta) followed by the
# flat parameter buffer as raw little-endian float64 bytes, so every block in
# header order. Round-trips exactly and is byte-stable across reruns.

CHECKPOINT_MAGIC = "HOICOMP-CKPT"
CHECKPOINT_VERSION = 1
_DATA_MARKER = b"\n[data]\n"


def save_params(params: ModelParams, path, meta: dict | None = None):
    """Write a versioned checkpoint; round-trips exactly."""
    header = {
        "version": CHECKPOINT_VERSION,
        "blocks": [[name, list(shape)] for name, shape in block_shapes(params.cfg).items()],
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode() + b"\n")
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(_DATA_MARKER)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def _header_config(entries) -> NetworkConfig:
    """The network a checkpoint header describes: every block of
    ``BLOCK_NAMES``, in order, shaped as ``block_shapes`` gives for it."""
    try:
        names = [name for name, _ in entries]
        shapes = {name: tuple(operator.index(n) for n in shape) for name, shape in entries}
    except (TypeError, ValueError):
        raise DimensionMismatch("checkpoint block list is malformed") from None
    if names != list(BLOCK_NAMES):
        raise DimensionMismatch(f"checkpoint blocks {names}, expected {list(BLOCK_NAMES)}")
    try:
        h = shapes["shared_b"][0]
        cfg = NetworkConfig(
            num_hois=shapes["vo_b3"][0], feature_dim=shapes["shared_w"][0], hidden=h,
            vo_hidden=shapes["vo_b1"][0], sp_hidden=shapes["sp_b1"][0],
            spatial_dim=shapes["sp_w1"][0] - h,
        )
    except IndexError:
        raise DimensionMismatch("checkpoint has a block with too few dimensions") from None
    if shapes != block_shapes(cfg) or min(astuple(cfg)) < 0:
        raise DimensionMismatch(f"checkpoint block shapes {shapes} do not fit one network")
    return cfg


def load_params(path) -> tuple[ModelParams, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, _, rest = blob.partition(b"\n")
    if magic.decode(errors="replace") != CHECKPOINT_MAGIC:
        raise DimensionMismatch(f"not a checkpoint file: {path}")
    header_bytes, sep, data = rest.partition(_DATA_MARKER)
    if not sep:
        raise DimensionMismatch("checkpoint missing data section")
    try:
        header = json.loads(header_bytes.decode())
    except ValueError as exc:  # also covers bytes that are not UTF-8
        raise ParseError(f"checkpoint header is not JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("version") != CHECKPOINT_VERSION:
        raise DimensionMismatch(f"not a version-{CHECKPOINT_VERSION} checkpoint header")
    cfg = _header_config(header.get("blocks"))
    size = 8 * _flat_size(cfg)
    if len(data) != size:  # truncated, or bytes after the last block
        raise DimensionMismatch(f"checkpoint has {len(data)} data bytes, expected {size}")
    flat = np.frombuffer(data, dtype="<f8").astype(np.float64)
    return ModelParams(cfg, flat), header.get("meta", {})
