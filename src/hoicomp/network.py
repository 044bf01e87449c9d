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
``spatial.spatial_vector`` in training, as 0/1 bytes that ``_sp_forward``
scales straight into its float input, so no float copy of the raster is
made. Its width must be ``spatial.RASTER_WIDTH`` (``check_raster_width``);
the cells' layout within a row is ``spatial``'s alone. Scoring gets the
same logits without the raster: ``spatial.rect_sums`` gives the raster's
product with the raster rows of ``sp_w1`` from the boxes
(``forward_spatial_human_boxes``). The two differ only by rounding.

Training holds three parameter-sized buffers, parameters, gradients and
momentum, and allocates none per step: ``loss_and_grads`` writes into a
gradient buffer passed as ``out``, zeroing only the blocks that several loss
terms add to, and the spatial blocks, which have one contribution each, are
written once without a zero-fill. ``trainer.sgd_step`` then writes the new
parameters over the gradients it has just read and rebinds ``params.flat``
to that buffer, and the old parameter buffer becomes the next step's
gradients. So the buffer a caller saw before a step is overwritten by the
next one: copy ``params.flat`` to keep it. Nor does the spatial branch
make temporaries the size of its input: its input ``z``, the human stream
beside the scaled raster, is one (n, hidden + spatial_dim) buffer written in
place, and its backward computes only the ``hidden`` columns of the input
gradient that the human stream reads, bit for bit as the full product would
give them.

Each layer of a forward pass is a product, then its bias added in place,
then the ReLU in the same buffer, so no pre-activation outlives its layer.
The forward caches hold inputs and activations only; a backward pass masks
with ``act > 0``, which equals ``pre > 0`` (NaN included, as both are
False). Training and scoring build their layers with the one ``_layer``,
and the verb-object branch runs the one ``_vo_forward`` in both; scoring
keeps no cache, so each layer's input is freed once the next is built.
Scoring turns logits into probabilities, and those into fused scores, in
place (``sigmoid`` and ``fuse_scores`` take ``out``). Scoring may also ask
the forwards for some classes alone (``classes``, checked by
``check_classes``): each head's last layer then multiplies by only those
columns of its weight and adds only those of its bias. A product of a
column subset may round otherwise than the full one, so those logits equal
the full table's columns to rounding, not bit for bit. Without
``classes`` a forward gathers nothing and computes what training does.

Targets are multi-label, so every loss term is per-class sigmoid binary
cross entropy, class-reweighted, summed over classes and averaged over
instances. The total is ``L_sp + lambda1 * L_vo + lambda2 * L_comp``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBatch,
    InvalidConfig,
    NonFiniteGradient,
    NonFiniteInput,
    NonFiniteLoss,
    OutOfRange,
    ParseError,
    UnknownHoiId,
)
from .spatial import RASTER_WIDTH, rect_sums, spatial_vector
from .synthdata import Dataset, unpack_labels

BRANCH_MODES = ("both", "vo_only", "sp_only")

# elements per block of a pass over a whole flat buffer (the gradient check
# here, trainer.sgd_step) or over the rows of a score matrix
# (evaluator.detections_from_model): 256 KiB of float64, so the few arrays a
# block touches stay in a 2 MiB L2 cache, and its temporaries are no larger
FLAT_BLOCK = 32768

BLOCK_NAMES = (
    "shared_w", "shared_b",
    "obj_w", "obj_b",
    "sp_w1", "sp_b1", "sp_w2", "sp_b2",
    "vo_w1", "vo_b1", "vo_w2", "vo_b2", "vo_w3", "vo_b3",
)


@dataclass(frozen=True)
class NetworkConfig:
    """Layer widths, each checked >= 1 when built; ``vo_hidden`` keeps the
    1024-wide heads of a full-scale run available. Defaults suit desk runs."""

    num_hois: int
    feature_dim: int = 32
    hidden: int = 64
    vo_hidden: int = 128
    sp_hidden: int = 64
    spatial_dim: int = RASTER_WIDTH

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise InvalidConfig(f"{f.name} must be >= 1")

    @cached_property
    def layout(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """(start, stop, shape) of every block within the flat buffer, in
        ``BLOCK_NAMES`` order. Computed once per config, so a block view
        costs no lookup keyed by the config; do not mutate."""
        layout, start = {}, 0
        for name, shape in block_shapes(self).items():
            stop = start + int(np.prod(shape))
            layout[name] = (start, stop, shape)
            start = stop
        return layout


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
        return next(name for name, (_, stop, _) in self.cfg.layout.items() if index < stop)


def _block_view(name: str) -> property:
    def view(self: ModelParams) -> np.ndarray:
        start, stop, shape = self.cfg.layout[name]
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


def _flat_size(cfg: NetworkConfig) -> int:
    return cfg.layout[BLOCK_NAMES[-1]][1]


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
    """The loss mixing factors lambda1 (verb-object) and lambda2
    (composition), checked when built. The per-class reweighting is no
    setting: ``trainer.train`` works it out from the training set."""

    lambda1: float = 2.0
    lambda2: float = 0.5

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            if not 0 <= getattr(self, name) < math.inf:  # nan fails too
                raise InvalidConfig(f"{name} must be finite and >= 0")


def inverse_log_weights(counts) -> np.ndarray:
    """Inverse-log-frequency class weights ``1 / log(1 + count)``,
    normalized to mean 1.

    Zero counts are clipped to 1 so the weight stays finite (matters for
    unseen classes after a zero-shot split).
    """
    counts = np.maximum(np.asarray(counts, dtype=np.float64), 1.0)
    w = 1.0 / np.log(1.0 + counts)
    return w / w.mean()


# ---- batch containers ----


@dataclass(frozen=True)
class RealBatch:
    """Network inputs of a minibatch of real instances: the feature columns
    of its ``Dataset`` rows, their rasterized box pairs as 0/1 bytes and
    their labels unpacked to dense float rows."""

    human_feat: np.ndarray   # (n, D)
    verb_feat: np.ndarray    # (n, D)
    object_feat: np.ndarray  # (n, D)
    spatial: np.ndarray      # (n, S) uint8
    label: np.ndarray        # (n, C) float

    def __len__(self) -> int:
        return self.human_feat.shape[0]

    @classmethod
    def from_instances(cls, batch: Dataset, num_hois: int) -> "RealBatch":
        """The inputs of ``batch``'s rows, whose labels cover ``num_hois`` classes."""
        return cls(
            human_feat=batch.human_feat,
            verb_feat=batch.verb_feat,
            object_feat=batch.object_feat,
            spatial=spatial_vector(batch.human_box, batch.object_box),
            label=unpack_labels(batch.label, num_hois).astype(np.float64),
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


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise logistic of a float64 array, written into ``out`` (which
    may be ``z`` itself) or a new array. With ``e = exp(-|z|)`` it is
    ``1 / (1 + e)`` where ``z >= 0`` and ``e / (1 + e)`` elsewhere, so neither
    branch overflows; ``e / (1 + e)`` is taken everywhere first and then
    overwritten on the ``z >= 0`` side. Its temporaries are the size of
    ``z``, so scoring passes it one ``FLAT_BLOCK`` row block at a time."""
    if out is None:
        out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0  # taken before e overwrites z, when out is z
    e = np.abs(z, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    den = e + 1.0
    np.divide(e, den, out=e)  # a plain divide: a masked one runs 2-10x slower
    np.divide(1.0, den, out=e, where=pos)
    return out


def _as_2d(x, dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected (n, {dim})")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput(f"{what} contains non-finite values")
    return x


def _layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = True,
           out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w + b``, rectified unless ``relu`` is False, built in the
    product's buffer; the ReLU goes into ``out`` when it is given."""
    a = x @ w
    a += b
    if relu:
        return np.maximum(a, 0.0, out=a if out is None else out)
    return a


def check_classes(classes, num_hois: int) -> np.ndarray:
    """``classes`` as an int64 array of distinct class ids of a
    ``num_hois``-class label space: 1-D and of an integer dtype (an empty
    list passes too), each id in ``[0, num_hois)`` and none repeated. A bad
    shape or dtype and a repeated id raise ``DimensionMismatch``, an id
    outside the space ``UnknownHoiId``."""
    ids = np.asarray(classes)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise DimensionMismatch(f"classes is {ids.dtype} {ids.shape}, expected 1-D integer ids")
    if ids.size:
        low, high = ids.min(), ids.max()
        if low < 0 or high >= num_hois:
            raise UnknownHoiId(f"class {low if low < 0 else high} outside the "
                               f"{num_hois}-class label space")
    ids = ids.astype(np.int64, copy=False)
    ordered = np.sort(ids)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        raise DimensionMismatch(f"class {repeated[0]} is listed twice in classes")
    return ids


def _output_layer(w: np.ndarray, b: np.ndarray, classes: np.ndarray | None):
    """A head's last-layer weight and bias, or only their ``classes`` columns."""
    if classes is None:
        return w, b
    return w[:, classes], b[classes]


def _vo_forward(verb_x: np.ndarray, obj_x: np.ndarray, p: ModelParams, cache: bool = True,
                classes: np.ndarray | None = None):
    """(logits, cache) of the verb-object head. The cache is
    ``(verb_x, obj_x, z, h1, h2)`` for ``_vo_backward``; without ``cache``
    it is None, and each layer's input is freed once the next is built.
    Given ``classes`` (checked ids), the last layer computes only their
    logit columns, in that order; training passes none."""
    h = p.cfg.hidden
    x = np.empty((len(verb_x), 2 * h))  # z: the verb and object streams side by side
    _layer(verb_x, p.shared_w, p.shared_b, out=x[:, :h])
    _layer(obj_x, p.obj_w, p.obj_b, out=x[:, h:])
    kept = [verb_x, obj_x]
    for w, b, relu in ((p.vo_w1, p.vo_b1, True), (p.vo_w2, p.vo_b2, True),
                       (*_output_layer(p.vo_w3, p.vo_b3, classes), False)):
        if cache:
            kept.append(x)
        x = _layer(x, w, b, relu=relu)
    return x, (tuple(kept) if cache else None)


def spatial_input_scale(params: ModelParams) -> float:
    """Scale applied to the flattened spatial map before the spatial head.

    The binary map has far more active inputs than the human stream; scaling
    it by sqrt(hidden / spatial_dim) balances the two sources' contribution
    to the head's pre-activations.
    """
    return float(np.sqrt(params.cfg.hidden / params.cfg.spatial_dim))


def _sp_forward(human_x: np.ndarray, smap_x: np.ndarray, p: ModelParams):
    """(logits, cache) of the spatial-human head for the raster rows
    ``smap_x``, 0/1 bytes or floats: either gives the same ``z``."""
    h = p.cfg.hidden
    # both halves of z written into one buffer: no (n, spatial_dim) temporary
    z = np.empty((len(human_x), h + p.cfg.spatial_dim))
    _layer(human_x, p.shared_w, p.shared_b, out=z[:, :h])
    np.multiply(spatial_input_scale(p), smap_x, out=z[:, h:])
    h_act = _layer(z, p.sp_w1, p.sp_b1)
    logits = _layer(h_act, p.sp_w2, p.sp_b2, relu=False)
    return logits, (human_x, z, h_act)


def _check_rows(*arrays):
    rows = {len(a) for a in arrays}
    if len(rows) > 1:
        raise DimensionMismatch(f"inputs have different row counts {sorted(rows)}")


def forward_verb_object(verb_feat, object_feat, params: ModelParams,
                        classes=None) -> np.ndarray:
    """(n, C) logits of the verb-object head for (n, D) verb and object
    features. Given ``classes``, distinct class ids (``check_classes``), it
    is (n, K): column k is class ``classes[k]``'s, the last layer taken as
    ``h @ vo_w3[:, classes] + vo_b3[classes]``. That product of a column
    subset may round otherwise than the full one, so a column equals its
    full-width logits to rounding, not bit for bit."""
    d = params.shared_w.shape[0]
    verb_x = _as_2d(verb_feat, d, "verb feature")
    obj_x = _as_2d(object_feat, d, "object feature")
    _check_rows(verb_x, obj_x)
    if classes is not None:
        classes = check_classes(classes, params.cfg.num_hois)
    return _vo_forward(verb_x, obj_x, params, False, classes)[0]


def forward_spatial_human(human_feat, spatial, params: ModelParams) -> np.ndarray:
    """(n, C) logits of the spatial-human head for (n, D) human features and
    their (n, S) ``spatial_vector`` rows."""
    human_x = _as_2d(human_feat, params.shared_w.shape[0], "human feature")
    spatial_x = _as_2d(spatial, params.cfg.spatial_dim, "spatial map")
    _check_rows(human_x, spatial_x)
    return _sp_forward(human_x, spatial_x, params)[0]


def check_raster_width(cfg: NetworkConfig):
    """Raise ``DimensionMismatch`` unless ``cfg.spatial_dim`` is the width
    of ``spatial.spatial_vector``'s rows, the one raster boxes give."""
    if cfg.spatial_dim != RASTER_WIDTH:
        raise DimensionMismatch(f"spatial input is {cfg.spatial_dim} wide, expected {RASTER_WIDTH}")


def forward_spatial_human_boxes(human_feat, human_box, object_box, params: ModelParams,
                                classes=None) -> np.ndarray:
    """(n, C) logits of the spatial-human head for (n, D) human features and
    their (n, 4) human and object boxes: ``forward_spatial_human`` of the
    boxes' ``spatial_vector`` rows, up to rounding, without drawing them:
    ``spatial.rect_sums`` gives the raster's product with the raster rows
    of ``sp_w1``. Raises ``DegenerateBox`` where ``spatial_vector`` would.
    Given ``classes``, it is (n, K) as in ``forward_verb_object``, the last
    layer taken as ``h @ sp_w2[:, classes] + sp_b2[classes]``."""
    human_x = _as_2d(human_feat, params.shared_w.shape[0], "human feature")
    human_box = _as_2d(human_box, 4, "human box")
    object_box = _as_2d(object_box, 4, "object box")
    _check_rows(human_x, human_box, object_box)
    cfg = params.cfg
    check_raster_width(cfg)
    if classes is not None:
        classes = check_classes(classes, cfg.num_hois)
    h_act = _layer(human_x, params.shared_w, params.shared_b) @ params.sp_w1[: cfg.hidden]
    raster = rect_sums(human_box, object_box, params.sp_w1[cfg.hidden :])
    h_act += spatial_input_scale(params) * raster
    h_act += params.sp_b1
    np.maximum(h_act, 0.0, out=h_act)
    return _layer(h_act, *_output_layer(params.sp_w2, params.sp_b2, classes), relu=False)


# ---- loss and gradients ----


def _weighted_bce(logits: np.ndarray, targets: np.ndarray, w: np.ndarray) -> float:
    # stable elementwise BCE with logits
    per = np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    return float((per * w).sum(axis=1).mean())


def _bce_grad(logits, targets, w, coef: float) -> np.ndarray:
    return coef * w * (sigmoid(logits) - targets) / logits.shape[0]


def _vo_backward(g_out: np.ndarray, cache, p: ModelParams, grads: dict):
    verb_x, obj_x, z, h1, h2 = cache
    h = p.cfg.hidden
    grads["vo_w3"] += h2.T @ g_out
    grads["vo_b3"] += g_out.sum(axis=0)
    g2 = (g_out @ p.vo_w3.T) * (h2 > 0)
    grads["vo_w2"] += h1.T @ g2
    grads["vo_b2"] += g2.sum(axis=0)
    g1 = (g2 @ p.vo_w2.T) * (h1 > 0)
    grads["vo_w1"] += z.T @ g1
    grads["vo_b1"] += g1.sum(axis=0)
    gz = g1 @ p.vo_w1.T
    g_sv = gz[:, :h] * (z[:, :h] > 0)
    g_so = gz[:, h:] * (z[:, h:] > 0)
    grads["shared_w"] += verb_x.T @ g_sv
    grads["shared_b"] += g_sv.sum(axis=0)
    grads["obj_w"] += obj_x.T @ g_so
    grads["obj_b"] += g_so.sum(axis=0)


_SP_BLOCKS = ("sp_w1", "sp_b1", "sp_w2", "sp_b2")


def _sp_backward(g_out: np.ndarray, cache, p: ModelParams, grads: dict):
    """Write the ``sp_*`` blocks of ``grads``, which no other term touches,
    and add to the shared blocks."""
    human_x, z, h_act = cache
    h = p.cfg.hidden
    np.matmul(h_act.T, g_out, out=grads["sp_w2"])
    np.sum(g_out, axis=0, out=grads["sp_b2"])
    g1 = (g_out @ p.sp_w2.T) * (h_act > 0)
    np.matmul(z.T, g1, out=grads["sp_w1"])
    np.sum(g1, axis=0, out=grads["sp_b1"])
    # only the human stream's h columns of g1 @ sp_w1.T are read. With
    # OpenBLAS 0.3.31, a C-ordered copy of their weights gives the full
    # product's bits, where the transposed view differs for 2..18 rows; one
    # row goes through gemv, where the view is the form that matches.
    # TestStepOracle pins both at the default widths.
    w_h = p.sp_w1[:h].T
    g_sh = (g1 @ (w_h if len(g1) == 1 else np.ascontiguousarray(w_h))) * (z[:, :h] > 0)
    grads["shared_w"] += human_x.T @ g_sh
    grads["shared_b"] += g_sh.sum(axis=0)


def _nonfinite_block(params: ModelParams) -> str | None:
    """Name of the first block of ``params`` that holds a NaN or an inf,
    checked ``FLAT_BLOCK`` elements at a time; None when all are finite."""
    flat = params.flat
    for start in range(0, flat.size, FLAT_BLOCK):
        finite = np.isfinite(flat[start : start + FLAT_BLOCK])
        if not finite.all():
            return params.block_at(start + int(np.argmin(finite)))
    return None


def loss_and_grads(real: RealBatch, comp: CompBatch | None, params: ModelParams,
                   lw: LossWeights, class_weights: np.ndarray, out: ModelParams | None = None):
    """Joint forward/backward over one minibatch; ``comp`` may be None, and
    ``class_weights`` holds one positive weight per class.

    The gradients go into ``out`` when it is given, a ``ModelParams`` of
    ``params``'s config that shares no memory with it; every element of
    ``out`` is overwritten. Without ``out`` a new buffer is allocated. Bad
    inputs raise before anything is computed: an empty real batch
    ``EmptyBatch``; a batch column, ``class_weights`` or ``out`` that does
    not fit the config ``DimensionMismatch``; a weight <= 0 ``OutOfRange``.

    Returns:
        (total_loss, components, grads) where components maps
        L_sp / L_vo / L_comp to floats and grads is ``out`` or the new
        ``ModelParams`` in the layout of ``params``.
    """
    if len(real) == 0:
        raise EmptyBatch("real batch is empty")
    cfg = params.cfg
    d = cfg.feature_dim
    widths = {"human_feat": d, "verb_feat": d, "object_feat": d, "spatial": cfg.spatial_dim,
              "label": cfg.num_hois}
    for kind, batch in (("real", real), ("composed", comp)):
        for name, width in widths.items():
            x = getattr(batch, name, None)  # a composed batch has no human_feat or spatial
            if x is not None and x.shape[1:] != (width,):
                raise DimensionMismatch(f"{kind} {name} has shape {x.shape}, expected (n, {width})")
    w = np.asarray(class_weights, dtype=np.float64)
    if w.shape != (cfg.num_hois,):
        raise DimensionMismatch(f"class_weights shape {w.shape}, expected ({cfg.num_hois},)")
    if not np.all(w > 0):
        raise OutOfRange("class_weights must be strictly positive")
    if out is not None:
        if out.cfg != cfg:
            raise DimensionMismatch(f"gradient buffer is for {out.cfg}, expected {cfg}")
        if np.may_share_memory(out.flat, params.flat):
            raise DimensionMismatch("gradient buffer shares memory with the parameters")

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

    grads = ModelParams(cfg, np.empty_like(params.flat)) if out is None else out
    blocks = grads.blocks()
    for name, block in blocks.items():
        if name not in _SP_BLOCKS:  # accumulated over terms; _sp_backward writes the rest
            block.fill(0.0)
    for backward_fn, logits, cache, targets, coef in terms:
        backward_fn(_bce_grad(logits, targets, w, coef), cache, params, blocks)
    bad = _nonfinite_block(grads)
    if bad is not None:
        raise NonFiniteGradient(f"gradient block {bad} is non-finite")

    return total, components, grads


# ---- inference-time scoring ----


def fuse_scores(s_h, s_o, s_sp, s_vo, branch_mode: str = "both",
                out: np.ndarray | None = None) -> np.ndarray:
    """Final per-class score of n pairs: the product of their ``(n,)``
    detector confidences ``s_h``, ``s_o`` and their ``(n, C)`` spatial-human
    and verb-object branch probabilities ``s_sp``, ``s_vo``, taken in that
    order. It goes into ``out`` when given, which may be ``s_sp`` or ``s_vo``
    itself, and into a new array otherwise.

    Ablation modes replace one branch's factor with 1: ``vo_only`` ignores
    the spatial-human branch, ``sp_only`` ignores the verb-object branch.
    An ignored branch's probabilities are neither read nor range-checked,
    so one array may stand for both branches.
    """
    if branch_mode not in BRANCH_MODES:
        raise InvalidConfig(f"branch_mode must be one of {BRANCH_MODES}")
    s_h, s_o, s_sp, s_vo = (np.asarray(a, dtype=np.float64) for a in (s_h, s_o, s_sp, s_vo))
    if s_sp.ndim != 2 or not s_h.shape == s_o.shape == s_sp.shape[:1] or s_vo.shape != s_sp.shape:
        raise DimensionMismatch(
            f"s_h {s_h.shape}, s_o {s_o.shape}, s_sp {s_sp.shape} and s_vo {s_vo.shape} "
            "are not (n,), (n,), (n, C) and (n, C)"
        )
    branches = {"both": (("s_sp", s_sp), ("s_vo", s_vo)), "vo_only": (("s_vo", s_vo),),
                "sp_only": (("s_sp", s_sp),)}[branch_mode]
    for name, val in (("s_h", s_h), ("s_o", s_o), *branches):
        if val.size and 0.0 <= val.min() and val.max() <= 1.0:  # a nan fails both
            continue
        bad = ~((0.0 <= val) & (val <= 1.0))
        if bad.any():
            raise OutOfRange(f"{name}={val[bad].flat[0]} outside [0, 1]")
    # a dropped branch multiplies by 1, which leaves every bit as it is;
    # the verb-object factor goes first
    factors = [val for _, val in reversed(branches)]
    prod = (s_h * s_o)[:, None] * factors[0]
    for f in factors[1:]:
        prod *= f
    if out is None:
        return prod
    out[...] = prod  # only now, as out may be one of the factors
    return out


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
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").data)  # the buffer itself, no copy


def _header_config(entries) -> NetworkConfig:
    """The network a checkpoint header describes: every block of
    ``BLOCK_NAMES``, in order, shaped as ``block_shapes`` gives for it.
    Widths that ``NetworkConfig`` refuses raise ``DimensionMismatch`` too."""
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
    except InvalidConfig as exc:
        raise DimensionMismatch(f"checkpoint header: {exc}") from None
    if shapes != block_shapes(cfg):
        raise DimensionMismatch(f"checkpoint block shapes {shapes} do not fit one network")
    return cfg


def load_params(path) -> tuple[ModelParams, dict]:
    """(parameters, meta) of a checkpoint ``save_params`` wrote. A file
    that is not one raises ``DimensionMismatch`` or ``ParseError``, and so
    does one whose parameters hold a NaN or an inf: ``ParseError``, naming
    the file and the first such block."""
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
    params = ModelParams(cfg, np.frombuffer(data, dtype="<f8").astype(np.float64))
    bad = _nonfinite_block(params)
    if bad is not None:
        raise ParseError(f"checkpoint {path}: block {bad} holds a non-finite value")
    return params, header.get("meta", {})
