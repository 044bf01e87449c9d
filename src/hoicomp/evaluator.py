"""Detection-style scoring: IoU matching, per-class AP, partitioned reports.

Detections and ground truths are columnar tables, ``Detections`` and
``GroundTruths``: row k of every column is one (human box, object box,
class) triple in one image, and a detection row also carries a score. A
table checks its columns when it is built. The model emits its detections
pair-major: every class of one pair, then the next pair.

A prediction counts as a true positive only when both its human box and its
object box overlap an unmatched ground truth of the same class in the same
image with IoU at or above the threshold. Matching is greedy, one class at a
time:
  - detections are taken in descending score order, and equal scores in
    input order;
  - each takes, among the unmatched ground truths of its class and image,
    the one with the highest pair IoU (the smaller of the two box IoUs); a
    pair IoU must also be above 0, and of equal pair IoUs the ground truth
    first in input order wins;
  - each ground truth matches at most once.
AP integrates the precision envelope over all recall points. Known-object
mode restricts each class's evaluation pool to images whose ground truth
contains that class's object category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidConfig,
    NonFiniteInput,
    ParseError,
    UnknownHoiId,
    read_text_lines,
)
from .label_algebra import HoiLabelSpace
from .network import (
    BRANCH_MODES,
    ModelParams,
    forward_spatial_human_boxes,
    forward_verb_object,
    fuse_scores,
    sigmoid,
)
from .spatial import check_boxes
from .spatial import spatial_vector  # no caller here; kept importable because perfbench wraps it
from .synthdata import Dataset

EVAL_MODES = ("default", "known_object")
IOU_THRESHOLD = 0.5

# dtype and per-row shape of every table column
_COLUMN_TYPES = {
    "image_id": (np.int64, ()),
    "hoi_id": (np.int64, ()),
    "score": (np.float64, ()),
    "human_box": (np.float64, (4,)),
    "object_box": (np.float64, (4,)),
}


class _Table:
    """Methods shared by the two tables: checks at construction, length and
    row selection."""

    def __post_init__(self):
        rows = np.shape(self.image_id)[:1] or (0,)  # (N,); a 0-d image_id fails below
        for f in fields(self):
            col = getattr(self, f.name)
            dtype, width = _COLUMN_TYPES[f.name]
            if not isinstance(col, np.ndarray) or col.dtype != dtype or col.shape != rows + width:
                got = f"{col.dtype} {col.shape}" if isinstance(col, np.ndarray) else type(col).__name__
                raise DimensionMismatch(
                    f"{f.name} is {got}, expected {np.dtype(dtype)} {rows + width}"
                )
        for name in ("human_box", "object_box"):
            check_boxes(getattr(self, name), lambda k: f"{name} row {k}")

    def __len__(self) -> int:
        return self.image_id.shape[0]

    def __getitem__(self, rows):
        """The selected rows (an index, slice, mask or index array) of every
        column; an index selects a table of one row."""
        if isinstance(rows, (int, np.integer)):
            rows = [rows]
        return type(self)(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


@dataclass(frozen=True)
class GroundTruths(_Table):
    """Ground-truth interactions as columns. Raises ``DimensionMismatch``
    when a column's dtype or shape differs from the one given here, and
    ``InvalidBox`` at the first box ``check_boxes`` rejects."""

    image_id: np.ndarray    # (N,) int64
    hoi_id: np.ndarray      # (N,) int64
    human_box: np.ndarray   # (N, 4) float64
    object_box: np.ndarray  # (N, 4) float64


@dataclass(frozen=True)
class Detections(_Table):
    """Scored detections as columns, checked like ``GroundTruths``; a score
    that is not finite raises ``NonFiniteInput`` naming its row."""

    image_id: np.ndarray    # (N,) int64
    hoi_id: np.ndarray      # (N,) int64
    score: np.ndarray       # (N,) float64
    human_box: np.ndarray   # (N, 4) float64
    object_box: np.ndarray  # (N, 4) float64

    def __post_init__(self):
        super().__post_init__()
        bad = ~np.isfinite(self.score)
        if bad.any():
            k = int(np.argmax(bad))
            raise NonFiniteInput(f"score row {k}: non-finite score {self.score[k]!r}")


@dataclass
class EvalReport:
    """Per-class AP (NaN = no ground truth in pool) plus partition means."""

    ap: np.ndarray
    mode: str
    means: dict[str, float] = field(default_factory=dict)

    @property
    def map_full(self) -> float:
        return self.means.get("full", float("nan"))

    @property
    def map_rare(self) -> float:
        return self.means.get("rare", float("nan"))

    @property
    def map_nonrare(self) -> float:
        return self.means.get("nonrare", float("nan"))

    @property
    def map_unseen(self) -> float:
        return self.means.get("unseen", float("nan"))

    @property
    def map_seen(self) -> float:
        return self.means.get("seen", float("nan"))


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise intersection-over-union of two (n, 4) box arrays, in [0, 1]."""
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a + area_b - inter)


def average_precision(hits: np.ndarray, npos: int) -> float:
    """All-points AP from TP flags in descending-score order.

    NaN when the class has no ground truth; 0 when it has ground truth but
    no detections.
    """
    if npos == 0:
        return float("nan")
    if hits.size == 0:
        return 0.0
    tp = np.cumsum(hits.astype(np.float64))
    fp = np.cumsum((~hits).astype(np.float64))
    recall = tp / npos
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * envelope))


def _greedy_hits(dets: Detections, gts: GroundTruths, space: HoiLabelSpace, mode: str,
                 threshold: float, npos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TP flags of the pooled detections of classes with ground truth, in
    matching order (by class, then by descending score, equal scores in
    input order), and the bounds of each class's run in that order: class c
    is ``[bounds[c], bounds[c + 1])``. ``npos`` counts ground truths per class."""
    images, gt_image = np.unique(gts.image_id, return_inverse=True)
    slot = np.searchsorted(images, dets.image_id)  # a detection's image among them,
    found = slot < len(images)                      # if it has a ground truth at all
    found[found] = images[slot[found]] == dets.image_id[found]

    pooled = npos[dets.hoi_id] > 0  # a class without ground truth has no AP to compute
    if mode == "known_object":  # a ground truth is always in its own class's pool
        obj = space.objects_by_hoi()
        pool = np.unique(obj[gts.hoi_id] * len(images) + gt_image)  # (object, image) keys
        pooled &= found & np.isin(obj[dets.hoi_id] * len(images) + slot, pool)
    rows = np.flatnonzero(pooled)
    # a stable sort on an integer key of 16 bits or less is a radix sort
    rows = rows[np.argsort(dets.hoi_id[rows].astype(np.min_scalar_type(space.num_hois)),
                           kind="stable")]
    hoi = dets.hoi_id[rows]
    bounds = np.searchsorted(hoi, np.arange(space.num_hois + 1))
    neg = -dets.score[rows]
    # class by class, since one stable float sort of all rows is slower
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rows[lo:hi] = rows[lo:hi][np.argsort(neg[lo:hi], kind="stable")]

    # join each detection to the ground truths of its class and image
    gt_key = gts.hoi_id * len(images) + gt_image
    gt_order = np.argsort(gt_key, kind="stable")  # input order within one key
    gt_key = gt_key[gt_order]
    ranks = np.flatnonzero(found[rows])
    key = hoi[ranks] * len(images) + slot[rows[ranks]]
    lo = np.searchsorted(gt_key, key, "left")
    n_cand = np.searchsorted(gt_key, key, "right") - lo
    rank = np.repeat(ranks, n_cand)
    within = np.arange(len(rank)) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand)
    gt = gt_order[np.repeat(lo, n_cand) + within]
    det = rows[rank]
    piou = np.minimum(box_iou(dets.human_box[det], gts.human_box[gt]),
                      box_iou(dets.object_box[det], gts.object_box[gt]))
    ok = (piou >= threshold) & (piou > 0)  # a pair IoU of 0 never matches
    rank, gt, piou = rank[ok], gt[ok], piou[ok]

    # greedy in matching order, over the detections that have a candidate
    hits = np.zeros(len(rows), dtype=bool)
    matched = bytearray(len(gts))
    starts = np.flatnonzero(np.diff(rank, prepend=-1))
    stops = np.append(starts[1:], len(rank))
    gt, piou = gt.tolist(), piou.tolist()
    for r, start, stop in zip(rank[starts].tolist(), starts.tolist(), stops.tolist()):
        best_gt, best_iou = -1, 0.0
        for g, v in zip(gt[start:stop], piou[start:stop]):
            if not matched[g] and v > best_iou:
                best_gt, best_iou = g, v
        if best_gt >= 0:
            matched[best_gt] = 1
            hits[r] = True
    return hits, bounds


def evaluate(
    dets: Detections,
    gts: GroundTruths,
    space: HoiLabelSpace,
    mode: str = "default",
    partition: dict[str, frozenset] | None = None,
    iou_threshold: float = IOU_THRESHOLD,
) -> EvalReport:
    """Per-class AP and partition means over a detection/ground-truth set.

    ``partition`` maps partition names to class-id sets; each gets a mean
    beside ``full``. Classes with no ground truth in their pool are NaN in
    ``ap`` and excluded from every mean.
    """
    if mode not in EVAL_MODES:
        raise InvalidConfig(f"mode must be one of {EVAL_MODES}")
    num_hois = space.num_hois
    for what, table in (("detection", dets), ("ground truth", gts)):
        outside = (table.hoi_id < 0) | (table.hoi_id >= num_hois)
        if outside.any():
            raise UnknownHoiId(f"{what} class {table.hoi_id[np.argmax(outside)]} outside label space")

    npos = np.bincount(gts.hoi_id, minlength=num_hois)
    hits, bounds = _greedy_hits(dets, gts, space, mode, iou_threshold, npos)
    ap = np.full(num_hois, np.nan)
    for c in np.flatnonzero(npos).tolist():
        ap[c] = average_precision(hits[bounds[c] : bounds[c + 1]], int(npos[c]))

    means = {"full": _nan_mean(ap)}
    if partition:
        for name, ids in partition.items():
            mask = np.zeros(num_hois, dtype=bool)
            mask[sorted(ids)] = True
            means[name] = _nan_mean(ap[mask])
    return EvalReport(ap=ap, mode=mode, means=means)


def _nan_mean(values: np.ndarray) -> float:
    valid = values[~np.isnan(values)]
    if valid.size == 0:
        return float("nan")
    return float(valid.mean())


def ground_truths_from_instances(data: Dataset) -> GroundTruths:
    """One ground truth per active label bit of each instance, in row order."""
    rows, classes = np.nonzero(data.label)
    return GroundTruths(
        image_id=data.image_id[rows],
        hoi_id=classes.astype(np.int64),
        human_box=data.human_box[rows],
        object_box=data.object_box[rows],
    )


@dataclass(frozen=True)
class ThresholdConfig:
    """Detector-confidence cutoffs with a one-shot per-image relaxation.

    The defaults apply no cut, since synthetic detector scores are uniform
    noise. Real detector output would use the usual operating point of
    0.8 human and 0.3 object, as in iCAN and VCL.
    """

    human: float = 0.0
    object: float = 0.0
    fallback: float = 0.5  # multiplier applied when an image loses all its pairs

    def validate(self):
        if not (0 <= self.human <= 1 and 0 <= self.object <= 1):
            raise InvalidConfig("thresholds must lie in [0, 1]")
        if not 0 <= self.fallback <= 1:
            raise InvalidConfig("fallback factor must lie in [0, 1]")


def _surviving_rows(test: Dataset, thresholds: ThresholdConfig) -> np.ndarray:
    """Rows that pass the detector cutoffs, grouped by image id in ascending
    order; an image none of whose rows pass is retried once with both cutoffs
    scaled by the fallback factor."""
    order = np.argsort(test.image_id, kind="stable")
    ids = test.image_id[order]
    s_h, s_o = test.human_score[order], test.object_score[order]
    image_of = np.cumsum(np.diff(ids, prepend=ids[:1]) != 0)  # image index of each row
    strict = (s_h >= thresholds.human) & (s_o >= thresholds.object)
    relaxed = ((s_h >= thresholds.human * thresholds.fallback)
               & (s_o >= thresholds.object * thresholds.fallback))
    image_passes = np.zeros(len(ids), dtype=bool)
    image_passes[image_of[strict]] = True
    return order[np.where(image_passes[image_of], strict, relaxed)]


def detections_from_model(
    test: Dataset,
    params: ModelParams,
    thresholds: ThresholdConfig | None = None,
    branch_mode: str = "both",
) -> Detections:
    """Score surviving test pairs with the fused model and emit one
    detection per class, pairs in image-id order. All pairs are scored in
    one pass; the spatial-human branch reads their boxes through
    ``forward_spatial_human_boxes``, so no spatial map is drawn.

    Pairs are filtered by detector confidence; an image whose pairs all fail
    the cutoffs is retried once with both cutoffs scaled by the fallback
    factor.
    """
    if branch_mode not in BRANCH_MODES:
        raise InvalidConfig(f"branch_mode must be one of {BRANCH_MODES}")
    thresholds = thresholds or ThresholdConfig()
    thresholds.validate()
    surviving = _surviving_rows(test, thresholds)

    pairs = test[surviving]
    s_sp = sigmoid(forward_spatial_human_boxes(pairs.human_feat, pairs.human_box,
                                               pairs.object_box, params))
    s_vo = sigmoid(forward_verb_object(pairs.verb_feat, pairs.object_feat, params))
    fused = fuse_scores(pairs.human_score, pairs.object_score, s_sp, s_vo, branch_mode)
    num_hois = params.cfg.num_hois
    return Detections(
        image_id=np.repeat(pairs.image_id, num_hois),
        hoi_id=np.tile(np.arange(num_hois, dtype=np.int64), len(pairs)),
        score=fused.ravel(),
        human_box=np.repeat(pairs.human_box, num_hois, axis=0),
        object_box=np.repeat(pairs.object_box, num_hois, axis=0),
    )


# ---- files: detections and reports ----
# Detections: image_id<TAB>hoi_id<TAB>score<TAB>hx1,hy1,hx2,hy2<TAB>ox1,oy1,ox2,oy2

_INT64_LIMIT = 2**63


def _fmt_box(box: list[float]) -> str:
    return ",".join(repr(v) for v in box)


def save_detections(dets: Detections, path):
    columns = (dets.image_id, dets.hoi_id, dets.score, dets.human_box, dets.object_box)
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, hoi_id, score, hbox, obox in zip(*(c.tolist() for c in columns)):
            fh.write(f"{image_id}\t{hoi_id}\t{score!r}\t{_fmt_box(hbox)}\t{_fmt_box(obox)}\n")


def load_detections(path) -> Detections:
    """Detections from a file ``save_detections`` wrote. A malformed line
    raises ``ParseError`` naming it, and a bad box ``InvalidBox`` naming its
    line and column (4 human, 5 object)."""
    ids, scores, boxes, lines = [], [], [], []
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        if not raw.strip():
            continue
        parts = raw.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise ParseError(f"expected 5 fields, got {len(parts)}", line=lineno)
        try:
            image_id = int(parts[0])
            hoi_id = int(parts[1])
            score = float(parts[2])
            hbox = [float(v) for v in parts[3].split(",")]
            obox = [float(v) for v in parts[4].split(",")]
        except ValueError:
            raise ParseError("bad field value", line=lineno) from None
        if not all(-_INT64_LIMIT <= v < _INT64_LIMIT for v in (image_id, hoi_id)):
            raise ParseError("id outside the int64 range", line=lineno)
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {parts[2]!r}", line=lineno, column=3)
        if len(hbox) != 4 or len(obox) != 4:
            raise ParseError("boxes need 4 coordinates", line=lineno)
        ids.append((image_id, hoi_id))
        scores.append(score)
        boxes += (hbox, obox)
        lines.append(lineno)
    ids = np.array(ids, dtype=np.int64).reshape(-1, 2)
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)  # human, object, human, ...
    check_boxes(boxes, lambda k: f"line {lines[k // 2]}, column {4 + k % 2}")
    return Detections(
        image_id=ids[:, 0], hoi_id=ids[:, 1], score=np.array(scores, dtype=np.float64),
        human_box=boxes[0::2], object_box=boxes[1::2],
    )


def format_report(report: EvalReport) -> str:
    """Key=value summary, mAP values as percentages."""
    lines = [f"mode={report.mode}"]
    for name in sorted(report.means):
        lines.append(f"map_{name}={repr(100.0 * report.means[name])}")
    return "\n".join(lines) + "\n"


def format_report_table(report: EvalReport, space: HoiLabelSpace, counts=None) -> str:
    """Flat per-class table: hoi_id, name, train count, AP (or NA)."""
    lines = ["hoi_id\tname\ttrain_count\tap"]
    for c in range(space.num_hois):
        count = int(counts[c]) if counts is not None else -1
        ap = report.ap[c]
        ap_str = "NA" if np.isnan(ap) else repr(float(ap))
        lines.append(f"{c}\t{space.hoi_names[c]}\t{count}\t{ap_str}")
    return "\n".join(lines) + "\n"
