"""Detection-style scoring: IoU matching, per-class AP, partitioned reports.

A prediction counts as a true positive only when both its human box and its
object box overlap an unmatched ground truth of the same class in the same
image with IoU at or above the threshold; detections are consumed in
descending score order and each ground truth matches at most once, greedily
to the candidate with the highest pair IoU (the smaller of the two box IoUs).
AP integrates the precision envelope over all recall points. Known-object
mode restricts each class's evaluation pool to images whose ground truth
contains that class's object category.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidBox, InvalidConfig, ParseError, UnknownHoiId, read_text_lines
from .label_algebra import HoiLabelSpace
from .network import BRANCH_MODES, ModelParams, branch_scores, fuse_scores
from .spatial import Box2D, spatial_vector
from .synthdata import Dataset

EVAL_MODES = ("default", "known_object")
IOU_THRESHOLD = 0.5


@dataclass(frozen=True, slots=True)
class Detection:
    image_id: int
    human_box: Box2D
    object_box: Box2D
    hoi_id: int
    score: float


@dataclass(frozen=True, slots=True)
class GroundTruth:
    image_id: int
    human_box: Box2D
    object_box: Box2D
    hoi_id: int


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


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix1 = max(a.x1, b.x1)
    iy1 = max(a.y1, b.y1)
    ix2 = min(a.x2, b.x2)
    iy2 = min(a.y2, b.y2)
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def pair_iou(det_h: Box2D, det_o: Box2D, gt_h: Box2D, gt_o: Box2D) -> float:
    """min of human-box IoU and object-box IoU; >= t iff both are >= t."""
    return min(iou(det_h, gt_h), iou(det_o, gt_o))


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


def _match_class(dets: list[Detection], gts: list[GroundTruth], threshold: float) -> np.ndarray:
    """Greedy matcher for one class; returns TP flags in score order."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    gts_by_image: dict[int, list[int]] = {}
    for gi, gt in enumerate(gts):
        gts_by_image.setdefault(gt.image_id, []).append(gi)
    matched = np.zeros(len(gts), dtype=bool)
    hits = np.zeros(len(dets), dtype=bool)
    for rank, di in enumerate(order):
        det = dets[di]
        best_iou = 0.0
        best_gt = -1
        for gi in gts_by_image.get(det.image_id, ()):
            if matched[gi]:
                continue
            piou = pair_iou(det.human_box, det.object_box, gts[gi].human_box, gts[gi].object_box)
            if piou >= threshold and piou > best_iou:
                best_iou = piou
                best_gt = gi
        if best_gt >= 0:
            matched[best_gt] = True
            hits[rank] = True
    return hits


def evaluate(
    dets: list[Detection],
    gts: list[GroundTruth],
    space: HoiLabelSpace,
    counts=None,
    mode: str = "default",
    partition: dict[str, frozenset] | None = None,
    iou_threshold: float = IOU_THRESHOLD,
    rare_threshold: int = 10,
) -> EvalReport:
    """Per-class AP and partition means over a detection/ground-truth set.

    ``partition`` maps partition names to class-id sets; when omitted and
    ``counts`` is given, a rare/nonrare partition at ``rare_threshold`` is
    used. Classes with no ground truth in their pool are NaN in ``ap`` and
    excluded from every mean.
    """
    if mode not in EVAL_MODES:
        raise InvalidConfig(f"mode must be one of {EVAL_MODES}")
    num_hois = space.num_hois
    for det in dets:
        if not 0 <= det.hoi_id < num_hois:
            raise UnknownHoiId(f"detection class {det.hoi_id} outside label space")
    for gt in gts:
        if not 0 <= gt.hoi_id < num_hois:
            raise UnknownHoiId(f"ground truth class {gt.hoi_id} outside label space")

    dets_by_class: dict[int, list[Detection]] = {}
    for det in dets:
        dets_by_class.setdefault(det.hoi_id, []).append(det)
    gts_by_class: dict[int, list[GroundTruth]] = {}
    for gt in gts:
        gts_by_class.setdefault(gt.hoi_id, []).append(gt)

    if mode == "known_object":
        obj_by_hoi = space.objects_by_hoi()
        images_with_object: dict[int, set[int]] = {o: set() for o in range(space.num_objects)}
        for gt in gts:
            images_with_object[int(obj_by_hoi[gt.hoi_id])].add(gt.image_id)

    ap = np.full(num_hois, np.nan)
    for c in range(num_hois):
        class_dets = dets_by_class.get(c, [])
        class_gts = gts_by_class.get(c, [])
        if mode == "known_object":
            pool = images_with_object[int(obj_by_hoi[c])]
            class_dets = [d for d in class_dets if d.image_id in pool]
            class_gts = [g for g in class_gts if g.image_id in pool]
        if not class_gts:
            continue
        hits = _match_class(class_dets, class_gts, iou_threshold)
        ap[c] = average_precision(hits, len(class_gts))

    if partition is None and counts is not None:
        from .zeroshot import frequency_partition

        partition = frequency_partition(counts, rare_threshold=rare_threshold)

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


def _boxes(data: Dataset) -> tuple[list[Box2D], list[Box2D]]:
    """One human and one object ``Box2D`` per row."""
    return ([Box2D(*b) for b in data.human_box.tolist()],
            [Box2D(*b) for b in data.object_box.tolist()])


def ground_truths_from_instances(data: Dataset) -> list[GroundTruth]:
    """One ground truth per active label bit of each instance, in row order."""
    humans, objects = _boxes(data)
    image_ids = data.image_id.tolist()
    rows, classes = np.nonzero(data.label)
    return [
        GroundTruth(image_id=image_ids[r], human_box=humans[r], object_box=objects[r], hoi_id=c)
        for r, c in zip(rows.tolist(), classes.tolist())
    ]


@dataclass(frozen=True)
class ThresholdConfig:
    """Detector-confidence cutoffs with a one-shot per-image relaxation.

    Defaults follow the usual detector operating point (0.8 human,
    0.3 object); synthetic runs typically set both to 0.
    """

    human: float = 0.8
    object: float = 0.3
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
) -> list[Detection]:
    """Score surviving test pairs with the fused model and emit one
    detection per class, pairs in image-id order.

    Pairs are filtered by detector confidence; an image whose pairs all fail
    the cutoffs is retried once with both cutoffs scaled by the fallback
    factor.
    """
    if branch_mode not in BRANCH_MODES:
        raise InvalidConfig(f"branch_mode must be one of {BRANCH_MODES}")
    thresholds = thresholds or ThresholdConfig()
    thresholds.validate()
    surviving = _surviving_rows(test, thresholds)

    detections: list[Detection] = []
    classes = range(params.cfg.num_hois)
    for start in range(0, len(surviving), 512):
        chunk = test[surviving[start : start + 512]]
        smap = spatial_vector(chunk.human_box, chunk.object_box)
        scores = branch_scores(params, chunk.human_feat, chunk.verb_feat, chunk.object_feat, smap)
        fused = fuse_scores(chunk.human_score, chunk.object_score, scores, branch_mode)
        humans, objects = _boxes(chunk)
        for image_id, human, obj, row in zip(chunk.image_id.tolist(), humans, objects, fused.tolist()):
            detections.extend(
                Detection(image_id=image_id, human_box=human, object_box=obj, hoi_id=c, score=row[c])
                for c in classes
            )
    return detections


# ---- files: detections and reports ----
# Detections: image_id<TAB>hoi_id<TAB>score<TAB>hx1,hy1,hx2,hy2<TAB>ox1,oy1,ox2,oy2


def _fmt_box(box: Box2D) -> str:
    return ",".join(repr(float(v)) for v in box.as_tuple())


def save_detections(dets: list[Detection], path):
    with open(path, "w", encoding="utf-8") as fh:
        for d in dets:
            fh.write(
                f"{d.image_id}\t{d.hoi_id}\t{repr(float(d.score))}\t"
                f"{_fmt_box(d.human_box)}\t{_fmt_box(d.object_box)}\n"
            )


def load_detections(path) -> list[Detection]:
    dets = []
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
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {parts[2]!r}", line=lineno, column=3)
        if len(hbox) != 4 or len(obox) != 4:
            raise ParseError("boxes need 4 coordinates", line=lineno)
        boxes = []
        for column, coords in ((4, hbox), (5, obox)):
            try:
                boxes.append(Box2D(*coords))
            except InvalidBox as exc:
                raise InvalidBox(f"line {lineno}, column {column}: {exc}") from None
        dets.append(
            Detection(image_id=image_id, human_box=boxes[0], object_box=boxes[1],
                      hoi_id=hoi_id, score=score)
        )
    return dets


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
