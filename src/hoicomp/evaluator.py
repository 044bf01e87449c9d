"""Detection-style scoring: IoU matching, per-class AP, partitioned reports.

A model is scored with one ``Scoring``, which holds and checks every
scoring setting. ``evaluate`` takes the matching mode alone, as a string it
checks, since it also scores detections read from a file.

Ground truths and detections are columnar tables. ``GroundTruths`` has one
row per (human box, object box, class) triple in one image. ``Detections``
has one row per detected human-object pair in one image, with a score for
every class: a pairs x classes score matrix beside the per-pair columns. A
table checks its columns when it is built.

A prediction counts as a true positive only when both its human box and its
object box overlap an unmatched ground truth of the same class in the same
image with IoU at or above the threshold. Matching is greedy, one class at a
time:
  - the class's pairs are taken in descending score order, and equal scores
    in pair order;
  - each takes, among the unmatched ground truths of its class and image,
    the one with the highest pair IoU (the smaller of the two box IoUs); a
    pair IoU must also be above 0, and of equal pair IoUs the ground truth
    first in input order wins;
  - each ground truth matches at most once.
AP integrates the precision envelope over all recall points. Known-object
mode restricts each class's evaluation pool to images whose ground truth
contains that class's object category.

The matcher works from the ground-truth side, since only a pair in the image
of a ground truth of its class can match. Each ground truth is taken against
the pairs of its own image; a pair whose pair IoU passes is a candidate. A
candidate's rank in its class's pool is the number of pool scores above its
score plus the number of equal scores at a lower pair index: one ``np.sort``
of the class's score column and ``searchsorted`` give the first term, and
the equal scores are counted only where a score repeats. The greedy then
runs over the candidates alone, by class, rank and ground-truth input order.
The classes that share one pool length (all of them in default mode; in
known-object mode those whose objects have pools of one size) go to
``average_precisions`` together, as the (class, rank) of each true
positive; it takes AP over blocks of their rows, with each class's bits
those of a one-class pass. Known-object pools come from one (object, image)
table; a pair outside its class's pool ranks as if its score were -inf.

AP reads a class's scores only when the class has ground truth, so
``experiments.evaluate_params`` scores only those classes: at the
``hico-600`` benchmark's shape, about 140 of 600. ``detections_from_model``
then keeps both branches' last-layer products whole, since a product of a
column subset may round otherwise, and takes the classes' columns from
them a row block at a time; the sigmoid and the fuse after it are
elementwise, so each score has the bits of its column in the full table.
``evaluate`` reads each class from its column through ``classes``, and
every AP and mean is the full table's.

The data layouts scoring reads belong to other modules. The label bits
are ``synthdata``'s: a dataset's ground truths come from
``synthdata.label_pairs`` and its classes from ``synthdata.active_classes``.
The raster is ``spatial``'s: a pair's spatial logits come from its boxes
through ``network``, which reads the raster through ``spatial.rect_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteInput, UnknownHoiId
from .label_algebra import HoiLabelSpace
from .network import (
    BRANCH_MODES,
    FLAT_BLOCK,
    ModelParams,
    forward_spatial_human_boxes,
    forward_verb_object,
    fuse_scores,
    sigmoid,
)
from .spatial import check_boxes
from .spatial import spatial_vector  # no caller here; kept importable because perfbench wraps it
from .synthdata import Dataset, active_classes, label_pairs, read_archive, write_archive

EVAL_MODES = ("default", "known_object")
IOU_THRESHOLD = 0.5
# rare/non-rare cut in training instances: the desk-scale tail classes see a
# few dozen each, so 25 (about the bottom third of 60 classes) rather than
# the 10 that suits full-scale datasets
DEFAULT_RARE_THRESHOLD = 25

# dtype and per-row shape of every table column; None is any one length
_COLUMN_TYPES = {
    "image_id": (np.int64, ()),
    "hoi_id": (np.int64, ()),
    "score": (np.float64, (None,)),  # one score per class
    "human_box": (np.float64, (4,)),
    "object_box": (np.float64, (4,)),
}


class _Table:
    """Methods shared by the two tables: checks at construction and length."""

    def __post_init__(self):
        rows = np.shape(self.image_id)[:1] or (0,)  # (N,); a 0-d image_id fails below
        for f in fields(self):
            col = getattr(self, f.name)
            dtype, width = _COLUMN_TYPES[f.name]
            want = rows + width
            if not (isinstance(col, np.ndarray) and col.dtype == dtype and col.ndim == len(want)
                    and all(w in (None, n) for w, n in zip(want, col.shape))):
                got = f"{col.dtype} {col.shape}" if isinstance(col, np.ndarray) else type(col).__name__
                raise DimensionMismatch(f"{f.name} is {got}, expected {np.dtype(dtype)} {want}")
        for name in ("human_box", "object_box"):
            check_boxes(getattr(self, name), lambda k: f"{name} row {k}")

    def __len__(self) -> int:
        return self.image_id.shape[0]


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
    """Scored human-object pairs as columns: row p is one pair in one image,
    ``score[p, c]`` its score for class c, and ``len()`` counts the scores.
    Checked like ``GroundTruths``; a non-finite score raises ``NonFiniteInput``
    naming its pair and class."""

    image_id: np.ndarray    # (P,) int64
    human_box: np.ndarray   # (P, 4) float64
    object_box: np.ndarray  # (P, 4) float64
    score: np.ndarray       # (P, C) float64

    def __post_init__(self):
        super().__post_init__()
        bad = ~np.isfinite(self.score)
        if bad.any():
            p, c = np.unravel_index(np.argmax(bad), bad.shape)
            raise NonFiniteInput(f"score pair {p}, class {c}: non-finite score {self.score[p, c]}")

    def __len__(self) -> int:
        return self.score.size


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


# elements in each of ``average_precisions``' row-block buffers, so a
# block's passes run on rows that stay in cache
AP_BLOCK = 4096


def average_precisions(row: np.ndarray, rank: np.ndarray, npos: np.ndarray,
                       length: int) -> np.ndarray:
    """All-points AP of ``len(npos)`` classes that share one pool length:
    true positive k is at ``rank[k]`` in the matching order of class
    ``row[k]``, rows ascending, and ``npos`` counts each class's ground
    truths (all above 0). A pool of length 0 has AP 0.

    Each class's TP flags become one row of a block of rows, about
    ``AP_BLOCK`` elements at a time. Along each row, the cumulative TP
    count gives recall (TP / npos) and precision (TP / rank count); AP is
    the sum of the recall steps times the precision envelope, the running
    maximum from the end. The counts are exact integers, every other step is
    elementwise, and ``np.sum`` over a contiguous row pairwise-sums it as it
    sums a 1-D array, so each class's AP has the bits of the one-class form
    in ``tests/column_oracle.py``.
    """
    ap = np.zeros(len(npos))
    if not length:
        return ap
    rows = max(1, min(len(npos), AP_BLOCK // length))
    tp, recall, gain = (np.empty(rows * length) for _ in range(3))
    seen = np.arange(1.0, length + 1.0)  # pairs ranked so far, TP + FP, at each rank
    starts = range(0, len(npos), rows)
    cuts = np.searchsorted(row, [*starts, len(npos)]).tolist()
    for start, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
        block = slice(start, start + rows)
        r = len(npos[block])
        tp_r, recall_r, gain_r = (a[: r * length].reshape(r, length) for a in (tp, recall, gain))
        tp_r.fill(0.0)
        tp_r[row[lo:hi] - start, rank[lo:hi]] = 1.0
        np.cumsum(tp_r, axis=1, out=tp_r)
        np.divide(tp_r, npos[block, None], out=recall_r)
        precision = np.divide(tp_r, seen, out=tp_r)
        envelope = precision[:, ::-1]
        np.maximum.accumulate(envelope, axis=1, out=envelope)
        gain_r[:, 0] = recall_r[:, 0]
        np.subtract(recall_r[:, 1:], recall_r[:, :-1], out=gain_r[:, 1:])
        np.multiply(gain_r, precision, out=gain_r)
        np.sum(gain_r, axis=1, out=ap[block])
    return ap


def _candidates(dets: Detections, gts: GroundTruths, threshold: float):
    """Every (ground truth, pair) of one image whose pair IoU is at or above
    ``threshold`` and above 0: their ground-truth rows, pair rows and pair
    IoUs, ground truths in input order and each one's pairs in pair order."""
    order = np.argsort(dets.image_id, kind="stable")
    image_of_pair = dets.image_id[order]
    lo = np.searchsorted(image_of_pair, gts.image_id, "left")
    count = np.searchsorted(image_of_pair, gts.image_id, "right") - lo
    gt = np.repeat(np.arange(len(gts)), count)
    within = np.arange(len(gt)) - np.repeat(np.cumsum(count) - count, count)
    pair = order[np.repeat(lo, count) + within]
    piou = np.minimum(box_iou(dets.human_box[pair], gts.human_box[gt]),
                      box_iou(dets.object_box[pair], gts.object_box[gt]))
    ok = (piou >= threshold) & (piou > 0)  # a pair IoU of 0 never matches
    return gt[ok], pair[ok], piou[ok]


def _pools(dets: Detections, gts: GroundTruths, space: HoiLabelSpace, mode: str):
    """Which pairs each class ranks: None for every pair (default mode), or
    a boolean (num_objects, pairs) table whose row o marks the pairs in
    images with a ground truth of object o (known-object mode)."""
    if mode != "known_object":
        return None
    images, gt_image = np.unique(gts.image_id, return_inverse=True)
    obj = space.objects_by_hoi()
    table = np.zeros((space.num_objects, len(images) + 1), dtype=bool)  # last: no ground truth
    table[obj[gts.hoi_id], gt_image] = True
    slot = np.searchsorted(images, dets.image_id)
    slot[images[np.minimum(slot, len(images) - 1)] != dets.image_id] = len(images)
    return table[:, slot]


def _class_hits(dets: Detections, gts: GroundTruths, space: HoiLabelSpace, mode: str,
                threshold: float, classes: np.ndarray, column: np.ndarray) -> list[tuple]:
    """The true positives of the classes in ``classes``, grouped by the
    length of the class's pool: one ``(group, length, row, rank)`` per
    length, where ``group`` holds the classes of that pool length in
    ascending order and TP k is at ``rank[k]`` in the matching order
    (descending score, equal scores in pair order) of class
    ``group[row[k]]``, rows ascending. Class c's scores are column
    ``column[c]`` of ``dets.score``. Default mode has one pool, so one
    group."""
    if not len(classes):  # no ground truth at all
        return []
    pools = _pools(dets, gts, space, mode)
    obj = space.objects_by_hoi()
    gt, pair, piou = _candidates(dets, gts, threshold)
    hoi = gts.hoi_id[gt]
    rank = np.empty(len(gt), dtype=np.int64)
    by_class = np.argsort(hoi, kind="stable")
    cuts = np.searchsorted(hoi[by_class], classes).tolist() + [len(hoi)]
    for c, k, lo, hi in zip(classes.tolist(), column[classes].tolist(), cuts[:-1], cuts[1:]):
        if lo == hi:
            continue
        cand = by_class[lo:hi]
        col = dets.score[:, k]
        if pools is not None:  # pairs outside the pool rank below every score
            col = np.where(pools[obj[c]], col, -np.inf)
        s = col[pair[cand]]
        ordered = np.sort(col)
        above = np.searchsorted(ordered, s, "right")
        rank[cand] = len(col) - above
        for k in np.flatnonzero(above - np.searchsorted(ordered, s, "left") > 1).tolist():
            p = pair[cand[k]]  # equal scores at lower pair indices rank first
            rank[cand[k]] += np.count_nonzero(col[:p] == s[k])

    # greedy in matching order: by class, then by rank; a detection's
    # candidates stay in ground-truth input order. A candidate that shares
    # neither its detection nor its ground truth with another one matches
    # whatever the order, so the loop visits only the others.
    order = np.lexsort((gt, rank, hoi))
    hoi, rank, gt, piou = hoi[order], rank[order], gt[order], piou[order]
    det = np.cumsum((np.diff(hoi, prepend=-1) != 0) | (np.diff(rank, prepend=-1) != 0))
    hit = (np.bincount(det)[det] == 1) & (np.bincount(gt, minlength=len(gts))[gt] == 1)
    shared = np.flatnonzero(~hit)
    matched = bytearray(len(gts))
    starts = np.flatnonzero(np.diff(det[shared], prepend=-1))
    stops = np.append(starts[1:], len(shared)).tolist()
    gts_of, ious_of = gt[shared].tolist(), piou[shared].tolist()
    for start, stop in zip(starts.tolist(), stops):
        best, best_iou = -1, 0.0
        for k in range(start, stop):
            if not matched[gts_of[k]] and ious_of[k] > best_iou:
                best, best_iou = k, ious_of[k]
        if best >= 0:
            matched[gts_of[best]] = 1
            hit[shared[best]] = True

    pool_size = (np.full(space.num_objects, len(dets.image_id)) if pools is None
                 else np.count_nonzero(pools, axis=1))
    length = pool_size[obj[classes]]
    by_length = np.argsort(length, kind="stable")  # classes stay ascending within a length
    slot = np.empty(space.num_hois, dtype=np.int64)
    slot[classes[by_length]] = np.arange(len(classes))
    tp = slot[hoi[hit]]
    tp_order = np.argsort(tp, kind="stable")
    tp, tp_rank = tp[tp_order], rank[hit][tp_order]
    bounds = [0, *(np.flatnonzero(np.diff(length[by_length])) + 1).tolist(), len(classes)]
    cuts = np.searchsorted(tp, bounds).tolist()
    return [(classes[by_length[start:stop]], int(length[by_length[start]]),
             tp[lo:hi] - start, tp_rank[lo:hi])
            for start, stop, lo, hi in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:])]


def evaluate(
    dets: Detections,
    gts: GroundTruths,
    space: HoiLabelSpace,
    mode: str = "default",
    partition: dict[str, frozenset] | None = None,
    iou_threshold: float = IOU_THRESHOLD,
    *,
    classes: np.ndarray | None = None,
) -> EvalReport:
    """Per-class AP and partition means over a detection/ground-truth set.

    ``partition`` maps partition names to class-id sets; each gets a mean
    beside ``full``. Classes with no ground truth in their pool are NaN in
    ``ap`` and excluded from every mean. A table with pairs must score every
    class of ``space``, or ``DimensionMismatch`` is raised.

    ``classes``, distinct class ids, says instead that score column k is
    class ``classes[k]``'s, as ``detections_from_model`` gives them for the
    same ``classes``. Only classes with ground truth are read, so they must
    all be among them (``DimensionMismatch`` otherwise); every AP is then
    that of the full table.
    """
    if mode not in EVAL_MODES:
        raise InvalidConfig(f"mode must be one of {EVAL_MODES}")
    num_hois = space.num_hois
    scored = np.arange(num_hois) if classes is None else np.asarray(classes, dtype=np.int64)
    pairs, width = dets.score.shape
    if pairs and width != len(scored):
        want = f"the label space has {num_hois}" if classes is None else f"classes holds {len(scored)}"
        raise DimensionMismatch(f"detections score {width} classes, {want}")
    outside = (gts.hoi_id < 0) | (gts.hoi_id >= num_hois)
    if outside.any():
        raise UnknownHoiId(f"ground truth class {gts.hoi_id[outside][0]} outside label space")
    if not pairs:  # an empty table, such as an empty file, scores every class alike
        dets = replace(dets, score=np.zeros((0, len(scored))))

    npos = np.bincount(gts.hoi_id, minlength=num_hois)
    found = np.flatnonzero(npos)  # a class without ground truth has no AP to compute
    column = np.full(num_hois, -1)  # class -> its score column
    column[scored] = np.arange(len(scored))
    unscored = found[column[found] < 0]
    if unscored.size:
        raise DimensionMismatch(f"class {unscored[0]} has ground truth but no score column")
    ap = np.full(num_hois, np.nan)
    for group, length, row, rank in _class_hits(dets, gts, space, mode, iou_threshold, found,
                                                column):
        ap[group] = average_precisions(row, rank, npos[group], length)

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


def ground_truth_classes(data: Dataset) -> np.ndarray:
    """Ascending ids of the classes ``ground_truths_from_instances(data)``
    holds: every class set in some row's label."""
    return active_classes(data.label)


def ground_truths_from_instances(data: Dataset) -> GroundTruths:
    """One ground truth per active label bit of each instance, in row order
    and by class within a row (``synthdata.label_pairs``)."""
    rows, classes = label_pairs(data.label)
    return GroundTruths(
        image_id=data.image_id[rows],
        hoi_id=classes.astype(np.int64),
        human_box=data.human_box[rows],
        object_box=data.object_box[rows],
    )


@dataclass(frozen=True)
class Scoring:
    """How a trained model is scored, checked when built: the detector
    cutoffs with their one-shot per-image relaxation, the fused branches,
    the AP matching mode and the rare/non-rare cut. Runs compare only when
    they share one of these. The cutoffs default to no cut, since synthetic
    detector scores are uniform noise; real detector output would use
    iCAN's and VCL's operating point of 0.8 human and 0.3 object.
    """

    human: float = 0.0
    object: float = 0.0
    fallback: float = 0.5  # multiplier applied to both cutoffs when an image loses all its pairs
    branch_mode: str = "both"
    eval_mode: str = "default"
    rare_threshold: int = DEFAULT_RARE_THRESHOLD

    def __post_init__(self):
        if not (0 <= self.human <= 1 and 0 <= self.object <= 1):
            raise InvalidConfig("thresholds must lie in [0, 1]")
        if not 0 <= self.fallback <= 1:
            raise InvalidConfig("fallback factor must lie in [0, 1]")
        if self.branch_mode not in BRANCH_MODES:
            raise InvalidConfig(f"branch_mode must be one of {BRANCH_MODES}")
        if self.eval_mode not in EVAL_MODES:
            raise InvalidConfig(f"mode must be one of {EVAL_MODES}")
        if self.rare_threshold < 0:
            raise InvalidConfig("rare_threshold must be >= 0")


def _surviving_rows(test: Dataset, scoring: Scoring) -> np.ndarray:
    """Rows that pass the detector cutoffs, grouped by image id in ascending
    order; an image none of whose rows pass is retried once with both cutoffs
    scaled by the fallback factor."""
    order = np.argsort(test.image_id, kind="stable")
    ids = test.image_id[order]
    s_h, s_o = test.human_score[order], test.object_score[order]
    image_of = np.cumsum(np.diff(ids, prepend=ids[:1]) != 0)  # image index of each row
    strict = (s_h >= scoring.human) & (s_o >= scoring.object)
    relaxed = ((s_h >= scoring.human * scoring.fallback)
               & (s_o >= scoring.object * scoring.fallback))
    image_passes = np.zeros(len(ids), dtype=bool)
    image_passes[image_of[strict]] = True
    return order[np.where(image_passes[image_of], strict, relaxed)]


def detections_from_model(test: Dataset, params: ModelParams, scoring: Scoring = Scoring(),
                          classes: np.ndarray | None = None) -> Detections:
    """Score surviving test pairs with the model's branches fused as
    ``scoring.branch_mode`` says: one detection row per pair, pairs in
    image-id order, with a score for every class, or, given ``classes``
    (distinct class ids), for those alone: column k then holds class
    ``classes[k]``'s scores, with the bits of its column in the full table.
    All pairs are scored in one pass; the spatial-human branch reads their
    boxes through ``forward_spatial_human_boxes``, so no spatial map is
    drawn. A branch the mode drops is not computed.

    Pairs are filtered by ``scoring``'s detector cutoffs; an image whose
    pairs all fail them is retried once with both cutoffs scaled by the
    fallback factor.
    """
    surviving = _surviving_rows(test, scoring)

    pairs = test[surviving]
    mode = scoring.branch_mode
    logits = []  # of the fused branches: spatial-human, then verb-object
    if mode != "vo_only":
        logits.append(forward_spatial_human_boxes(pairs.human_feat, pairs.human_box,
                                                  pairs.object_box, params))
    if mode != "sp_only":
        logits.append(forward_verb_object(pairs.verb_feat, pairs.object_feat, params))
    score = logits[-1]  # the scores go into the last branch's logit buffer
    n, width = score.shape
    if classes is not None:  # packed from its start: no block's scores reach a later block's rows
        score = score.reshape(-1)[: n * len(classes)].reshape(n, len(classes))
    # each branch's logits become its probabilities and then the score, a
    # row block at a time, so each step reads rows the step before left in
    # cache. Sigmoid and fuse are elementwise, so the columns taken from
    # the whole products keep their bits.
    rows = max(1, FLAT_BLOCK // max(1, width))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        probs = [s[block] for s in logits]
        # a NaN logit in any column makes fuse_scores raise on the full
        # table, so a block that holds one keeps every column and raises too
        if classes is not None and not any(np.isnan(p.min()) for p in probs):
            probs = [p[:, classes] for p in probs]
        probs = [sigmoid(p, out=p) for p in probs]
        # with one branch, it stands for both; fuse_scores reads and checks only it
        fuse_scores(pairs.human_score[block], pairs.object_score[block], probs[0], probs[-1],
                    mode, out=score[block])
    return Detections(
        image_id=pairs.image_id, human_box=pairs.human_box, object_box=pairs.object_box,
        score=score,
    )


# ---- files: detections and reports ----
# A detections file is one uncompressed ``np.savez`` archive with an entry
# per ``Detections`` column, named after its field: P pairs, C classes.
#   image_id                  (P,)     int64
#   human_box, object_box     (P, 4)   float64
#   score                     (P, C)   float64
# The label space the scores are for follows, as ``synthdata.read_archive``
# reads it. Loading builds a ``Detections``, which checks every column.

DETECTIONS_ENTRIES = tuple(f.name for f in fields(Detections))


def save_detections(dets: Detections, space: HoiLabelSpace, path):
    """Write ``dets``, scored in ``space``, to ``path`` as the archive above."""
    write_archive(path, {name: getattr(dets, name) for name in DETECTIONS_ENTRIES}, space)


def load_detections(path, space: HoiLabelSpace) -> Detections:
    """Detections from a file ``save_detections`` wrote in ``space``. Bytes
    that are not an archive of exactly the entries above raise
    ``ParseError``, and a file of another space ``InconsistentLabel``; a
    column of another dtype or shape raises ``DimensionMismatch``, a bad box
    ``InvalidBox`` naming its column and row, and a non-finite score
    ``NonFiniteInput`` naming its pair and class."""
    return Detections(**read_archive(path, "detections", DETECTIONS_ENTRIES, space=space)[0])


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
