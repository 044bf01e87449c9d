from dataclasses import fields, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoicomp.errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidBox,
    InvalidConfig,
    NonFiniteInput,
    ParseError,
    UnknownHoiId,
)
from hoicomp.evaluator import (
    EVAL_MODES,
    IOU_THRESHOLD,
    Detections,
    GroundTruths,
    Scoring,
    average_precisions,
    box_iou,
    detections_from_model,
    evaluate,
    format_report,
    format_report_table,
    ground_truths_from_instances,
    load_detections,
    save_detections,
)
from hoicomp.experiments import default_dataset_config
from hoicomp.label_algebra import build_space
from hoicomp.network import (
    NetworkConfig,
    forward_spatial_human,
    forward_spatial_human_boxes,
    forward_verb_object,
    fuse_scores,
    init_params,
    sigmoid,
)
from hoicomp.spatial import spatial_vector
from hoicomp.synthdata import DatasetConfig, generate, random_hoi_defs, save_dataset
from hoicomp.trainer import TrainConfig, train
from hoicomp.zeroshot import frequency_partition

from column_oracle import average_precision, column_evaluate
from conftest import make_dataset, make_row, peak_above_live
from test_network import masked_sigmoid, plain_product
from test_synthdata import replace_entry


class Box(NamedTuple):
    """One (x1, y1, x2, y2) box of the per-row oracles below; the table
    helpers build valid boxes only, since the tables check theirs."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


def shift(box, dx=0.0, dy=0.0):
    return Box(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


def _columns(rows, names):
    cols = list(zip(*rows)) or [()] * len(names)
    out = {}
    for name, col in zip(names, cols):
        if name.endswith("_box"):
            out[name] = np.array(col, dtype=np.float64).reshape(-1, 4)
        else:
            out[name] = np.array(col, dtype=np.float64 if name == "score" else np.int64)
    return out


def detections(pairs, num_classes=0):
    """``Detections`` from (image_id, human Box, object Box, s_0, ..., s_{C-1})
    pairs; ``num_classes`` is the score width when there are no pairs."""
    cols = _columns([p[:3] for p in pairs], ("image_id", "human_box", "object_box"))
    scores = [p[3:] for p in pairs] or np.zeros((0, num_classes))
    return Detections(**cols, score=np.array(scores, dtype=np.float64))


def ground_truths(rows):
    """``GroundTruths`` from (image_id, human Box, object Box, hoi_id) rows."""
    return GroundTruths(**_columns(rows, ("image_id", "human_box", "object_box", "hoi_id")))


def scored(row, *scores):
    """The pair of a (image_id, human Box, object Box, ...) row, with ``scores``."""
    return row[:3] + scores


def as_rows(table):
    """One object per row, with ``Box`` boxes, as the per-row code took them;
    a detection pair gives one row per class, pairs first."""
    cols = {f.name: getattr(table, f.name).tolist() for f in fields(table)}
    if isinstance(table, Detections):
        scores = cols.pop("score")
        cols = {k: [v for v in col for _ in scores[0]] for k, col in cols.items()}
        cols["hoi_id"] = [c for row in scores for c in range(len(row))]
        cols["score"] = [v for row in scores for v in row]
    return [
        SimpleNamespace(**{k: Box(*v) if k.endswith("_box") else v for k, v in zip(cols, row)})
        for row in zip(*cols.values())
    ]


def concat(a, b):
    return type(a)(**{f.name: np.concatenate([getattr(a, f.name), getattr(b, f.name)])
                      for f in fields(a)})


def assert_tables_equal(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype, f.name
        np.testing.assert_array_equal(x, y, err_msg=f.name)


# ---- independent oracle: scalar greedy matcher + textbook AP ----

def oracle_iou(a, b):
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    if inter == 0:
        return 0.0
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def oracle_ap_for_class(dets, gts, c, threshold=0.5):
    """Greedy match in score order, textbook all-points AP via max-precision scan."""
    cls_dets = sorted(
        [d for d in dets if d.hoi_id == c], key=lambda d: -d.score
    )
    cls_gts = [g for g in gts if g.hoi_id == c]
    if not cls_gts:
        return None
    used = [False] * len(cls_gts)
    flags = []
    for det in cls_dets:
        best, best_iou = -1, 0.0
        for gi, gt in enumerate(cls_gts):
            if used[gi] or gt.image_id != det.image_id:
                continue
            piou = min(
                oracle_iou(det.human_box, gt.human_box),
                oracle_iou(det.object_box, gt.object_box),
            )
            if piou >= threshold and piou > best_iou:
                best, best_iou = gi, piou
        if best >= 0:
            used[best] = True
            flags.append(True)
        else:
            flags.append(False)
    if not flags:
        return 0.0
    precisions, recalls = [], []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        tp += int(flag)
        precisions.append(tp / k)
        recalls.append(tp / len(cls_gts))
    ap = 0.0
    prev_r = 0.0
    for k in range(len(flags)):
        r = recalls[k]
        if r > prev_r:
            p_best = max(precisions[j] for j in range(len(flags)) if recalls[j] >= r)
            ap += (r - prev_r) * p_best
            prev_r = r
    return ap


def random_micro_case(rng, num_images=3, num_classes=3, max_items=5):
    def rand_box():
        # keep a margin so jittered copies stay non-negative
        x1, y1 = rng.uniform(10, 60, 2)
        return Box(x1, y1, x1 + rng.uniform(8, 40), y1 + rng.uniform(8, 40))

    gts = [
        (int(rng.integers(num_images)), rand_box(), rand_box(), int(rng.integers(num_classes)))
        for _ in range(int(rng.integers(1, max_items + 1)))
    ]
    pairs = []
    for _ in range(int(rng.integers(0, max_items + 1))):
        if gts and rng.random() < 0.6:
            image_id, human, obj, _ = gts[int(rng.integers(len(gts)))]
            pairs.append((
                image_id,
                shift(human, rng.uniform(-6, 6), rng.uniform(-6, 6)),
                shift(obj, rng.uniform(-6, 6), rng.uniform(-6, 6)),
                *rng.random(num_classes),
            ))
        else:
            pairs.append((int(rng.integers(num_images)), rand_box(), rand_box(),
                          *rng.random(num_classes)))
    return detections(pairs, num_classes), ground_truths(gts)


def micro_space(num_classes=3):
    defs = tuple(((c,), c) for c in range(num_classes))
    return build_space(defs)


# ---- legacy oracle: the per-row greedy matcher that ``evaluate`` replaced ----
# Same arithmetic in the same order, so per-class AP must agree bit for bit.

def iou(a: Box, b: Box) -> float:
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


def pair_iou(det_h: Box, det_o: Box, gt_h: Box, gt_o: Box) -> float:
    """min of human-box IoU and object-box IoU; >= t iff both are >= t."""
    return min(iou(det_h, gt_h), iou(det_o, gt_o))


def _match_class(dets, gts, threshold: float) -> np.ndarray:
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


def legacy_evaluate(dets, gts, space, mode="default", iou_threshold=IOU_THRESHOLD) -> np.ndarray:
    """Per-class AP (NaN without ground truth) of the per-row implementation."""
    dets, gts = as_rows(dets), as_rows(gts)
    dets_by_class, gts_by_class = {}, {}
    for det in dets:
        dets_by_class.setdefault(det.hoi_id, []).append(det)
    for gt in gts:
        gts_by_class.setdefault(gt.hoi_id, []).append(gt)
    if mode == "known_object":
        obj_by_hoi = space.objects_by_hoi()
        images_with_object = {o: set() for o in range(space.num_objects)}
        for gt in gts:
            images_with_object[int(obj_by_hoi[gt.hoi_id])].add(gt.image_id)
    ap = np.full(space.num_hois, np.nan)
    for c in range(space.num_hois):
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
    return ap


def assert_matches_legacy(dets, gts, space, **kwargs):
    new = evaluate(dets, gts, space, **kwargs).ap
    old = legacy_evaluate(dets, gts, space, **kwargs)
    assert np.array_equal(new, old, equal_nan=True), (new, old)
    return new


class TestIou:
    @staticmethod
    def one(a, b):
        return box_iou(np.array([a]), np.array([b]))[0]

    def test_identical(self):
        box = Box(3, 4, 10, 12)
        assert self.one(box, box) == 1.0

    def test_disjoint(self):
        assert self.one(Box(0, 0, 5, 5), Box(10, 10, 20, 20)) == 0.0

    def test_hand_geometry(self):
        # overlap 1x2 = 2; union 4 + 4 - 2 = 6
        assert self.one(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        a, b = [], []
        for _ in range(50):
            x1, y1 = rng.uniform(0, 30, 2)
            a.append(Box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30)))
            x1, y1 = rng.uniform(0, 30, 2)
            b.append(Box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30)))
        got = box_iou(np.array(a), np.array(b))
        for k in range(50):
            assert got[k] == pytest.approx(oracle_iou(a[k], b[k]))
            assert got[k] == iou(a[k], b[k])  # bitwise, as the legacy matcher computed it


class TestEvaluate:
    def test_perfect_detection(self):
        space = micro_space(2)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        report = evaluate(detections([scored(gt, 0.9, 0.9)]), ground_truths([gt]), space)
        assert report.ap[0] == 1.0
        assert np.isnan(report.ap[1])
        assert report.map_full == 1.0

    def test_both_boxes_must_pass(self):
        space = micro_space(1)
        gts = ground_truths([(0, Box(0, 0, 10, 10), Box(0, 0, 10, 10), 0)])
        # human box IoU 2/3 > 0.5 but object box IoU ~0.25 < 0.5
        dets = detections([(0, Box(0, 0, 10, 15), Box(0, 0, 20, 20), 0.9)])
        report = evaluate(dets, gts, space)
        assert report.ap[0] == 0.0

    def test_random_micro_cases_match_oracle(self):
        rng = np.random.default_rng(12)
        space = micro_space(3)
        for _ in range(100):
            dets, gts = random_micro_case(rng)
            report = evaluate(dets, gts, space)
            for c in range(3):
                want = oracle_ap_for_class(as_rows(dets), as_rows(gts), c)
                if want is None:
                    assert np.isnan(report.ap[c])
                else:
                    assert report.ap[c] == pytest.approx(want), (c, dets, gts)

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(21)
        space = micro_space(3)
        for _ in range(30):
            dets, gts = random_micro_case(rng)
            base = evaluate(dets, gts, space)
            # strictly monotone map: 0.1 + 3 * s^2 keeps the order
            warped = replace(dets, score=0.1 + 3 * dets.score**2)
            again = evaluate(warped, gts, space)
            np.testing.assert_allclose(again.ap, base.ap, equal_nan=True)

    def test_fp_above_tps_never_helps(self):
        rng = np.random.default_rng(30)
        space = micro_space(2)
        for _ in range(20):
            dets, gts = random_micro_case(rng, num_classes=2)
            base = evaluate(dets, gts, space)
            spoiled = concat(dets, detections([(99, Box(0, 0, 1, 1), Box(5, 5, 6, 6), 2.0, 2.0)]))
            worse = evaluate(spoiled, gts, space)
            for c in range(2):
                if not np.isnan(base.ap[c]):
                    assert worse.ap[c] <= base.ap[c] + 1e-12

    def test_tp_appended_below_never_hurts(self):
        space = micro_space(1)
        rows = [
            (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0),
            (1, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0),
        ]
        gts = ground_truths(rows)
        dets = detections([scored(rows[0], 0.9)])
        base = evaluate(dets, gts, space)
        more = concat(dets, detections([scored(rows[1], 0.1)]))
        better = evaluate(more, gts, space)
        assert better.ap[0] >= base.ap[0]

    def test_empty_detections(self):
        space = micro_space(2)
        gts = ground_truths([(0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)])
        report = evaluate(detections([]), gts, space)
        assert report.ap[0] == 0.0
        assert np.isnan(report.ap[1])
        assert report.map_full == 0.0

    @pytest.mark.parametrize("mode", EVAL_MODES)
    def test_empty_ground_truths(self, mode):
        box = Box(0, 0, 10, 10)
        report = evaluate(detections([(0, box, box, 0.5, 0.25)]), ground_truths([]),
                          micro_space(2), mode=mode)
        assert np.isnan(report.ap).all() and np.isnan(report.map_full)

    def test_partition_means(self):
        space = micro_space(3)
        rows = [
            (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0),
            (0, Box(30, 0, 40, 10), Box(40, 0, 50, 10), 1),
        ]
        dets = detections([
            scored(rows[0], 0.9, 0.0, 0.0),
            (0, Box(60, 60, 70, 70), Box(80, 80, 90, 90), 0.0, 0.8, 0.0),
        ])
        part = {"rare": frozenset({0}), "nonrare": frozenset({1, 2})}
        report = evaluate(dets, ground_truths(rows), space, partition=part)
        assert report.map_rare == 1.0
        assert report.map_nonrare == 0.0  # class 1 failed, class 2 skipped (no GT)
        assert report.map_full == 0.5

    def test_counts_drive_default_partition(self):
        space = micro_space(2)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        part = frequency_partition(np.array([3, 50]), rare_threshold=10)
        report = evaluate(detections([scored(gt, 0.9, 0.0)]), ground_truths([gt]), space,
                          partition=part)
        assert report.map_rare == 1.0

    def test_known_object_restricts_pool(self):
        space = micro_space(2)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        dets = detections([
            scored(gt, 0.9, 0.0),
            # image 7 has no GT with object 0: counted in default, dropped in KO
            (7, Box(0, 0, 9, 9), Box(11, 0, 19, 9), 0.95, 0.0),
        ])
        default = evaluate(dets, ground_truths([gt]), space, mode="default")
        ko = evaluate(dets, ground_truths([gt]), space, mode="known_object")
        assert default.ap[0] == pytest.approx(0.5)
        assert ko.ap[0] == 1.0

    def test_unknown_hoi_id(self):
        space = micro_space(2)
        with pytest.raises(UnknownHoiId):
            evaluate(detections([]),
                     ground_truths([(0, Box(0, 0, 1, 1), Box(2, 2, 3, 3), 9)]), space)

    @pytest.mark.parametrize("width", [1, 3])
    def test_score_width_must_match_space(self, width):
        # scored in another label space, the columns would mean other classes
        dets = detections([(0, Box(0, 0, 1, 1), Box(2, 2, 3, 3)) + (0.5,) * width])
        with pytest.raises(DimensionMismatch, match=f"{width} classes, the label space has 2"):
            evaluate(dets, ground_truths([]), micro_space(2))

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            evaluate(detections([]), ground_truths([]), micro_space(1), mode="sideways")


class TestLegacyOracle:
    """``evaluate`` against ``legacy_evaluate``: per-class AP equal bit for bit."""

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_random_micro_cases(self, mode, threshold):
        rng = np.random.default_rng(12)
        space = micro_space(3)
        for _ in range(100):
            dets, gts = random_micro_case(rng)
            assert_matches_legacy(dets, gts, space, mode=mode, iou_threshold=threshold)

    @pytest.mark.parametrize("mode", EVAL_MODES)
    def test_crowded_cases_with_ties(self, mode):
        # many detections per ground truth, scores rounded to force ties;
        # runs of over 16 equal scores, where an unstable sort reorders them
        rng = np.random.default_rng(5)
        space = micro_space(2)
        for _ in range(40):
            dets, gts = random_micro_case(rng, num_images=2, num_classes=2, max_items=60)
            dets = replace(dets, score=np.round(dets.score, 1))
            assert_matches_legacy(dets, gts, space, mode=mode)

    def test_tied_scores_keep_input_order(self):
        # the tied pair: the first in pair order takes the ground truth
        space = micro_space(1)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        near = (0, Box(0, 0, 10, 11), Box(10, 0, 20, 10), 0)
        far = (0, Box(50, 50, 60, 60), Box(70, 70, 80, 80), 0)
        ap_hit_first = assert_matches_legacy(
            detections([scored(near, 0.5), scored(far, 0.5)]), ground_truths([gt]), space)
        ap_hit_second = assert_matches_legacy(
            detections([scored(far, 0.5), scored(near, 0.5)]), ground_truths([gt]), space)
        assert ap_hit_first[0] == 1.0
        assert ap_hit_second[0] == 0.5

    def test_duplicate_detections(self):
        # the second copy finds its ground truth taken: a false positive
        space = micro_space(1)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        ap = assert_matches_legacy(detections([scored(gt, 0.7), scored(gt, 0.7), scored(gt, 0.2)]),
                                   ground_truths([gt]), space)
        assert ap[0] == 1.0
        ap = assert_matches_legacy(detections([scored(gt, 0.7), scored(gt, 0.7)]),
                                   ground_truths([gt, (1,) + gt[1:]]), space)
        assert ap[0] == 0.5

    def test_two_identical_ground_truths_in_one_image(self):
        space = micro_space(1)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        det = (0, Box(1, 0, 10, 10), Box(10, 0, 20, 10), 0)
        gts = ground_truths([gt, gt])
        ap = assert_matches_legacy(detections([scored(det, 0.9), scored(det, 0.8)]), gts, space)
        assert ap[0] == 1.0
        ap = assert_matches_legacy(detections([scored(det, 0.9)]), gts, space)
        assert ap[0] == 0.5

    def test_equal_pair_iou_goes_to_first_ground_truth(self):
        # the first detection lies midway between two ground truths; taking
        # the first leaves the second detection nothing above the threshold
        space = micro_space(1)
        obj = Box(30, 0, 40, 10)
        gts = ground_truths([(0, Box(8, 0, 18, 10), obj, 0), (0, Box(12, 0, 22, 10), obj, 0)])
        dets = detections([(0, Box(10, 0, 20, 10), obj, 0.9),
                           (0, Box(6, 0, 16, 10), obj, 0.8)])
        ap = assert_matches_legacy(dets, gts, space)
        assert ap[0] == 0.5

    def test_threshold_zero_needs_overlap(self):
        # at threshold 0 a pair IoU of exactly 0 still does not match
        space = micro_space(1)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        touching = (0, Box(10, 0, 20, 10), Box(10, 0, 20, 10), 0.9)
        ap = assert_matches_legacy(detections([touching]), ground_truths([gt]), space,
                                   iou_threshold=0.0)
        assert ap[0] == 0.0
        slight = (0, Box(9, 0, 20, 10), Box(10, 0, 20, 10), 0.9)
        ap = assert_matches_legacy(detections([slight]), ground_truths([gt]), space,
                                   iou_threshold=0.0)
        assert ap[0] == 1.0

    def test_threshold_one_needs_identical_boxes(self):
        space = micro_space(1)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        close = (0, Box(0, 0, 10, 10.5), Box(10, 0, 20, 10), 0.9)
        ap = assert_matches_legacy(detections([close, scored(gt, 0.5)]), ground_truths([gt]), space,
                                   iou_threshold=1.0)
        assert ap[0] == 0.5

    def test_known_object_pool(self):
        # class 1 shares object 0 with class 0; class 2's object is absent
        space = build_space((((0,), 0), ((1,), 0), ((2,), 1)))
        box, far = Box(0, 0, 10, 10), Box(50, 50, 60, 60)
        gts = ground_truths([(0, box, box, 0), (1, box, box, 2)])
        dets = detections([
            (0, box, box, 0.0, 0.9, 0.0),  # image 0 holds object 0: in class 1's pool
            (1, far, far, 0.0, 0.8, 0.0),  # image 1 does not; a miss in class 2's pool
            (2, box, box, 0.7, 0.0, 0.0),  # no ground truth in image 2 at all
            (0, box, box, 0.6, 0.0, 0.0),
        ])
        ap = assert_matches_legacy(dets, gts, space, mode="known_object")
        assert ap[0] == 1.0 and np.isnan(ap[1]) and ap[2] == 0.0


class TestTables:
    def test_nan_score_rejected_at_construction(self):
        # passed straight to evaluate, a nan score would scramble the sort
        box = Box(0, 0, 10, 10)
        with pytest.raises(NonFiniteInput, match="score pair 1, class 2: non-finite score nan"):
            detections([(0, box, box, 0.5, 0.5, 0.5), (0, box, box, 0.5, 0.5, float("nan"))])

    @pytest.mark.parametrize("table, width", [(detections, 5), (ground_truths, 4)])
    def test_negative_box_rejected_at_construction(self, table, width):
        box = Box(0, 0, 1, 1)
        good = table([(0, box, box, 0, 0.5)[:width]] * 2)
        bad = np.array([[0.0, 0.0, 1.0, 1.0], [-1.0, 0.0, 5.0, 5.0]])
        with pytest.raises(InvalidBox, match="object_box row 1: negative coordinates"):
            replace(good, object_box=bad)

    def test_columns_must_agree(self):
        good = detections([(0, Box(0, 0, 1, 1), Box(0, 0, 1, 1), 0.5, 0.5)])
        with pytest.raises(DimensionMismatch, match="object_box"):
            replace(good, object_box=np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch, match="human_box"):
            replace(good, human_box=[[0.0, 0.0, 1.0, 1.0]])

    @pytest.mark.parametrize("score", [
        np.array([0.5, 0.5]),                  # not 2-D
        np.full((1, 2, 1), 0.5),
        np.full((1, 2), 0.5, dtype=np.float32),
        np.full((2, 2), 0.5),                  # a row count other than the pair count
        np.full((0, 2), 0.5),
    ])
    def test_score_is_a_pairs_by_classes_matrix(self, score):
        good = detections([(0, Box(0, 0, 1, 1), Box(0, 0, 1, 1), 0.5, 0.5)])
        with pytest.raises(DimensionMismatch, match="score is"):
            replace(good, score=score)


def batched(hits, npos):
    """``average_precisions`` of the classes whose TP flags are the rows of
    the (classes, pool length) array ``hits``."""
    hits = np.asarray(hits, dtype=bool).reshape(len(npos), -1)
    return average_precisions(*np.nonzero(hits), np.asarray(npos), hits.shape[1])


def one_class_aps(hits, npos):
    return np.array([average_precision(h, int(n)) for h, n in zip(hits, npos)])


class TestAveragePrecision:
    """``average_precisions`` against the one-class form in
    ``column_oracle``: every class's AP equal bit for bit."""

    def test_no_gt_is_nan(self, toy_space):
        # a class without ground truth never reaches the batched AP
        box = Box(0, 0, 10, 10)
        dets = detections([(0, box, box, 0.9, 0.1, 0.1)])
        ap = evaluate(dets, ground_truths([(0, box, box, 0)]), toy_space).ap
        assert ap[0] == 1.0 and np.isnan(ap[1:]).all()
        assert np.isnan(average_precision(np.array([], dtype=bool), 0))

    def test_no_dets_is_zero(self):
        assert batched(np.zeros((1, 0)), [3]).tolist() == [0.0]
        assert average_precision(np.array([], dtype=bool), 3) == 0.0

    def test_perfect_ranking(self):
        assert batched([[True, True]], [2]).tolist() == [1.0]

    def test_interleaved(self):
        # TP FP TP over 2 gts: AP = 0.5*1 + 0.5*(2/3)
        hits = np.array([[True, False, True]])
        ap = batched(hits, [2])
        assert ap[0] == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
        assert ap.tobytes() == one_class_aps(hits, [2]).tobytes()

    # numpy's pairwise sum unrolls by 8 and splits above 128 elements, and
    # 4096 / length rows share one block
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(length=st.integers(0, 3000), classes=st.integers(1, 40),
           hits=st.sampled_from(["none", "all", "random"]), seed=st.integers(0, 2**32 - 1))
    @example(length=0, classes=3, hits="none", seed=0)
    @example(length=1, classes=4100, hits="random", seed=1)  # two blocks of one-pair pools
    @example(length=7, classes=5, hits="all", seed=2)
    @example(length=8, classes=5, hits="random", seed=3)
    @example(length=9, classes=5, hits="random", seed=4)
    @example(length=127, classes=40, hits="random", seed=5)
    @example(length=128, classes=40, hits="all", seed=6)
    @example(length=129, classes=40, hits="random", seed=7)
    @example(length=1000, classes=9, hits="random", seed=8)
    @example(length=1000, classes=9, hits="none", seed=9)
    @example(length=3000, classes=3, hits="random", seed=10)
    @example(length=4097, classes=2, hits="all", seed=11)
    def test_batched_equals_one_class_form(self, length, classes, hits, seed):
        rng = np.random.default_rng(seed)
        if hits == "random":  # each class its own hit rate
            flags = rng.random((classes, length)) < rng.random((classes, 1))
        else:
            flags = np.full((classes, length), hits == "all")
        npos = flags.sum(axis=1) + rng.integers(0, 4, classes)
        npos[npos == 0] = 1  # a class in the batch has ground truth
        assert batched(flags, npos).tobytes() == one_class_aps(flags, npos).tobytes()


class TestDetectionsFromModel:
    def _setup(self, seed=0):
        cfg = DatasetConfig(
            num_verbs=3, num_objects=3,
            hoi_defs=random_hoi_defs(3, 3, 6, np.random.default_rng(1)),
            zipf_exponent=0.5, n_train=0, n_test=30, feature_dim=6,
            class_sep=4.0, noise_sigma=1.0, seed=seed,
        )
        _, test, space = generate(cfg)
        net = NetworkConfig(num_hois=space.num_hois, feature_dim=6, hidden=6, vo_hidden=6, sp_hidden=6)
        params = init_params(net, np.random.default_rng(3))
        return test, space, params

    def test_zero_thresholds_emit_every_pair(self):
        test, space, params = self._setup()
        thr = Scoring(human=0.0, object=0.0)
        dets = detections_from_model(test, params, thr)
        assert dets.score.shape == (len(test), space.num_hois)
        assert len(dets) == len(test) * space.num_hois

    def test_matches_scalar_recomputation(self):
        test, space, params = self._setup()
        thr = Scoring(human=0.6, object=0.55, fallback=0.5)
        dets = detections_from_model(test, params, thr)
        want = []
        by_image = {}
        for k in range(len(test)):
            by_image.setdefault(int(test.image_id[k]), []).append(test[k : k + 1])
        for image_id in sorted(by_image):
            insts = by_image[image_id]
            th, to = thr.human, thr.object
            kept = [i for i in insts if i.human_score[0] >= th and i.object_score[0] >= to]
            if not kept:
                kept = [
                    i for i in insts
                    if i.human_score[0] >= th * thr.fallback
                    and i.object_score[0] >= to * thr.fallback
                ]
            for inst in kept:  # each pair scored alone, as a batch of one
                spatial = spatial_vector(inst.human_box, inst.object_box)
                s_sp = sigmoid(forward_spatial_human(inst.human_feat, spatial, params))
                s_vo = sigmoid(forward_verb_object(inst.verb_feat, inst.object_feat, params))
                fused = fuse_scores(inst.human_score, inst.object_score, s_sp, s_vo)[0]
                for c in range(space.num_hois):
                    want.append((image_id, c, fused[c]))
        got = [(d.image_id, d.hoi_id, d.score) for d in as_rows(dets)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[1] == w[1]
            assert g[2] == pytest.approx(w[2], rel=1e-12)

    def test_vo_only_ignores_spatial_params(self):
        test, space, params = self._setup()
        scoring = Scoring(human=0, object=0, branch_mode="vo_only")
        dets_a = detections_from_model(test, params, scoring)
        params.sp_w1 += 1.0
        params.sp_w2 -= 0.5
        dets_b = detections_from_model(test, params, scoring)
        assert [d.score for d in as_rows(dets_a)] == [d.score for d in as_rows(dets_b)]

    def test_fallback_rescues_empty_image(self, toy_space):
        # both pairs in the image fail the cut; relaxed cut admits the stronger one
        insts = make_dataset([
            make_row(toy_space, [0], image_id=0, human_score=0.5, object_score=0.9),
            make_row(toy_space, [1], image_id=0, human_score=0.3, object_score=0.9),
        ])
        net = NetworkConfig(num_hois=3, feature_dim=4, hidden=4, vo_hidden=4, sp_hidden=4)
        params = init_params(net, np.random.default_rng(0))
        thr = Scoring(human=0.8, object=0.3, fallback=0.5)
        dets = detections_from_model(insts, params, thr)
        # relaxed human cut is 0.4: only the 0.5-score pair survives
        assert len(dets) == 1 * 3

    def test_branch_mode_validated(self):
        # the scoring settings are checked when built, before any model is scored
        with pytest.raises(InvalidConfig):
            Scoring(human=0, object=0, branch_mode="spatial")


# the benchmark workloads' label spaces and test sizes: (verbs, objects,
# classes, test pairs, learning rate)
WORKLOAD_SHAPES = {"longtail-60": (12, 10, 60, 3000, 0.01), "hico-600": (117, 80, 600, 1000, 0.001)}


@pytest.fixture(scope="module", params=sorted(WORKLOAD_SHAPES))
def trained(request):
    """A workload-shaped test split, its label space and a default-width
    model trained on it for 40 steps; at hico-600's shape some of its
    fused scores underflow to exactly 0."""
    verbs, objects, classes, n_test, lr = WORKLOAD_SHAPES[request.param]
    cfg = default_dataset_config(seed=0, num_verbs=verbs, num_objects=objects, num_hois=classes,
                                 n_train=2000, n_test=n_test)
    train_set, test_set, space = generate(cfg)
    params, _ = train(train_set, space, TrainConfig(iterations=40, lr=lr, seed=0))
    return request.param, test_set, space, params


class TestColumnOracle:
    """``evaluate`` against ``column_evaluate``, the column-join matcher it
    replaced, at the benchmark workloads' sizes: per-class AP equal bit for
    bit."""

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("scores", ["trained", "rounded", "zero_floor"])
    def test_per_class_ap(self, trained, mode, scores):
        name, test_set, space, params = trained
        dets = detections_from_model(test_set, params)
        gts = ground_truths_from_instances(test_set)
        score = dets.score
        if scores == "trained" and name == "hico-600":
            assert (score[:, np.unique(gts.hoi_id)] == 0.0).any()  # underflowed ties to rank
        if scores == "rounded":  # ties among detections of one image
            score = np.round(score, 2)
        elif scores == "zero_floor":  # a run of exact zeros in every class
            score = np.where(score < np.quantile(score, 0.3), 0.0, score)
        dets = replace(dets, score=score)
        for threshold in (IOU_THRESHOLD, 0.2):
            ap = evaluate(dets, gts, space, mode=mode, iou_threshold=threshold).ap
            want = column_evaluate(dets, gts, space, mode=mode, iou_threshold=threshold)
            assert ap.tobytes() == want.tobytes()
            assert np.isfinite(ap[np.unique(gts.hoi_id)]).all()

    @pytest.mark.parametrize("branch_mode", ["both", "vo_only", "sp_only"])
    def test_score_matrix_is_masked_sigmoid_product(self, trained, branch_mode):
        _, test_set, _, params = trained
        dets = detections_from_model(test_set, params, Scoring(branch_mode=branch_mode))
        pairs = test_set[np.argsort(test_set.image_id, kind="stable")]  # no cutoff: every pair
        s_sp = masked_sigmoid(forward_spatial_human_boxes(pairs.human_feat, pairs.human_box,
                                                          pairs.object_box, params))
        s_vo = masked_sigmoid(forward_verb_object(pairs.verb_feat, pairs.object_feat, params))
        want = plain_product(pairs.human_score, pairs.object_score, s_sp, s_vo, branch_mode)
        assert dets.score.tobytes() == want.tobytes()


class TestEvalAllocations:
    def test_scoring_and_matching_peak(self, trained):
        # traced peak of one scoring and matching pass above the memory live
        # before it, after a warm-up pass: 11.2 MB (3000 x 60) and 12.2 MB
        # (1000 x 600), bounded 20% above the larger. A verb-object forward
        # that keeps its training cache takes it to 15.0 MB (3000 x 60)
        _, test_set, space, params = trained
        gts = ground_truths_from_instances(test_set)
        peak = peak_above_live(
            lambda: evaluate(detections_from_model(test_set, params), gts, space,
                             mode="known_object"),
            warm_up=lambda: evaluate(detections_from_model(test_set, params), gts, space),
        )
        assert peak < 14.6e6, peak / 1e6

    def test_matching_peak(self, trained):
        # traced peak of one default-mode matching pass above the memory live
        # before it: 1.27 MB (3000 x 60) and 0.45 MB (1000 x 600), bounded
        # 20% above the larger. An AP that builds its three (classes x pool)
        # float arrays whole takes it to 4.5 and 3.5 MB
        _, test_set, space, params = trained
        dets, gts = detections_from_model(test_set, params), ground_truths_from_instances(test_set)
        peak = peak_above_live(lambda: evaluate(dets, gts, space),
                               warm_up=lambda: evaluate(dets, gts, space))
        assert peak < 1.52e6, peak / 1e6


def saved(tmp_path, dets, **entries):
    """The path of ``dets`` saved in ``micro_space`` of their score width,
    with each of ``entries`` set in the archive, or dropped from it where
    its value is None."""
    path = tmp_path / "dets.npz"
    save_detections(dets, micro_space(dets.score.shape[1]), path)
    for name, value in entries.items():
        replace_entry(path, name, value)
    return path


def two_pairs():
    box, far = Box(0, 0, 10, 10), Box(50, 50, 60, 60)
    return detections([(0, far, far, 0.2, 0.5), (0, box, box, 0.5, 0.5)])


class TestFiles:
    def test_detections_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        dets, _ = random_micro_case(rng, max_items=20)
        assert len(dets.image_id) > 1
        path, again = saved(tmp_path, dets), tmp_path / "again.npz"
        space = micro_space(dets.score.shape[1])
        with np.load(path) as archive:
            assert archive.files == ["image_id", "human_box", "object_box", "score",
                                     "verb_hoi", "object_hoi", "verb_names", "object_names"]
        loaded = load_detections(path, space)
        assert_tables_equal(loaded, dets)
        for f in fields(dets):
            assert getattr(loaded, f.name).tobytes() == getattr(dets, f.name).tobytes(), f.name
        save_detections(loaded, space, again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name, value", [
        ("score", None),                              # missing
        ("hoi_id", np.zeros(2, dtype=np.int64)),      # extra
    ], ids=["missing", "extra"])
    def test_archive_of_other_entries_rejected(self, tmp_path, name, value):
        with pytest.raises(ParseError, match="archive entries"):
            load_detections(saved(tmp_path, two_pairs(), **{name: value}), micro_space(2))

    def test_dataset_file_rejected(self, tmp_path, toy_space):
        path = tmp_path / "data.ds"
        save_dataset(make_row(toy_space, [0]), toy_space, path)
        with pytest.raises(ParseError, match="archive entries"):
            load_detections(path, toy_space)

    def test_file_of_another_space_rejected(self, tmp_path, toy_space):
        # as many classes, so the scores would be read as other classes' scores
        path = saved(tmp_path, two_pairs())
        for space in (micro_space(3), build_space([((0,), 0), ((1,), 0)])):
            with pytest.raises(InconsistentLabel, match="dets.npz holds another label space"):
                load_detections(path, space)

    @pytest.mark.parametrize("name, value, got", [
        ("image_id", np.zeros(2, dtype=np.int32), r"int32 \(2,\)"),
        ("score", np.full(2, 0.5), r"float64 \(2,\)"),   # one score per pair, not a matrix
        ("human_box", np.zeros((2, 5)), r"float64 \(2, 5\)"),
    ], ids=["image_id", "score", "human_box"])
    def test_column_of_another_dtype_or_shape_rejected(self, tmp_path, name, value, got):
        with pytest.raises(DimensionMismatch, match=f"{name} is {got}, expected"):
            load_detections(saved(tmp_path, two_pairs(), **{name: value}), micro_space(2))

    def test_id_outside_int64_rejected(self, tmp_path):
        # such an id can only be stored in another dtype, and only int64 loads
        ids = np.array([0, 2**63], dtype=np.uint64)
        with pytest.raises(DimensionMismatch, match="image_id is uint64"):
            load_detections(saved(tmp_path, two_pairs(), image_id=ids), micro_space(2))

    @pytest.mark.parametrize("name", ["human_box", "object_box"])
    def test_bad_box_names_column_and_row(self, tmp_path, name):
        boxes = np.array([[0.0, 0.0, 10.0, 10.0], [-1.0, 0.0, 10.0, 10.0]])
        with pytest.raises(InvalidBox, match=f"{name} row 1: negative coordinates"):
            load_detections(saved(tmp_path, two_pairs(), **{name: boxes}), micro_space(2))

    def test_non_finite_score_rejected(self, tmp_path):
        # loaded, a nan would break the score sort and misrank class 1
        for first, pair in ((np.nan, 0), (-np.inf, 0), (0.1, 1)):
            score = np.array([[0.2, first], [0.5, np.inf]])
            with pytest.raises(NonFiniteInput, match=f"score pair {pair}, class 1: non-finite"):
                load_detections(saved(tmp_path, two_pairs(), score=score), micro_space(2))

    def test_empty_file_loads(self, tmp_path):
        # an archive with no pairs
        path = saved(tmp_path, detections([], num_classes=2))
        dets = load_detections(path, micro_space(2))
        assert len(dets) == 0 and dets.image_id.shape == (0,) and dets.score.shape == (0, 2)
        report = evaluate(dets, ground_truths([(0, Box(0, 0, 1, 1), Box(0, 0, 1, 1), 1)]),
                          micro_space(2))
        assert report.map_full == 0.0 and report.ap[1] == 0.0

    def test_old_row_file_rejected(self, tmp_path):
        box = "0.0,0.0,10.0,10.0"
        path = tmp_path / "dets.tsv"
        # the text formats detections files had before they were archives
        for text in (
            f"0\t0\t0.5\t{box}\t{box}\n0\t1\t0.25\t{box}\t{box}\n",  # a line per (pair, class)
            f"0\t{box}\t{box}\t0.5,0.25\n",  # a line per pair
            "",
        ):
            path.write_text(text)
            with pytest.raises(ParseError, match=r"not a detections archive \(a zip of .npy entries\)"):
                load_detections(path, micro_space(2))

    def test_ground_truths_from_instances(self, toy_space):
        inst = make_row(toy_space, [0, 1], image_id=5)
        gts = as_rows(ground_truths_from_instances(inst))
        assert [g.hoi_id for g in gts] == [0, 1]
        assert all(g.image_id == 5 for g in gts)
        assert all(g.human_box == Box(10, 10, 110, 210) for g in gts)
        assert all(g.object_box == Box(120, 40, 260, 180) for g in gts)

    def test_report_formats(self, toy_space):
        space = micro_space(2)
        gt = (0, Box(0, 0, 10, 10), Box(10, 0, 20, 10), 0)
        part = frequency_partition(np.array([1, 20]), rare_threshold=10)
        report = evaluate(detections([scored(gt, 0.9, 0.0)]), ground_truths([gt]), space,
                          partition=part)
        text = format_report(report)
        assert "map_full=" in text and "mode=default" in text
        table = format_report_table(report, space, counts=np.array([1, 20]))
        lines = table.strip().split("\n")
        assert lines[0] == "hoi_id\tname\ttrain_count\tap"
        assert len(lines) == 3
        assert lines[2].endswith("NA")
