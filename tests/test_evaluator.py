import numpy as np
import pytest

from hoicomp.errors import InvalidBox, InvalidConfig, ParseError, UnknownHoiId
from hoicomp.evaluator import (
    Detection,
    GroundTruth,
    ThresholdConfig,
    average_precision,
    detections_from_model,
    evaluate,
    format_report,
    format_report_table,
    ground_truths_from_instances,
    iou,
    load_detections,
    save_detections,
)
from hoicomp.label_algebra import build_space
from hoicomp.network import NetworkConfig, branch_scores, fuse_scores, init_params
from hoicomp.spatial import Box2D, encode_spatial_map
from hoicomp.synthdata import DatasetConfig, generate, random_hoi_defs

from conftest import make_dataset, make_row


def shift(box, dx=0.0, dy=0.0):
    return Box2D(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy)


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
        return Box2D(x1, y1, x1 + rng.uniform(8, 40), y1 + rng.uniform(8, 40))

    gts = [
        GroundTruth(
            image_id=int(rng.integers(num_images)),
            human_box=rand_box(),
            object_box=rand_box(),
            hoi_id=int(rng.integers(num_classes)),
        )
        for _ in range(int(rng.integers(1, max_items + 1)))
    ]
    dets = []
    for _ in range(int(rng.integers(0, max_items + 1))):
        if gts and rng.random() < 0.6:
            gt = gts[int(rng.integers(len(gts)))]
            dets.append(
                Detection(
                    image_id=gt.image_id,
                    human_box=shift(gt.human_box, rng.uniform(-6, 6), rng.uniform(-6, 6)),
                    object_box=shift(gt.object_box, rng.uniform(-6, 6), rng.uniform(-6, 6)),
                    hoi_id=gt.hoi_id if rng.random() < 0.8 else int(rng.integers(num_classes)),
                    score=float(rng.random()),
                )
            )
        else:
            dets.append(
                Detection(
                    image_id=int(rng.integers(num_images)),
                    human_box=rand_box(),
                    object_box=rand_box(),
                    hoi_id=int(rng.integers(num_classes)),
                    score=float(rng.random()),
                )
            )
    return dets, gts


def micro_space(num_classes=3):
    defs = tuple(((c,), c) for c in range(num_classes))
    return build_space(defs)


class TestIou:
    def test_identical(self):
        box = Box2D(3, 4, 10, 12)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(Box2D(0, 0, 5, 5), Box2D(10, 10, 20, 20)) == 0.0

    def test_hand_geometry(self):
        # overlap 1x2 = 2; union 4 + 4 - 2 = 6
        assert iou(Box2D(0, 0, 2, 2), Box2D(1, 0, 3, 2)) == pytest.approx(1 / 3)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x1, y1 = rng.uniform(0, 30, 2)
            a = Box2D(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
            x1, y1 = rng.uniform(0, 30, 2)
            b = Box2D(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
            assert iou(a, b) == pytest.approx(oracle_iou(a, b))


class TestEvaluate:
    def test_perfect_detection(self):
        space = micro_space(2)
        gt = GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0)
        det = Detection(0, gt.human_box, gt.object_box, 0, 0.9)
        report = evaluate([det], [gt], space)
        assert report.ap[0] == 1.0
        assert np.isnan(report.ap[1])
        assert report.map_full == 1.0

    def test_both_boxes_must_pass(self):
        space = micro_space(1)
        gt = GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(0, 0, 10, 10), 0)
        # human box IoU 2/3 > 0.5 but object box IoU ~0.25 < 0.5
        det = Detection(0, Box2D(0, 0, 10, 15), Box2D(0, 0, 20, 20), 0, 0.9)
        report = evaluate([det], [gt], space)
        assert report.ap[0] == 0.0

    def test_random_micro_cases_match_oracle(self):
        rng = np.random.default_rng(12)
        space = micro_space(3)
        for _ in range(100):
            dets, gts = random_micro_case(rng)
            report = evaluate(dets, gts, space)
            for c in range(3):
                want = oracle_ap_for_class(dets, gts, c)
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
            warped = [
                Detection(d.image_id, d.human_box, d.object_box, d.hoi_id, 0.1 + 3 * d.score**2)
                for d in dets
            ]
            again = evaluate(warped, gts, space)
            np.testing.assert_allclose(again.ap, base.ap, equal_nan=True)

    def test_fp_above_tps_never_helps(self):
        rng = np.random.default_rng(30)
        space = micro_space(2)
        for _ in range(20):
            dets, gts = random_micro_case(rng, num_classes=2)
            base = evaluate(dets, gts, space)
            spoiled = dets + [
                Detection(99, Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6), 0, 2.0)
            ]
            worse = evaluate(spoiled, gts, space)
            for c in range(2):
                if not np.isnan(base.ap[c]):
                    assert worse.ap[c] <= base.ap[c] + 1e-12

    def test_tp_appended_below_never_hurts(self):
        space = micro_space(1)
        gts = [
            GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0),
            GroundTruth(1, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0),
        ]
        dets = [Detection(0, gts[0].human_box, gts[0].object_box, 0, 0.9)]
        base = evaluate(dets, gts, space)
        more = dets + [Detection(1, gts[1].human_box, gts[1].object_box, 0, 0.1)]
        better = evaluate(more, gts, space)
        assert better.ap[0] >= base.ap[0]

    def test_empty_detections(self):
        space = micro_space(2)
        gts = [GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0)]
        report = evaluate([], gts, space)
        assert report.ap[0] == 0.0
        assert np.isnan(report.ap[1])
        assert report.map_full == 0.0

    def test_partition_means(self):
        space = micro_space(3)
        gts = [
            GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0),
            GroundTruth(0, Box2D(30, 0, 40, 10), Box2D(40, 0, 50, 10), 1),
        ]
        dets = [
            Detection(0, gts[0].human_box, gts[0].object_box, 0, 0.9),
            Detection(0, Box2D(60, 60, 70, 70), Box2D(80, 80, 90, 90), 1, 0.8),
        ]
        part = {"rare": frozenset({0}), "nonrare": frozenset({1, 2})}
        report = evaluate(dets, gts, space, partition=part)
        assert report.map_rare == 1.0
        assert report.map_nonrare == 0.0  # class 1 failed, class 2 skipped (no GT)
        assert report.map_full == 0.5

    def test_counts_drive_default_partition(self):
        space = micro_space(2)
        gts = [GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0)]
        dets = [Detection(0, gts[0].human_box, gts[0].object_box, 0, 0.9)]
        report = evaluate(dets, gts, space, counts=np.array([3, 50]), rare_threshold=10)
        assert report.map_rare == 1.0

    def test_known_object_restricts_pool(self):
        space = micro_space(2)
        gts = [GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0)]
        dets = [
            Detection(0, gts[0].human_box, gts[0].object_box, 0, 0.9),
            # image 7 has no GT with object 0: counted in default, dropped in KO
            Detection(7, Box2D(0, 0, 9, 9), Box2D(11, 0, 19, 9), 0, 0.95),
        ]
        default = evaluate(dets, gts, space, mode="default")
        ko = evaluate(dets, gts, space, mode="known_object")
        assert default.ap[0] == pytest.approx(0.5)
        assert ko.ap[0] == 1.0

    def test_unknown_hoi_id(self):
        space = micro_space(2)
        with pytest.raises(UnknownHoiId):
            evaluate([Detection(0, Box2D(0, 0, 1, 1), Box2D(2, 2, 3, 3), 9, 0.5)], [], space)
        with pytest.raises(UnknownHoiId):
            evaluate([], [GroundTruth(0, Box2D(0, 0, 1, 1), Box2D(2, 2, 3, 3), 9)], space)

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            evaluate([], [], micro_space(1), mode="sideways")


class TestAveragePrecision:
    def test_no_gt_is_nan(self):
        assert np.isnan(average_precision(np.array([], dtype=bool), 0))

    def test_no_dets_is_zero(self):
        assert average_precision(np.array([], dtype=bool), 3) == 0.0

    def test_perfect_ranking(self):
        assert average_precision(np.array([True, True]), 2) == 1.0

    def test_interleaved(self):
        # TP FP TP over 2 gts: AP = 0.5*1 + 0.5*(2/3)
        ap = average_precision(np.array([True, False, True]), 2)
        assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))


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
        thr = ThresholdConfig(human=0.0, object=0.0)
        dets = detections_from_model(test, params, thr)
        assert len(dets) == len(test) * space.num_hois

    def test_matches_scalar_recomputation(self):
        test, space, params = self._setup()
        thr = ThresholdConfig(human=0.6, object=0.55, fallback=0.5)
        dets = detections_from_model(test, params, thr)
        want = []
        by_image = {}
        for k in range(len(test)):
            by_image.setdefault(int(test.image_id[k]), []).append(test[k])
        for image_id in sorted(by_image):
            insts = by_image[image_id]
            th, to = thr.human, thr.object
            kept = [i for i in insts if i.human_score >= th and i.object_score >= to]
            if not kept:
                kept = [
                    i for i in insts
                    if i.human_score >= th * thr.fallback and i.object_score >= to * thr.fallback
                ]
            for inst in kept:
                scores = branch_scores(
                    params, inst.human_feat, inst.verb_feat, inst.object_feat,
                    encode_spatial_map(Box2D(*inst.human_box), Box2D(*inst.object_box)),
                )
                fused = fuse_scores(inst.human_score, inst.object_score, scores)
                for c in range(space.num_hois):
                    want.append((inst.image_id, c, fused[c]))
        got = [(d.image_id, d.hoi_id, d.score) for d in dets]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[1] == w[1]
            assert g[2] == pytest.approx(w[2], rel=1e-12)

    def test_vo_only_ignores_spatial_params(self):
        test, space, params = self._setup()
        dets_a = detections_from_model(test, params, ThresholdConfig(0, 0), branch_mode="vo_only")
        params.sp_w1 += 1.0
        params.sp_w2 -= 0.5
        dets_b = detections_from_model(test, params, ThresholdConfig(0, 0), branch_mode="vo_only")
        assert [d.score for d in dets_a] == [d.score for d in dets_b]

    def test_fallback_rescues_empty_image(self, toy_space):
        # both pairs in the image fail the cut; relaxed cut admits the stronger one
        insts = make_dataset([
            make_row(toy_space, [0], image_id=0, human_score=0.5, object_score=0.9),
            make_row(toy_space, [1], image_id=0, human_score=0.3, object_score=0.9),
        ])
        net = NetworkConfig(num_hois=3, feature_dim=4, hidden=4, vo_hidden=4, sp_hidden=4)
        params = init_params(net, np.random.default_rng(0))
        thr = ThresholdConfig(human=0.8, object=0.3, fallback=0.5)
        dets = detections_from_model(insts, params, thr)
        # relaxed human cut is 0.4: only the 0.5-score pair survives
        assert len(dets) == 1 * 3

    def test_branch_mode_validated(self, toy_space):
        insts = make_row(toy_space, [0])
        net = NetworkConfig(num_hois=3, feature_dim=4, hidden=4, vo_hidden=4, sp_hidden=4)
        params = init_params(net, np.random.default_rng(0))
        with pytest.raises(InvalidConfig):
            detections_from_model(insts, params, ThresholdConfig(0, 0), branch_mode="spatial")


class TestFiles:
    def test_detections_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        dets, _ = random_micro_case(rng)
        path = tmp_path / "dets.tsv"
        save_detections(dets, path)
        loaded = load_detections(path)
        assert loaded == dets

    def test_non_finite_score_rejected(self, tmp_path):
        # loaded, the nan broke the score sort and gave class 0 an AP of 1.0, not 0.5
        gt = "0.0,0.0,10.0,10.0\t10.0,0.0,20.0,10.0"
        far = "50.0,50.0,60.0,60.0\t50.0,50.0,60.0,60.0"
        path = tmp_path / "dets.tsv"
        for first, line in (("nan", 1), ("-inf", 1), ("0.1", 3)):
            path.write_text(f"0\t0\t{first}\t{far}\n0\t0\t0.5\t{gt}\n0\t0\tinf\t{far}\n")
            with pytest.raises(ParseError) as err:
                load_detections(path)
            assert (err.value.line, err.value.column) == (line, 3)

    @pytest.mark.parametrize("column", [4, 5])
    def test_bad_box_names_line_and_column(self, tmp_path, column):
        good = "0.0,0.0,10.0,10.0"
        fields = [good, good]
        fields[column - 4] = "-1.0,0.0,10.0,10.0"
        path = tmp_path / "dets.tsv"
        path.write_text(f"0\t0\t0.5\t{good}\t{good}\n0\t0\t0.5\t" + "\t".join(fields) + "\n")
        with pytest.raises(InvalidBox, match=f"line 2, column {column}: negative coordinates"):
            load_detections(path)

    def test_ground_truths_from_instances(self, toy_space):
        inst = make_row(toy_space, [0, 1], image_id=5)
        gts = ground_truths_from_instances(inst)
        assert [g.hoi_id for g in gts] == [0, 1]
        assert all(g.image_id == 5 for g in gts)
        assert all(g.human_box == Box2D(10, 10, 110, 210) for g in gts)
        assert all(g.object_box == Box2D(120, 40, 260, 180) for g in gts)

    def test_report_formats(self, toy_space):
        space = micro_space(2)
        gts = [GroundTruth(0, Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10), 0)]
        dets = [Detection(0, gts[0].human_box, gts[0].object_box, 0, 0.9)]
        report = evaluate(dets, gts, space, counts=np.array([1, 20]))
        text = format_report(report)
        assert "map_full=" in text and "mode=default" in text
        table = format_report_table(report, space, counts=np.array([1, 20]))
        lines = table.strip().split("\n")
        assert lines[0] == "hoi_id\tname\ttrain_count\tap"
        assert len(lines) == 3
        assert lines[2].endswith("NA")
