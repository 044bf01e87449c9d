import json
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from hoicomp import network
from hoicomp.errors import (
    DegenerateBox,
    DimensionMismatch,
    EmptyBatch,
    InvalidConfig,
    NonFiniteGradient,
    NonFiniteInput,
    NonFiniteLoss,
    OutOfRange,
    ParseError,
)
from hoicomp.network import (
    BLOCK_NAMES,
    FLAT_BLOCK,
    CompBatch,
    LossWeights,
    ModelParams,
    NetworkConfig,
    RealBatch,
    block_shapes,
    forward_spatial_human,
    forward_spatial_human_boxes,
    forward_verb_object,
    fuse_scores,
    init_params,
    inverse_log_weights,
    load_params,
    loss_and_grads,
    save_params,
    sigmoid,
    spatial_input_scale,
)
from hoicomp.spatial import GRID_SIZE, cell_spans, spatial_vector

from conftest import peak_above_live
from test_spatial import EDGE_CASES, FULL, broadcast_raster, lattice_pairs, random_boxes

TINY = NetworkConfig(num_hois=5, feature_dim=3, hidden=3, vo_hidden=4, sp_hidden=3, spatial_dim=6)


def tiny_params(seed=0, cfg=TINY):
    return init_params(cfg, np.random.default_rng(seed))


def save_unbuilt(path, **widths):
    """Save zero-filled parameters of the network ``widths`` describes with
    ``save_params`` but no ``NetworkConfig``, so widths it refuses get in."""
    cfg = SimpleNamespace(**widths)
    size = sum(int(np.prod(shape)) for shape in block_shapes(cfg).values())
    save_params(SimpleNamespace(cfg=cfg, flat=np.zeros(size)), path)


def random_real(rng, n=3, cfg=TINY):
    return RealBatch(
        human_feat=rng.standard_normal((n, cfg.feature_dim)),
        verb_feat=rng.standard_normal((n, cfg.feature_dim)),
        object_feat=rng.standard_normal((n, cfg.feature_dim)),
        spatial=(rng.random((n, cfg.spatial_dim)) < 0.5).astype(np.float64),
        label=(rng.random((n, cfg.num_hois)) < 0.4).astype(np.float64),
    )


def random_comp(rng, m, cfg=TINY):
    return CompBatch(
        verb_feat=rng.standard_normal((m, cfg.feature_dim)),
        object_feat=rng.standard_normal((m, cfg.feature_dim)),
        label=(rng.random((m, cfg.num_hois)) < 0.4).astype(np.float64),
        verb_src=np.arange(m),
        object_src=np.arange(m)[::-1],
    )


def random_weights(rng, cfg=TINY):
    """(loss weights, class weights of mean 1)."""
    w = rng.uniform(0.2, 3.0, cfg.num_hois)
    lw = LossWeights(lambda1=float(rng.uniform(0, 3)), lambda2=float(rng.uniform(0, 3)))
    return lw, w / w.mean()


# ---- straight-line references, scalar loops only ----

def ref_linear(x, w, b):
    out = [b[j] + sum(x[i] * w[i][j] for i in range(len(x))) for j in range(len(b))]
    return [v if v > 0 else 0.0 for v in out], out


def ref_vo_logits(verb, obj, p):
    sv, _ = ref_linear(list(verb), p.shared_w.tolist(), p.shared_b.tolist())
    so, _ = ref_linear(list(obj), p.obj_w.tolist(), p.obj_b.tolist())
    z = sv + so
    h1, _ = ref_linear(z, p.vo_w1.tolist(), p.vo_b1.tolist())
    h2, _ = ref_linear(h1, p.vo_w2.tolist(), p.vo_b2.tolist())
    _, logits = ref_linear(h2, p.vo_w3.tolist(), p.vo_b3.tolist())
    return np.array(logits)


def ref_sp_logits(human, smap, p):
    sh, _ = ref_linear(list(human), p.shared_w.tolist(), p.shared_b.tolist())
    hidden = p.shared_w.shape[1]
    spatial_dim = p.sp_w1.shape[0] - hidden
    scale = (hidden / spatial_dim) ** 0.5
    z = sh + [scale * v for v in smap]
    h, _ = ref_linear(z, p.sp_w1.tolist(), p.sp_b1.tolist())
    _, logits = ref_linear(h, p.sp_w2.tolist(), p.sp_b2.tolist())
    return np.array(logits)


def ref_bce_term(logits_rows, labels_rows, w):
    total = 0.0
    for logits, labels in zip(logits_rows, labels_rows):
        for c in range(len(w)):
            z, y = logits[c], labels[c]
            p = 1.0 / (1.0 + np.exp(-z))
            total += w[c] * -(y * np.log(p) + (1 - y) * np.log(1 - p))
    return total / len(logits_rows)


def ref_loss(real, comp, p, lw, w):
    sp_rows = [ref_sp_logits(real.human_feat[i], real.spatial[i], p) for i in range(len(real))]
    vo_rows = [ref_vo_logits(real.verb_feat[i], real.object_feat[i], p) for i in range(len(real))]
    total = ref_bce_term(sp_rows, real.label, w) + lw.lambda1 * ref_bce_term(vo_rows, real.label, w)
    if len(comp):
        comp_rows = [ref_vo_logits(comp.verb_feat[i], comp.object_feat[i], p) for i in range(len(comp))]
        total += lw.lambda2 * ref_bce_term(comp_rows, comp.label, w)
    return total


def total_loss(real, comp, params, lw, w):
    return loss_and_grads(real, comp, params, lw, w)[0]


def fd_grads(real, comp, params, lw, w, h=1e-4):
    grads = {}
    for name, arr in params.blocks().items():
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = total_loss(real, comp, params, lw, w)
            flat[idx] = orig - h
            lm = total_loss(real, comp, params, lw, w)
            flat[idx] = orig
            gflat[idx] = (lp - lm) / (2 * h)
        grads[name] = g
    return grads


def rel_err(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    return np.linalg.norm(a - b) / max(na, nb, 1e-12)


def active_params(seed=0, cfg=TINY):
    """All-positive params so every rectifier fires on positive inputs."""
    p = tiny_params(seed, cfg)
    for arr in p.blocks().values():
        np.abs(arr, out=arr)
        arr += 0.05
    return p


# ---- whole-array references: the forms the in-place code replaced ----
# Same arithmetic in the same order, so results must agree bit for bit.

def masked_sigmoid(z):
    """Logistic by the two formulas, each on the masked half of ``z``."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def plain_product(s_h, s_o, s_sp, s_vo, branch_mode="both"):
    """The fused score as one expression, a dropped branch as a factor of 1."""
    s_h, s_o, s_sp, s_vo = (np.asarray(a, dtype=np.float64) for a in (s_h, s_o, s_sp, s_vo))
    if branch_mode == "vo_only":
        s_sp = np.ones_like(s_sp)
    elif branch_mode == "sp_only":
        s_vo = np.ones_like(s_vo)
    return s_h[:, None] * s_o[:, None] * s_vo * s_sp


def whole_array_vo_logits(verb_x, obj_x, p):
    sv = np.maximum(verb_x @ p.shared_w + p.shared_b, 0.0)
    so = np.maximum(obj_x @ p.obj_w + p.obj_b, 0.0)
    h1 = np.maximum(np.concatenate([sv, so], axis=1) @ p.vo_w1 + p.vo_b1, 0.0)
    h2 = np.maximum(h1 @ p.vo_w2 + p.vo_b2, 0.0)
    return h2 @ p.vo_w3 + p.vo_b3


def whole_array_box_logits(human_x, human_box, object_box, p):
    cfg = p.cfg
    start, stop = cell_spans(human_box, object_box)
    w_map = p.sp_w1[cfg.hidden :].reshape(2, GRID_SIZE, GRID_SIZE, cfg.sp_hidden)
    table = np.zeros((2, GRID_SIZE + 1, GRID_SIZE + 1, cfg.sp_hidden))
    np.cumsum(np.cumsum(w_map, axis=1), axis=2, out=table[:, 1:, 1:])
    ch = np.arange(2)
    x0, y0, x1, y1 = start[..., 0], start[..., 1], stop[..., 0], stop[..., 1]
    rect = table[ch, y1, x1] - table[ch, y0, x1] - table[ch, y1, x0] + table[ch, y0, x0]
    sh = np.maximum(human_x @ p.shared_w + p.shared_b, 0.0)
    h_pre = sh @ p.sp_w1[: cfg.hidden] + spatial_input_scale(p) * rect.sum(axis=1)
    return np.maximum(h_pre + p.sp_b1, 0.0) @ p.sp_w2 + p.sp_b2


# logits where the two formulas meet (0.0, -0.0), where exp(-|z|) is the
# smallest subnormal (745) and where it underflows to 0 (800)
SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0]


class TestLayout:
    def test_blocks_are_views_of_flat_in_order(self):
        p = tiny_params()
        assert [f.name for f in fields(ModelParams)] == ["cfg", "flat"]
        blocks = p.blocks()
        assert list(blocks) == list(BLOCK_NAMES)
        assert {k: v.shape for k, v in blocks.items()} == block_shapes(TINY)
        assert np.concatenate([b.ravel() for b in blocks.values()]).tobytes() == p.flat.tobytes()
        before = p.flat.copy()
        p.vo_w1 += 1.0
        changed = np.flatnonzero(p.flat != before)
        start = sum(blocks[n].size for n in BLOCK_NAMES[:BLOCK_NAMES.index("vo_w1")])
        np.testing.assert_array_equal(changed, start + np.arange(blocks["vo_w1"].size))
        assert p.block_at(start) == "vo_w1" and p.block_at(start - 1) == "sp_b2"

    def test_wrong_buffer_size(self):
        with pytest.raises(DimensionMismatch):
            ModelParams(TINY, np.zeros(tiny_params().flat.size + 1))


class TestForward:
    def test_zero_weights_give_half_probability(self):
        p = tiny_params()
        zero = ModelParams(p.cfg, np.zeros_like(p.flat))
        rng = np.random.default_rng(0)
        logits = forward_verb_object(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)), zero)
        np.testing.assert_array_equal(logits, np.zeros((2, 5)))
        np.testing.assert_allclose(sigmoid(logits), 0.5)
        sp = forward_spatial_human(rng.standard_normal((2, 3)), rng.random((2, 6)), zero)
        np.testing.assert_array_equal(sp, np.zeros((2, 5)))

    def test_deterministic(self):
        p = tiny_params(1)
        rng = np.random.default_rng(2)
        v, o = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        np.testing.assert_array_equal(
            forward_verb_object(v, o, p), forward_verb_object(v.copy(), o.copy(), p)
        )

    def test_vo_matches_reference(self):
        rng = np.random.default_rng(3)
        p = tiny_params(3)
        for _ in range(10):
            v, o = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
            got = forward_verb_object(v, o, p)
            assert got.shape == (1, 5)
            np.testing.assert_allclose(got[0], ref_vo_logits(v[0], o[0], p), rtol=1e-6, atol=1e-9)

    def test_sp_matches_reference(self):
        rng = np.random.default_rng(4)
        p = tiny_params(4)
        for _ in range(10):
            h = rng.standard_normal((1, 3))
            s = (rng.random((1, 6)) < 0.5).astype(float)
            got = forward_spatial_human(h, s, p)
            assert got.shape == (1, 5)
            np.testing.assert_allclose(got[0], ref_sp_logits(h[0], s[0], p), rtol=1e-6, atol=1e-9)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        p = tiny_params(5)
        v, o = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        h, s = rng.standard_normal((4, 3)), rng.random((4, 6))
        vo, sp = forward_verb_object(v, o, p), forward_spatial_human(h, s, p)
        for i in range(4):
            one = slice(i, i + 1)
            np.testing.assert_allclose(vo[one], forward_verb_object(v[one], o[one], p))
            np.testing.assert_allclose(sp[one], forward_spatial_human(h[one], s[one], p))

    def test_dimension_mismatch(self):
        p = tiny_params()
        with pytest.raises(DimensionMismatch):
            forward_verb_object(np.zeros((1, 4)), np.zeros((1, 3)), p)
        with pytest.raises(DimensionMismatch):  # one pair is a batch of one, not a vector
            forward_verb_object(np.zeros(3), np.zeros(3), p)
        with pytest.raises(DimensionMismatch):
            forward_spatial_human(np.zeros((1, 3)), np.zeros(6), p)
        with pytest.raises(DimensionMismatch, match="row counts"):
            forward_verb_object(np.zeros((2, 3)), np.zeros((1, 3)), p)
        with pytest.raises(DimensionMismatch, match="row counts"):
            forward_spatial_human(np.zeros((2, 3)), np.zeros((1, 6)), p)

    def test_non_finite_input(self):
        p = tiny_params()
        bad = np.array([[1.0, np.nan, 0.0]])
        with pytest.raises(NonFiniteInput):
            forward_verb_object(bad, np.zeros((1, 3)), p)


class TestBoxForward:
    """``forward_spatial_human_boxes`` against the raster path it replaces in
    scoring, at the default widths (a 64x64 two-channel map)."""

    def _params(self, seed):
        return init_params(NetworkConfig(num_hois=7), np.random.default_rng(seed))

    def _assert_matches_raster(self, human_box, object_box, params, rng):
        feat = rng.standard_normal((len(human_box), params.cfg.feature_dim))
        want = forward_spatial_human(feat, spatial_vector(human_box, object_box), params)
        got = forward_spatial_human_boxes(feat, human_box, object_box, params)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_random_boxes(self):
        rng = np.random.default_rng(51)
        for n in (1, 5, 300):
            self._assert_matches_raster(random_boxes(rng, n), random_boxes(rng, n),
                                        self._params(n), rng)

    def test_edge_boxes(self):
        rng = np.random.default_rng(52)
        usable = [box for box, (x0, x1, y0, y1) in EDGE_CASES if x0 < x1 and y0 < y1]
        human, obj = np.array([FULL] * len(usable)), np.array(usable)
        self._assert_matches_raster(human, obj, self._params(0), rng)
        self._assert_matches_raster(obj, human, self._params(1), rng)
        human, obj = lattice_pairs(rng, 300)
        cells = broadcast_raster(human, obj).reshape(len(human), 2, -1)
        usable = cells.any(axis=2).all(axis=1)  # no channel without a cell
        self._assert_matches_raster(human[usable], obj[usable], self._params(2), rng)

    def test_empty_batch(self):
        none = np.empty((0, 4))
        logits = forward_spatial_human_boxes(np.empty((0, 32)), none, none, self._params(0))
        assert logits.shape == (0, 7)

    def test_errors(self):
        params = self._params(0)
        feat, box = np.zeros((1, 32)), np.array([[0.0, 0.0, 10.0, 10.0]])
        with pytest.raises(DegenerateBox, match="pair 0"):
            forward_spatial_human_boxes(feat, np.array([[0, 0, 0.01, 0.01]]),
                                        np.array([[0, 0, 1000, 1000]]), params)
        with pytest.raises(DimensionMismatch, match="row counts"):
            forward_spatial_human_boxes(np.zeros((2, 32)), box, box, params)
        with pytest.raises(DimensionMismatch):
            forward_spatial_human_boxes(feat, box[:, :3], box, params)
        with pytest.raises(NonFiniteInput):
            forward_spatial_human_boxes(feat, np.array([[0, 0, np.nan, 10.0]]), box, params)
        with pytest.raises(DimensionMismatch, match="spatial input"):  # TINY's map is 6 wide
            forward_spatial_human_boxes(np.zeros((1, 3)), box, box, tiny_params())


class TestLoss:
    def test_lambda2_zero_equals_two_term(self):
        rng = np.random.default_rng(6)
        p = tiny_params(6)
        real = random_real(rng)
        comp = random_comp(rng, 2)
        lw0, w = random_weights(rng)
        lw = LossWeights(lambda1=lw0.lambda1, lambda2=0.0)
        with_comp = total_loss(real, comp, p, lw, w)
        without = total_loss(real, None, p, lw, w)
        assert with_comp == pytest.approx(without, rel=1e-12)

    def test_zero_logits_closed_form(self):
        cfg = TINY
        zero = ModelParams(TINY, np.zeros_like(tiny_params().flat))
        real = RealBatch(
            human_feat=np.zeros((1, 3)),
            verb_feat=np.zeros((1, 3)),
            object_feat=np.zeros((1, 3)),
            spatial=np.zeros((1, 6)),
            label=np.zeros((1, 5)),
        )
        lw = LossWeights(lambda1=2.0, lambda2=0.5)
        total, comps, _ = loss_and_grads(real, None, zero, lw, np.ones(5))
        expect_term = cfg.num_hois * np.log(2.0)
        assert comps["L_sp"] == pytest.approx(expect_term, rel=1e-12)
        assert comps["L_vo"] == pytest.approx(expect_term, rel=1e-12)
        assert comps["L_comp"] == 0.0
        assert total == pytest.approx((1 + 2.0) * expect_term, rel=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = tiny_params(int(rng.integers(100)))
            real = random_real(rng, n=int(rng.integers(1, 4)))
            comp = random_comp(rng, int(rng.integers(0, 4)))
            lw, w = random_weights(rng)
            got = total_loss(real, comp, p, lw, w)
            want = ref_loss(real, comp, p, lw, w)
            assert got == pytest.approx(want, rel=1e-6)

    def test_order_invariant(self):
        rng = np.random.default_rng(8)
        p = tiny_params(8)
        real = random_real(rng, n=4)
        lw, w = random_weights(rng)
        perm = np.random.default_rng(1).permutation(4)
        shuffled = RealBatch(
            human_feat=real.human_feat[perm],
            verb_feat=real.verb_feat[perm],
            object_feat=real.object_feat[perm],
            spatial=real.spatial[perm],
            label=real.label[perm],
        )
        assert total_loss(real, None, p, lw, w) == pytest.approx(
            total_loss(shuffled, None, p, lw, w), rel=1e-12
        )

    def test_comp_branch_shares_classifier(self):
        rng = np.random.default_rng(9)
        p = tiny_params(9)
        real = random_real(rng, n=3)
        twin = CompBatch(verb_feat=real.verb_feat, object_feat=real.object_feat, label=real.label,
                         verb_src=np.arange(3), object_src=np.arange(3))
        lw = LossWeights(lambda1=1.0, lambda2=1.0)
        _, comps, _ = loss_and_grads(real, twin, p, lw, np.ones(5))
        assert comps["L_comp"] == pytest.approx(comps["L_vo"], rel=1e-12)

    def test_non_finite_loss(self):
        p = tiny_params()
        p.vo_w3[:] = np.inf
        real = random_real(np.random.default_rng(0))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
            total_loss(real, None, p, LossWeights(), np.ones(5))

    def test_empty_real_batch(self):
        real = random_real(np.random.default_rng(0), n=0)
        with pytest.raises(EmptyBatch, match="^real batch is empty$"):
            loss_and_grads(real, None, tiny_params(), LossWeights(), np.ones(5))

    @pytest.mark.parametrize("kind, name, width", [
        ("real", "spatial", 7), ("real", "human_feat", 2), ("real", "label", 6),
        ("composed", "object_feat", 4), ("composed", "label", 4),
    ])
    def test_batch_column_of_another_width(self, kind, name, width):
        # rejected as a package error before anything is computed
        rng = np.random.default_rng(0)
        batches = {"real": random_real(rng, n=2), "composed": random_comp(rng, 2)}
        want = getattr(batches[kind], name).shape[1]
        batches[kind] = replace(batches[kind], **{name: np.zeros((2, width))})
        out = ModelParams(TINY, np.full(tiny_params().flat.size, np.nan))
        message = rf"^{kind} {name} has shape \(2, {width}\), expected \(n, {want}\)$"
        with pytest.raises(DimensionMismatch, match=message):
            loss_and_grads(batches["real"], batches["composed"], tiny_params(), LossWeights(),
                           np.ones(5), out=out)
        assert np.isnan(out.flat).all()

    def test_non_finite_gradient_names_its_block(self):
        """A gradient that overflows far into the flat buffer while the loss
        stays finite: one spatial input of 1e308 that no hidden unit reads."""
        cfg = NetworkConfig(num_hois=5)
        p = init_params(cfg, np.random.default_rng(0))
        real = random_real(np.random.default_rng(1), n=2, cfg=cfg)
        k = cfg.spatial_dim - 3
        p.sp_w1[cfg.hidden + k] = 0.0
        p.sp_w2 *= 1e3
        real.spatial[0, k] = 1e308
        out = ModelParams(cfg, np.empty_like(p.flat))
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteGradient, match="^gradient block sp_w1 is non-finite$"
        ):
            loss_and_grads(real, None, p, LossWeights(), np.ones(5), out=out)
        bad = np.flatnonzero(~np.isfinite(out.flat))
        assert bad[0] > 10 * FLAT_BLOCK and out.block_at(bad[0]) == "sp_w1"


class TestBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            p = tiny_params(seed=100 + trial)
            real = random_real(rng, n=int(rng.integers(1, 4)))
            comp = random_comp(rng, int(rng.integers(0, 4)))
            lw, w = random_weights(rng)
            analytic = loss_and_grads(real, comp, p, lw, w)[2]
            numeric = fd_grads(real, comp, p, lw, w)
            for name in BLOCK_NAMES:
                assert rel_err(getattr(analytic, name), numeric[name]) < 1e-3, name

    def test_reused_out_buffer_matches_finite_differences(self):
        # one buffer across calls, as training uses it; NaN shows any element left unwritten
        rng = np.random.default_rng(15)
        out = ModelParams(TINY, np.full(tiny_params().flat.size, np.nan))
        for trial in range(5):
            p = tiny_params(seed=200 + trial)
            real = random_real(rng, n=int(rng.integers(1, 4)))
            comp = random_comp(rng, int(rng.integers(0, 4)))
            lw, w = random_weights(rng)
            assert loss_and_grads(real, comp, p, lw, w, out=out)[2] is out
            numeric = fd_grads(real, comp, p, lw, w)
            for name in BLOCK_NAMES:
                assert rel_err(getattr(out, name), numeric[name]) < 1e-3, name

    def test_out_buffer_of_another_network_is_rejected(self):
        rng = np.random.default_rng(16)
        other = NetworkConfig(num_hois=5, feature_dim=3, hidden=3, vo_hidden=4, sp_hidden=2,
                              spatial_dim=6)
        with pytest.raises(DimensionMismatch):
            loss_and_grads(random_real(rng), None, tiny_params(), *random_weights(rng),
                           out=tiny_params(cfg=other))

    @pytest.mark.parametrize("shift", [0, 1])
    def test_out_buffer_sharing_the_parameters_is_rejected(self, shift):
        # out is params' own buffer, or a window of the same array one
        # element on
        rng = np.random.default_rng(17)
        flat = tiny_params().flat
        memory = np.concatenate([flat, [0.0]])
        p = ModelParams(TINY, memory[: flat.size])
        out = ModelParams(TINY, memory[shift : shift + flat.size])
        with pytest.raises(DimensionMismatch, match="shares memory"):
            loss_and_grads(random_real(rng), None, p, *random_weights(rng), out=out)
        assert p.flat.tobytes() == flat.tobytes()

    def test_shared_block_accumulates_from_both_paths(self):
        rng = np.random.default_rng(11)
        p = active_params(11)
        real = RealBatch(
            human_feat=rng.random((2, 3)) + 0.1,
            verb_feat=rng.random((2, 3)) + 0.1,
            object_feat=rng.random((2, 3)) + 0.1,
            spatial=np.ones((2, 6)),
            label=(rng.random((2, 5)) < 0.4).astype(np.float64),
        )
        comp = CompBatch(
            verb_feat=rng.random((2, 3)) + 0.1,
            object_feat=rng.random((2, 3)) + 0.1,
            label=(rng.random((2, 5)) < 0.4).astype(np.float64),
            verb_src=np.array([0, 1]),
            object_src=np.array([1, 0]),
        )
        lw = LossWeights(lambda1=1.0, lambda2=1.0)
        both = loss_and_grads(real, comp, p, lw, np.ones(5))[2]
        human_only = loss_and_grads(real, comp, p, LossWeights(0.0, 0.0), np.ones(5))[2]
        # freezing the verb paths still leaves the human-path contribution
        assert np.linalg.norm(human_only.shared_w) > 0
        assert np.linalg.norm(both.shared_w - human_only.shared_w) > 0

    def test_weight_scaling_limit(self):
        rng = np.random.default_rng(12)
        p = tiny_params(12)
        real = random_real(rng)
        lw, w = random_weights(rng)
        eps = 1e-9
        g = loss_and_grads(real, None, p, lw, w)[2]
        g_eps = loss_and_grads(real, None, p, lw, w * eps)[2]
        for name in BLOCK_NAMES:
            np.testing.assert_allclose(getattr(g_eps, name), eps * getattr(g, name),
                                       rtol=1e-9, atol=1e-18)

    def test_descent_step_reduces_loss(self):
        rng = np.random.default_rng(13)
        p = tiny_params(13)
        real = random_real(rng, n=4)
        lw, w = random_weights(rng)
        total, _, grads = loss_and_grads(real, None, p, lw, w)
        p.flat -= 1e-3 * grads.flat
        assert total_loss(real, None, p, lw, w) < total

    def test_sharing_observable(self):
        rng = np.random.default_rng(14)
        p = active_params(14)
        v, o, h = (rng.random((1, 3)) + 0.1 for _ in range(3))
        s = np.ones((1, 6))
        vo0, sp0 = forward_verb_object(v, o, p), forward_spatial_human(h, s, p)
        p.shared_w += 0.5
        assert not np.allclose(forward_verb_object(v, o, p), vo0)
        assert not np.allclose(forward_spatial_human(h, s, p), sp0)
        p.shared_w -= 0.5
        p.vo_w1 += 0.5
        assert not np.allclose(forward_verb_object(v, o, p), vo0)
        np.testing.assert_allclose(forward_spatial_human(h, s, p), sp0)
        p.vo_w1 -= 0.5
        p.sp_w1 += 0.5
        np.testing.assert_allclose(forward_verb_object(v, o, p), vo0)
        assert not np.allclose(forward_spatial_human(h, s, p), sp0)


class TestClassWeights:
    def test_inverse_log_normalized(self):
        counts = np.array([1, 10, 100, 1000])
        w = inverse_log_weights(counts)
        assert w.mean() == pytest.approx(1.0)
        assert w[0] > w[1] > w[2] > w[3]

    def test_zero_count_finite(self):
        w = inverse_log_weights(np.array([0, 5, 50]))
        assert np.isfinite(w).all() and (w > 0).all()

    def test_validate_rejects_nonpositive(self):
        real = random_real(np.random.default_rng(0))
        with pytest.raises(OutOfRange, match="class_weights must be strictly positive"):
            loss_and_grads(real, None, tiny_params(), LossWeights(), np.array([1.0, 0.0, 1, 1, 1]))
        with pytest.raises(InvalidConfig, match="lambda1 must be finite and >= 0"):
            LossWeights(lambda1=-1.0)

    def test_length_checked_against_the_class_count(self):
        real = random_real(np.random.default_rng(0))
        with pytest.raises(DimensionMismatch, match=r"class_weights shape \(4,\), expected \(5,\)"):
            loss_and_grads(real, None, tiny_params(), LossWeights(), np.ones(4))


class TestFuseScores:
    def _scores(self):
        """(s_sp, s_vo) of one pair over two classes."""
        return np.array([[0.5, 0.2]]), np.array([[0.5, 0.9]])

    def test_annihilator(self):
        np.testing.assert_array_equal(fuse_scores([0.0], [0.7], *self._scores()), [[0.0, 0.0]])

    def test_identity_factors(self):
        s_sp, s_vo = self._scores()
        np.testing.assert_allclose(fuse_scores([1.0], [1.0], s_sp, s_vo), s_vo * s_sp)

    def test_arithmetic(self):
        fused = fuse_scores([0.9], [0.8], np.array([[0.5]]), np.array([[0.5]]))
        assert fused.shape == (1, 1) and fused[0, 0] == pytest.approx(0.18)

    def test_branch_modes(self):
        s_sp, s_vo = self._scores()
        np.testing.assert_allclose(fuse_scores([0.5], [0.5], s_sp, s_vo, "vo_only"), 0.25 * s_vo)
        np.testing.assert_allclose(fuse_scores([0.5], [0.5], s_sp, s_vo, "sp_only"), 0.25 * s_sp)

    def test_monotone_and_argmax_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            s_sp, s_vo = rng.random((1, 6)), rng.random((1, 6))
            lo = fuse_scores([0.3], [0.4], s_sp, s_vo)
            hi = fuse_scores([0.9], [0.4], s_sp, s_vo)
            assert np.all(hi >= lo)
            assert np.argmax(lo) == np.argmax(fuse_scores([0.77], [0.11], s_sp, s_vo))

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(16)
        s_h, s_o = rng.random(4), rng.random(4)
        s_sp, s_vo = rng.random((4, 6)), rng.random((4, 6))
        for mode in ("both", "vo_only", "sp_only"):
            fused = fuse_scores(s_h, s_o, s_sp, s_vo, mode)
            for k in range(4):
                one = slice(k, k + 1)
                row = fuse_scores(s_h[one], s_o[one], s_sp[one], s_vo[one], mode)
                assert fused[one].tobytes() == row.tobytes()

    def test_out_of_range(self):
        s_sp, s_vo = self._scores()
        with pytest.raises(OutOfRange, match="s_h=1.5"):
            fuse_scores([1.5], [0.5], s_sp, s_vo)
        with pytest.raises(OutOfRange):
            fuse_scores([0.5, np.nan], [0.5, 0.5], np.vstack([s_sp, s_sp]), np.vstack([s_vo, s_vo]))
        with pytest.raises(OutOfRange, match="s_sp=1.2"):
            fuse_scores([0.5], [0.5], np.array([[1.2]]), np.array([[0.1]]))
        with pytest.raises(OutOfRange, match="s_vo"):
            fuse_scores([0.5], [0.5], np.array([[0.1]]), np.array([[np.nan]]))
        with pytest.raises(InvalidConfig, match="branch_mode must be one of"):
            fuse_scores([0.5], [0.5], s_sp, s_vo, branch_mode="nope")

    def test_ignored_branch_is_not_checked(self):
        # one array may stand for both branches: only the fused one is checked
        good, bad = np.array([[0.5]]), np.array([[np.nan]])
        assert fuse_scores([0.5], [0.5], bad, good, "vo_only").tolist() == [[0.125]]
        assert fuse_scores([0.5], [0.5], good, bad, "sp_only").tolist() == [[0.125]]
        with pytest.raises(OutOfRange, match="s_vo=nan"):
            fuse_scores([0.5], [0.5], bad, bad, "vo_only")
        with pytest.raises(OutOfRange, match="s_sp=nan"):
            fuse_scores([0.5], [0.5], bad, bad, "sp_only")

    def test_shapes(self):
        s_sp, s_vo = self._scores()
        assert fuse_scores(np.empty(0), np.empty(0), np.empty((0, 2)), np.empty((0, 2))).shape == (0, 2)
        for args in [
            (0.5, 0.5, s_sp, s_vo),          # scalar confidences
            ([0.5], [0.5], s_sp[0], s_vo[0]),  # one pair's (C,) scores
            ([0.5, 0.5], [0.5, 0.5], s_sp, s_vo),
            ([0.5], [0.5, 0.5], s_sp, s_vo),
            ([0.5], [0.5], s_sp, s_vo[:, :1]),
        ]:
            with pytest.raises(DimensionMismatch):
                fuse_scores(*args)


class TestInPlaceScoring:
    """The in-place forward passes and scoring tail against the whole-array
    forms above, bit for bit, at the default widths and at sizes that span
    several ``FLAT_BLOCK`` row blocks."""

    @pytest.fixture(scope="class")
    def params(self):
        return init_params(NetworkConfig(num_hois=60), np.random.default_rng(61))

    @pytest.mark.parametrize("n", [1, 7, 3000])
    def test_forwards_equal_whole_array_forms(self, params, n):
        rng = np.random.default_rng(n)
        verb, obj, human = (rng.standard_normal((n, 32)) for _ in range(3))
        human_box, object_box = random_boxes(rng, n), random_boxes(rng, n)
        got = forward_verb_object(verb, obj, params)
        assert got.tobytes() == whole_array_vo_logits(verb, obj, params).tobytes()
        got = forward_spatial_human_boxes(human, human_box, object_box, params)
        want = whole_array_box_logits(human, human_box, object_box, params)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 7, 3000])
    def test_cache_free_verb_object_forward_equals_training_forward(self, params, n):
        rng = np.random.default_rng(n + 1)
        verb, obj = rng.standard_normal((n, 32)), rng.standard_normal((n, 32))
        want, cache = network._vo_forward(verb, obj, params)
        assert len(cache) == 5  # verb_x, obj_x, z, h1, h2
        assert forward_verb_object(verb, obj, params).tobytes() == want.tobytes()

    def test_scoring_forward_frees_each_layer_input(self, params):
        # a layer's input and its output are live together, never the
        # training cache: holding z, h1 and h2 took the peak to 3.5 layers
        rng = np.random.default_rng(2)
        verb, obj = rng.standard_normal((3000, 32)), rng.standard_normal((3000, 32))
        layer_bytes = 3000 * max(2 * params.cfg.hidden, params.cfg.vo_hidden) * 8
        peak = peak_above_live(lambda: forward_verb_object(verb, obj, params))
        assert peak < 2.5 * layer_bytes, peak / layer_bytes

    @pytest.mark.parametrize("shape", [(), (0,), (6,), (1, 6), (3000, 60), (1000, 600)])
    def test_sigmoid_bits(self, shape):
        # three kinds of logits: of mixed scales; shaped like a trained
        # hico-600 model's, almost all negative, a few far enough down that
        # exp underflows to 0 (one such model reached -6804); and of either
        # sign in equal parts, so the z >= 0 mask is as mixed as it gets
        rng = np.random.default_rng(len(shape) + sum(shape))
        scaled = rng.standard_normal(shape) * rng.choice([1.0, 40.0, 900.0], size=shape)
        hico, u = -rng.exponential(30.0, shape), rng.random(shape)
        hico = np.where(u > 0.99, rng.uniform(-7000.0, -745.0, shape), hico)
        hico = np.where(u < 0.005, -0.2 * hico, hico)  # a few positive
        hico.reshape(-1)[-1:] = -7000.0
        mixed = rng.standard_normal(shape) * 5.0
        for z in (np.array(scaled), np.array(hico), np.array(mixed)):
            z.reshape(-1)[: len(SIGMOID_EDGES)] = SIGMOID_EDGES[: z.size]
            want = masked_sigmoid(z)
            assert sigmoid(z).tobytes() == want.tobytes()
            out = np.full_like(z, np.nan)
            assert sigmoid(z, out=out) is out and out.tobytes() == want.tobytes()
            assert sigmoid(z, out=z) is z and z.tobytes() == want.tobytes()  # in place

    def test_sigmoid_edges(self):
        got = sigmoid(np.array(SIGMOID_EDGES))
        assert got.tolist() == [0.5, 0.5, 1.0, 5e-324, 1.0, 0.0]
        assert got.tobytes() == masked_sigmoid(np.array(SIGMOID_EDGES)).tobytes()

    @pytest.mark.parametrize("mode", ["both", "vo_only", "sp_only"])
    @pytest.mark.parametrize("n, c", [(0, 4), (1, 1), (5, 7), (3000, 60), (1000, 600)])
    def test_fuse_scores_bits(self, mode, n, c):
        rng = np.random.default_rng(n + c)
        s_h, s_o = rng.random(n), rng.random(n)
        s_sp, s_vo = sigmoid(rng.standard_normal((n, c)) * 30), rng.random((n, c))
        s_sp.reshape(-1)[::11] = 0.0  # exact zeros, as underflowed products give
        want = plain_product(s_h, s_o, s_sp, s_vo, mode).tobytes()
        assert fuse_scores(s_h, s_o, s_sp, s_vo, mode).tobytes() == want
        for name in ("s_sp", "s_vo"):  # out may be either branch's own array
            args = {"s_sp": s_sp.copy(), "s_vo": s_vo.copy()}
            fused = fuse_scores(s_h, s_o, branch_mode=mode, out=args[name], **args)
            assert fused is args[name] and fused.tobytes() == want

    def test_fuse_scores_leaves_inputs_without_out(self):
        rng = np.random.default_rng(3)
        s_sp, s_vo = rng.random((4, 3)), rng.random((4, 3))
        before = s_sp.tobytes() + s_vo.tobytes()
        fuse_scores(rng.random(4), rng.random(4), s_sp, s_vo)
        assert s_sp.tobytes() + s_vo.tobytes() == before

    def test_fuse_scores_range_check_names_the_first_bad_value(self):
        s = np.full((3, 2), 0.5)
        s[1, 1], s[2, 0] = -0.25, np.nan
        with pytest.raises(OutOfRange, match=r"s_vo=-0.25 outside"):
            fuse_scores(np.ones(3), np.ones(3), np.full((3, 2), 0.5), s)


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        p = tiny_params(21)
        path = tmp_path / "model.ckpt"
        save_params(p, path, meta={"seed": 21, "hidden": 3})
        loaded, meta = load_params(path)
        assert meta == {"seed": 21, "hidden": 3}
        for name in BLOCK_NAMES:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(p, name))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DimensionMismatch):
            load_params(path)

    def test_byte_stable(self, tmp_path):
        p = tiny_params(22)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_params(p, a, meta={"seed": 22})
        save_params(p, b, meta={"seed": 22})
        assert a.read_bytes() == b.read_bytes()

    def test_save_writes_the_buffer_itself(self, tmp_path):
        # the 600-class default network's buffer is 5.5 MB; writing it
        # through a bytes copy made the traced peak one buffer more
        p = init_params(NetworkConfig(num_hois=600), np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        peak = peak_above_live(lambda: save_params(p, path))
        assert peak < 0.1 * p.flat.nbytes, peak / p.flat.nbytes
        assert path.read_bytes().endswith(b"\n[data]\n" + p.flat.astype("<f8").tobytes())

    def _saved(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_params(tiny_params(23), path)
        return path, path.read_bytes()

    def _rewrite_header(self, path, blob, edit):
        magic, header, data = blob.split(b"\n", 2)
        header = json.loads(header)
        edit(header)
        path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + data)

    def test_malformed_header(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob.replace(b'"version"', b"version", 1))
        with pytest.raises(ParseError):
            load_params(path)

    def test_renamed_block(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob.replace(b'"sp_w1"', b'"sp_wX"', 1))
        with pytest.raises(DimensionMismatch):
            load_params(path)

    def test_data_section_is_blocks_in_order(self, tmp_path):
        path, blob = self._saved(tmp_path)
        p = tiny_params(23)
        data = blob.split(b"\n[data]\n", 1)[1]
        assert data == b"".join(getattr(p, name).astype("<f8").tobytes() for name in BLOCK_NAMES)

    def test_truncated_data(self, tmp_path):
        path, blob = self._saved(tmp_path)
        for cut in (1, 8, 8 * tiny_params().sp_b2.size + 3):
            path.write_bytes(blob[:-cut])
            with pytest.raises(DimensionMismatch):
                load_params(path)

    def test_trailing_bytes(self, tmp_path):
        path, blob = self._saved(tmp_path)
        path.write_bytes(blob + bytes(8))
        with pytest.raises(DimensionMismatch):
            load_params(path)

    def test_shapes_that_fit_no_network(self, tmp_path):
        path, blob = self._saved(tmp_path)

        def move_bias_entries(header):
            # same total size, so only the layout check can notice
            shapes = dict(header["blocks"])
            shapes["shared_b"], shapes["vo_b3"] = [1], [7]
            header["blocks"] = [[name, shapes[name]] for name in BLOCK_NAMES]

        self._rewrite_header(path, blob, move_bias_entries)
        with pytest.raises(DimensionMismatch):
            load_params(path)

    # vo_b3[3] = nan is the repro: before the check, scoring failed on
    # s_vo=nan naming neither file nor block, and sp_only scored the file
    @pytest.mark.parametrize("blocks", [("vo_b3",), ("shared_w",), ("sp_b2",), ("vo_w3", "sp_w1")],
                             ids="+".join)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_names_file_and_first_block(self, tmp_path, blocks, value):
        p = tiny_params(24)
        for name in blocks:
            getattr(p, name).flat[3 % getattr(p, name).size] = value
        path = tmp_path / "model.ckpt"
        save_params(p, path)
        first = min(blocks, key=BLOCK_NAMES.index)
        want = f"checkpoint {path}: block {first} holds a non-finite value"
        with pytest.raises(ParseError) as err:
            load_params(path)
        assert str(err.value) == want

    def test_non_finite_parameter_past_the_first_flat_block(self, tmp_path):
        cfg = NetworkConfig(num_hois=5)
        p = init_params(cfg, np.random.default_rng(0))
        p.sp_w1[-1, -1] = np.nan
        assert p.cfg.layout["sp_w1"][1] > 10 * FLAT_BLOCK
        path = tmp_path / "model.ckpt"
        save_params(p, path)
        with pytest.raises(ParseError, match="block sp_w1 holds a non-finite value$"):
            load_params(path)

    @pytest.mark.parametrize("width", ["hidden", "vo_hidden", "sp_hidden"])
    def test_zero_width(self, tmp_path, width):
        path = tmp_path / "model.ckpt"
        save_unbuilt(path, **{**asdict(TINY), width: 0})
        with pytest.raises(DimensionMismatch, match=f"{width} must be >= 1"):
            load_params(path)
