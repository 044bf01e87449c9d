import hashlib
import tracemalloc

import numpy as np
import pytest

from hoicomp import network, trainer
from hoicomp import rng as rngmod
from hoicomp.composer import ComposeConfig, compose_batch
from hoicomp.errors import (
    DimensionMismatch,
    DivergedTraining,
    InvalidConfig,
    NonFiniteUpdate,
    ParseError,
)
from hoicomp.experiments import default_dataset_config, report_basis
from hoicomp.network import (
    FLAT_BLOCK,
    CompBatch,
    LossWeights,
    ModelParams,
    NetworkConfig,
    RealBatch,
    block_shapes,
    init_params,
    inverse_log_weights,
)
from hoicomp.synthdata import DatasetConfig, class_counts, generate, random_hoi_defs
from hoicomp.trainer import (
    TrainConfig,
    format_metrics_log,
    group_by_image,
    make_minibatch,
    read_metrics_log,
    sgd_step,
    train,
    write_metrics_log,
)
from hoicomp.zeroshot import ZeroShotSplit, apply_split, make_split

import split_oracle
from conftest import make_dataset, make_row, peak_above_live
from test_composer import legacy_compose

NET = NetworkConfig(num_hois=8, feature_dim=8, hidden=8, vo_hidden=8, sp_hidden=8)


def tiny_dataset(seed=5, n_train=160):
    cfg = DatasetConfig(
        num_verbs=4,
        num_objects=3,
        hoi_defs=random_hoi_defs(4, 3, 8, np.random.default_rng(2)),
        zipf_exponent=1.0,
        n_train=n_train,
        n_test=40,
        feature_dim=8,
        class_sep=4.0,
        noise_sigma=1.0,
        seed=seed,
    )
    return generate(cfg)


@pytest.fixture(scope="module")
def default_step_inputs():
    """(train set, label space, init params, class weights as ``train``
    works them out) at the default widths on the default 60-class data,
    with fewer rows."""
    train_set, _, space = generate(default_dataset_config(n_train=2000, n_test=0))
    net = NetworkConfig(num_hois=space.num_hois, feature_dim=train_set.human_feat.shape[1])
    w = inverse_log_weights(class_counts(train_set, space))
    return train_set, space, init_params(net, np.random.default_rng(0)), w


def default_step_batches(inputs, batch, seed=0):
    """A real minibatch of ``batch`` instances and its compositions."""
    train_set, space, _, _ = inputs
    rows = make_minibatch(train_set, TrainConfig(interactions_per_minibatch=batch),
                          np.random.default_rng(seed))
    real_rows = train_set[rows]
    comp = compose_batch(real_rows, space, ComposeConfig(), np.random.default_rng(seed + 1))
    return RealBatch.from_instances(real_rows, space.num_hois), comp


class TestMakeMinibatch:
    def test_single_interaction_has_no_partner(self, toy_space):
        insts = make_dataset([make_row(toy_space, [0], image_id=i) for i in range(4)])
        cfg = TrainConfig(interactions_per_minibatch=1)
        batch = insts[make_minibatch(insts, cfg, np.random.default_rng(0))]
        assert len(batch) == 1
        comps = compose_batch(batch, toy_space, ComposeConfig(mode="between"), np.random.default_rng(0))
        assert len(comps) == 0

    def test_batch_spans_two_images(self, toy_space):
        insts = make_dataset([make_row(toy_space, [i % 3], image_id=i % 5) for i in range(20)])
        cfg = TrainConfig(interactions_per_minibatch=5)
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = make_minibatch(insts, cfg, rng)
            assert rows.dtype == np.int64 and len(rows) == 5
            assert len(set(insts.image_id[rows].tolist())) >= 2

    def test_replay_identical(self, toy_space):
        insts = make_dataset([make_row(toy_space, [i % 3], image_id=i % 6) for i in range(30)])
        cfg = TrainConfig(interactions_per_minibatch=4)
        rng1 = rngmod.stream(3, "batch")
        rng2 = rngmod.stream(3, "batch")
        for _ in range(10):
            a = make_minibatch(insts, cfg, rng1).tolist()
            b = make_minibatch(insts, cfg, rng2).tolist()
            assert a == b

    def test_groups_cover_all(self, toy_space):
        insts = make_dataset([make_row(toy_space, [0], image_id=i % 3) for i in range(7)])
        groups = group_by_image(insts)
        assert sorted(int(i) for g in groups for i in g) == list(range(7))

    def test_groups_match_dict_reference(self, toy_space):
        rng = np.random.default_rng(12)
        for n in (0, 1, 2, 9, 40):
            image_ids = rng.integers(0, max(n // 2, 1), size=n) * 7 - 5  # unsorted, negative too
            rows = [make_row(toy_space, [0], image_id=int(i)) for i in image_ids]
            insts = make_dataset(rows) if rows else make_row(toy_space, [0])[:0]
            by_image: dict[int, list[int]] = {}
            for idx, image_id in enumerate(insts.image_id.tolist()):
                by_image.setdefault(image_id, []).append(idx)
            want = [np.array(by_image[k], dtype=np.int64) for k in sorted(by_image)]
            got = group_by_image(insts)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.dtype == np.int64
                np.testing.assert_array_equal(g, w)

    def test_grouped_rows_draw_like_a_list_of_groups(self, toy_space):
        rng = np.random.default_rng(13)
        insts = make_dataset([make_row(toy_space, [0], image_id=int(i))
                              for i in rng.integers(0, 9, size=40)])
        groups = group_by_image(insts)
        cfg = TrainConfig(interactions_per_minibatch=5)
        rng1, rng2 = rngmod.stream(4, "batch"), rngmod.stream(4, "batch")
        for _ in range(10):
            np.testing.assert_array_equal(make_minibatch(insts, cfg, rng1, groups=groups),
                                          make_minibatch(insts, cfg, rng2, groups=list(groups)))

    def test_empty_train(self, toy_space):
        with pytest.raises(InvalidConfig):
            make_minibatch(make_row(toy_space, [0])[:0], TrainConfig(), np.random.default_rng(0))


class TestTrainOnSplit:
    """``apply_split`` keeps the rows it empties; training never draws them,
    so it equals training on the oracle's copy without them."""

    @pytest.fixture(scope="class")
    def split_data(self):
        train_set, _, space = tiny_dataset()
        split = make_split(class_counts(train_set, space), space, 2, "rare_first")
        kept = split_oracle.kept_rows(train_set, split)
        assert len(kept) < len(train_set)  # the split empties some rows
        return train_set, space, split, kept

    def test_groups_equal_the_oracle_copy_through_kept_rows(self, split_data):
        train_set, _, split, kept = split_data
        got = group_by_image(apply_split(train_set, split))
        want = group_by_image(split_oracle.apply_split(train_set, split))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, kept[w])

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("mode", ["both", "off"])
    def test_train_equals_training_on_the_oracle_copy(self, split_data, batch, mode):
        train_set, space, split, _ = split_data
        compose = ComposeConfig(mode=mode, unseen_allowed=True, unseen_ids=split.unseen)
        cfg = TrainConfig(iterations=24, interactions_per_minibatch=batch, compose=compose,
                          seed=batch)
        params, log = train(apply_split(train_set, split), space, cfg, net_cfg=NET)
        want_params, want_log = train(split_oracle.apply_split(train_set, split), space, cfg,
                                      net_cfg=NET)
        assert params.flat.tobytes() == want_params.flat.tobytes()
        assert log == want_log  # every loss component, as floats
        if mode == "both" and batch > 1:
            assert any(e["L_comp"] > 0 for e in log)

    def test_report_basis_counts_equal_the_oracle_copy(self, split_data):
        train_set, space, split, _ = split_data
        _, counts, partition = report_basis(train_set, space, split, rare_threshold=25)
        want = class_counts(split_oracle.apply_split(train_set, split), space)
        assert counts.dtype == want.dtype
        np.testing.assert_array_equal(counts, want)
        assert partition == {"unseen": split.unseen, "seen": split.seen}

    def test_split_leaving_no_labelled_row_is_an_empty_training_set(self, split_data):
        train_set, space, _, _ = split_data
        every = frozenset(range(space.num_hois))
        split = ZeroShotSplit(unseen=every, space=space, strategy="rare_first")
        unlabelled = apply_split(train_set, split)
        with pytest.raises(InvalidConfig, match="training set is empty"):
            train(unlabelled, space, TrainConfig(iterations=1), net_cfg=NET)
        with pytest.raises(InvalidConfig, match="training set is empty"):
            make_minibatch(unlabelled, TrainConfig(), np.random.default_rng(0))


class TestSgdStep:
    def _params(self):
        return init_params(NET, np.random.default_rng(0))

    def _like(self, p, value):
        return ModelParams(p.cfg, np.full_like(p.flat, value))

    def test_plain_gradient_descent(self):
        p = self._params()
        before = p.flat.copy()
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(p, self._like(p, 1.0), self._like(p, 0.0), cfg)
        np.testing.assert_allclose(p.flat, before - 0.1)

    def test_zero_grads_keep_params(self):
        p = self._params()
        before = p.flat.copy()
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(p, self._like(p, 0.0), self._like(p, 0.0), cfg)
        np.testing.assert_array_equal(p.flat, before)

    def test_two_steps_constant_grad_closed_form(self):
        # v1 = g, v2 = (1 + m) g  =>  total displacement -lr (2 + m) g
        p = self._params()
        before = p.flat.copy()
        grads = self._like(p, 0.5)
        m = 0.9
        cfg = TrainConfig(lr=0.01, momentum=m, weight_decay=0.0)
        state = self._like(p, 0.0)
        sgd_step(p, grads, state, cfg)
        sgd_step(p, grads, state, cfg)
        np.testing.assert_allclose(p.flat, before - 0.01 * (2 + m) * 0.5, rtol=1e-12)

    def test_weight_decay_pulls_to_zero(self):
        p = self._params()
        before = p.flat.copy()
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(p, self._like(p, 0.0), self._like(p, 0.0), cfg)
        np.testing.assert_allclose(p.flat, before * (1 - 0.1 * 0.5), rtol=1e-12)

    def test_overflow_in_last_block_leaves_params_unchanged(self):
        p = self._params()
        before = p.flat.tobytes()
        grads = self._like(p, 0.5)
        grads.vo_b3[-1] = 1e308
        cfg = TrainConfig(lr=10.0, momentum=0.9, weight_decay=0.0005)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteUpdate, match="vo_b3"):
            sgd_step(p, grads, self._like(p, 0.0), cfg)
        assert p.flat.tobytes() == before

    @pytest.mark.parametrize("target", ["params", "state"])
    @pytest.mark.parametrize("part", ["whole", "slice"])
    def test_out_overlapping_params_or_state_fails_before_writing(self, target, part):
        p = self._params()
        grads, state = self._like(p, 0.5), self._like(p, 0.25)
        buffers = {"params": p.flat, "state": state.flat}
        out = buffers[target] if part == "whole" else buffers[target][FLAT_BLOCK:]
        before = p.flat.tobytes(), grads.flat.tobytes(), state.flat.tobytes()
        with pytest.raises(DimensionMismatch, match="shares memory"):
            sgd_step(p, grads, state, TrainConfig(), out=out)
        assert (p.flat.tobytes(), grads.flat.tobytes(), state.flat.tobytes()) == before


def block_offset(cfg, name):
    """Index in the flat buffer of the first element of block ``name``."""
    offset = 0
    for other, shape in block_shapes(cfg).items():
        if other == name:
            return offset
        offset += int(np.prod(shape))
    raise KeyError(name)


class TestSgdBlocks:
    """``sgd_step`` checks its output block by block; a failure in any block
    leaves the parameters as they were, and the gradients too unless the new
    parameters were being written over them."""

    def _step_fails_at(self, flat_indices, out=None, over_grads=False):
        """The error of a step whose gradients are infinite at
        ``flat_indices``; with ``over_grads`` its ``out`` is the gradients,
        which are then spent."""
        p = init_params(NET, np.random.default_rng(0))
        grads = ModelParams(NET, np.full_like(p.flat, 0.5))
        grads.flat[flat_indices] = np.inf
        buffer, before, grads_before = p.flat, p.flat.tobytes(), grads.flat.tobytes()
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0005)
        with pytest.raises(NonFiniteUpdate) as err:
            sgd_step(p, grads, ModelParams(NET, np.zeros_like(p.flat)), cfg,
                     out=grads.flat if over_grads else out)
        assert p.flat is buffer and p.flat.tobytes() == before
        assert over_grads or grads.flat.tobytes() == grads_before
        return str(err.value)

    def test_layout_has_first_middle_and_straddling_blocks(self):
        # the cases below rely on this layout: three or more update blocks,
        # the first and last of which each span several parameter blocks
        size = init_params(NET, np.random.default_rng(0)).flat.size
        assert size > 2 * FLAT_BLOCK
        assert block_offset(NET, "sp_w1") < FLAT_BLOCK
        last_start = (size - 1) // FLAT_BLOCK * FLAT_BLOCK
        assert block_offset(NET, "sp_w1") < last_start < block_offset(NET, "sp_b1")

    @pytest.mark.parametrize("name, k", [
        ("shared_w", 0),   # first element of the first update block
        ("obj_b", 3),      # first update block, a later parameter block
    ])
    def test_first_block(self, name, k):
        index = block_offset(NET, name) + k
        assert index < FLAT_BLOCK
        assert f"block {name} " in self._step_fails_at([index])

    def test_middle_block(self):
        index = FLAT_BLOCK + 7
        assert block_offset(NET, "sp_w1") < index < block_offset(NET, "sp_b1") - FLAT_BLOCK
        assert "block sp_w1 " in self._step_fails_at([index])

    @pytest.mark.parametrize("name", ["sp_w1", "sp_b1", "sp_b2", "vo_w1"])
    def test_block_straddling_two_parameter_blocks(self, name):
        # the update block that holds the end of sp_w1 and the blocks after it
        start = block_offset(NET, "sp_b1") // FLAT_BLOCK * FLAT_BLOCK
        index = block_offset(NET, "sp_b1") - 1 if name == "sp_w1" else block_offset(NET, name)
        assert start <= index < start + FLAT_BLOCK
        assert f"block {name} " in self._step_fails_at([index])

    def test_first_bad_element_is_named(self):
        late = block_offset(NET, "vo_b3")
        early = block_offset(NET, "obj_w") + 5
        assert "block obj_w " in self._step_fails_at([early, late])

    def test_failure_with_out_buffer_keeps_params(self):
        p = init_params(NET, np.random.default_rng(0))
        out = np.full_like(p.flat, 7.0)
        assert "block sp_b2 " in self._step_fails_at([block_offset(NET, "sp_b2")], out=out)

    @pytest.mark.parametrize("name", ["shared_w", "sp_w1", "vo_b3"])
    def test_failure_writing_over_the_gradients_keeps_params(self, name):
        # the training loop's form: each block of new parameters goes over
        # the gradient block it was made from
        assert f"block {name} " in self._step_fails_at([block_offset(NET, name)], over_grads=True)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_out_may_be_the_gradient_buffer(self, weight_decay):
        p = init_params(NET, np.random.default_rng(0))
        grads = ModelParams(NET, np.random.default_rng(1).standard_normal(p.flat.size))
        state = ModelParams(NET, np.random.default_rng(2).standard_normal(p.flat.size))
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=weight_decay)
        fresh, fresh_state = ModelParams(NET, p.flat.copy()), ModelParams(NET, state.flat.copy())
        sgd_step(fresh, grads, fresh_state, cfg)
        sgd_step(p, grads, state, cfg, out=grads.flat)
        assert p.flat is grads.flat and p.flat.tobytes() == fresh.flat.tobytes()
        assert state.flat.tobytes() == fresh_state.flat.tobytes()

    def test_out_buffer_becomes_params(self):
        p = init_params(NET, np.random.default_rng(0))
        grads = ModelParams(NET, np.random.default_rng(1).standard_normal(p.flat.size))
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0005)
        fresh = ModelParams(NET, p.flat.copy())
        sgd_step(fresh, grads, ModelParams(NET, np.zeros_like(p.flat)), cfg)
        out = np.full_like(p.flat, np.nan)
        sgd_step(p, grads, ModelParams(NET, np.zeros_like(p.flat)), cfg, out=out)
        assert p.flat is out
        assert out.tobytes() == fresh.flat.tobytes()


# ---- the parent's step, kept as the oracle of the buffer-reusing one ----


def _oracle_sp_forward(human_x, smap_x, p):
    sh_pre = human_x @ p.shared_w + p.shared_b
    sh = np.maximum(sh_pre, 0.0)
    z = np.concatenate([sh, network.spatial_input_scale(p) * smap_x], axis=1)
    h_pre = z @ p.sp_w1 + p.sp_b1
    h = np.maximum(h_pre, 0.0)
    return h @ p.sp_w2 + p.sp_b2, (human_x, sh_pre, z, h_pre, h)


def _oracle_sp_backward(g_out, cache, p, grads):
    human_x, sh_pre, z, h_pre, h_act = cache
    h = p.cfg.hidden
    grads["sp_w2"] += h_act.T @ g_out
    grads["sp_b2"] += g_out.sum(axis=0)
    g1 = (g_out @ p.sp_w2.T) * (h_pre > 0)
    grads["sp_w1"] += z.T @ g1
    grads["sp_b1"] += g1.sum(axis=0)
    gz = g1 @ p.sp_w1.T
    g_sh = gz[:, :h] * (sh_pre > 0)
    grads["shared_w"] += human_x.T @ g_sh
    grads["shared_b"] += g_sh.sum(axis=0)


def oracle_loss_and_grads(real, comp, params, lw, w, out=None):
    """``loss_and_grads`` as it was: the spatial input is concatenated from
    temporaries, the spatial backward takes the full input gradient, and
    every loss term adds its gradient into a new zero-filled buffer. ``out``
    is ignored."""
    vo_logits, vo_cache = network._vo_forward(real.verb_feat, real.object_feat, params)
    sp_logits, sp_cache = _oracle_sp_forward(real.human_feat, real.spatial, params)
    comps = {
        "L_sp": network._weighted_bce(sp_logits, real.label, w),
        "L_vo": network._weighted_bce(vo_logits, real.label, w),
        "L_comp": 0.0,
    }
    terms = [
        (_oracle_sp_backward, sp_logits, sp_cache, real.label, 1.0),
        (network._vo_backward, vo_logits, vo_cache, real.label, lw.lambda1),
    ]
    if comp is not None and len(comp):
        comp_logits, comp_cache = network._vo_forward(comp.verb_feat, comp.object_feat, params)
        comps["L_comp"] = network._weighted_bce(comp_logits, comp.label, w)
        terms.append((network._vo_backward, comp_logits, comp_cache, comp.label, lw.lambda2))
    total = comps["L_sp"] + lw.lambda1 * comps["L_vo"] + lw.lambda2 * comps["L_comp"]
    grads = ModelParams(params.cfg, np.zeros_like(params.flat))
    blocks = grads.blocks()
    for backward_fn, logits, cache, targets, coef in terms:
        backward_fn(network._bce_grad(logits, targets, w, coef), cache, params, blocks)
    return total, comps, grads


def oracle_sgd_step(params, grads, state, cfg, out=None):
    """``sgd_step`` as it was: whole-buffer passes and a new parameter
    buffer every step. ``out`` is ignored."""
    v = state.flat
    v *= cfg.momentum
    v += grads.flat
    if cfg.weight_decay:
        v += cfg.weight_decay * params.flat
    new = cfg.lr * v
    np.subtract(params.flat, new, out=new)
    finite = np.isfinite(new)
    if not finite.all():
        raise NonFiniteUpdate(f"parameter block {params.block_at(np.argmin(finite))} became non-finite")
    params.flat = new
    return params, state


class TestStepOracle:
    def _run(self, monkeypatch, oracle, cfg):
        """Digests of (params, momentum) after every step, and the log."""
        steps = []
        step_fn = oracle_sgd_step if oracle else trainer.sgd_step

        def recording_step(params, grads, state, cfg, out=None):
            result = step_fn(params, grads, state, cfg, out=out)
            steps.append((hashlib.sha256(params.flat.tobytes()).hexdigest(),
                          hashlib.sha256(state.flat.tobytes()).hexdigest()))
            return result

        with monkeypatch.context() as patch:
            if oracle:
                patch.setattr(trainer, "loss_and_grads", oracle_loss_and_grads)
            patch.setattr(trainer, "sgd_step", recording_step)
            train_set, _, space = tiny_dataset()
            params, log = train(train_set, space, cfg, net_cfg=NET)
        return steps, params.flat.tobytes(), log

    @pytest.mark.parametrize("batch", [1, 8, 32])
    @pytest.mark.parametrize("mode", ["both", "off"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.0005])
    def test_train_bitwise_equals_oracle(self, monkeypatch, batch, mode, weight_decay):
        cfg = TrainConfig(iterations=24, interactions_per_minibatch=batch, weight_decay=weight_decay,
                          compose=ComposeConfig(mode=mode), seed=batch)
        steps, final, log = self._run(monkeypatch, False, cfg)
        want_steps, want_final, want_log = self._run(monkeypatch, True, cfg)
        assert len(steps) == 24
        assert steps == want_steps
        assert final == want_final
        assert log == want_log  # every loss component, as floats
        if mode == "both" and batch > 1:
            assert any(e["L_comp"] > 0 for e in log)

    @pytest.mark.parametrize("with_comp", [False, True])
    def test_out_buffer_equals_fresh_and_oracle(self, with_comp):
        train_set, _, space = tiny_dataset()
        rows = make_minibatch(train_set, TrainConfig(interactions_per_minibatch=8), np.random.default_rng(3))
        batch = train_set[rows]
        real = RealBatch.from_instances(batch, space.num_hois)
        comp = compose_batch(batch, space, ComposeConfig(), np.random.default_rng(4)) if with_comp else None
        p = init_params(NET, np.random.default_rng(5))
        lw, w = LossWeights(), np.linspace(0.5, 1.5, NET.num_hois)
        out = ModelParams(NET, np.full_like(p.flat, np.nan))
        total, comps, grads = network.loss_and_grads(real, comp, p, lw, w, out=out)
        fresh_total, fresh_comps, fresh = network.loss_and_grads(real, comp, p, lw, w)
        oracle_total, oracle_comps, oracle = oracle_loss_and_grads(real, comp, p, lw, w)
        assert grads is out and fresh is not out
        assert out.flat.tobytes() == fresh.flat.tobytes() == oracle.flat.tobytes()
        assert total == fresh_total == oracle_total and comps == fresh_comps == oracle_comps

    # the spatial backward reads h columns of an (n, h) product that the
    # oracle takes from the full (n, h + spatial_dim) one; at the default
    # widths, a plain slice of the weights differs from it for 2..18 rows
    @pytest.mark.parametrize("batch", [1, 2, 8, 16, 18, 19, 32, 33])
    def test_default_widths_equal_oracle(self, default_step_inputs, batch):
        _, _, p, w = default_step_inputs
        real, comp = default_step_batches(default_step_inputs, batch, seed=batch)
        assert batch == 1 or len(comp)
        total, comps, grads = network.loss_and_grads(real, comp, p, LossWeights(), w)
        oracle_total, oracle_comps, oracle = oracle_loss_and_grads(real, comp, p, LossWeights(), w)
        assert grads.flat.tobytes() == oracle.flat.tobytes()
        assert total == oracle_total and comps == oracle_comps


class TestStepAllocations:
    def _step_growth(self, iterations):
        """Traced peak of ``train`` after its first step, above the memory
        live when that step ended; and the size of the flat buffer."""
        train_set, _, space = tiny_dataset()
        after_first = []

        def mark(params):
            if not after_first:
                tracemalloc.reset_peak()
                after_first.append((tracemalloc.get_traced_memory()[0], params.flat.nbytes))
            return {}

        cfg = TrainConfig(iterations=iterations, eval_every=1, seed=0)
        tracemalloc.start()
        try:
            train(train_set, space, cfg, eval_fn=mark)  # the default NetworkConfig
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        live, flat_bytes = after_first[0]
        return peak - live, flat_bytes

    def test_loss_and_grads_makes_no_second_spatial_input(self, default_step_inputs):
        # at batch 32 the spatial input z, (32, hidden + spatial_dim), is the
        # one step array of its size; a temporary of that size on top of it
        # would take the peak past 1.5 times it
        _, _, p, w = default_step_inputs
        real, comp = default_step_batches(default_step_inputs, 32)
        out = ModelParams(p.cfg, np.zeros_like(p.flat))

        def step():
            network.loss_and_grads(real, comp, p, LossWeights(), w, out=out)

        peak = peak_above_live(step, warm_up=step)
        z_bytes = 32 * (p.cfg.hidden + p.cfg.spatial_dim) * 8
        assert peak < 1.5 * z_bytes, peak / z_bytes

    def test_train_holds_three_parameter_buffers(self, default_step_inputs):
        # parameters, momentum and one gradient buffer, over which each step
        # writes the new parameters; the old parameter buffer becomes the
        # next step's gradients. A fourth buffer, a spare to write the new
        # parameters into, took the peak to 4.29 buffers
        train_set, space, p, _ = default_step_inputs
        assert p.flat.nbytes > 4_000_000  # sp_w1 at the default widths dominates
        peak = peak_above_live(lambda: train(train_set, space, TrainConfig(iterations=5)))
        assert peak < 3.5 * p.flat.nbytes, peak / p.flat.nbytes

    def test_batch_32_train_holds_under_four_parameter_buffers(self, default_step_inputs):
        # at batch 32 the raster and the spatial input z, which holds it
        # scaled, are live together; as float64 (2.1 MB each) the raster took
        # the peak to 4.04-4.09 buffers, as bytes it is an eighth of that
        train_set, space, p, _ = default_step_inputs
        cfg = TrainConfig(iterations=5, interactions_per_minibatch=32)
        peak = peak_above_live(lambda: train(train_set, space, cfg))
        assert peak < 3.75 * p.flat.nbytes, peak / p.flat.nbytes

    def test_no_parameter_sized_allocation_per_step(self):
        two, flat_bytes = self._step_growth(2)
        twenty, _ = self._step_growth(20)
        assert flat_bytes > 4_000_000  # sp_w1 at the default widths dominates
        assert two < flat_bytes
        assert twenty < two + flat_bytes // 8


class TestTrain:
    def test_zero_iterations_returns_init(self):
        train_set, _, space = tiny_dataset()
        cfg = TrainConfig(iterations=0, seed=7)
        params, log = train(train_set, space, cfg, net_cfg=NET)
        fresh = init_params(NET, rngmod.stream(7, "init"))
        assert log == []
        assert params.cfg == fresh.cfg
        np.testing.assert_array_equal(params.flat, fresh.flat)

    def test_network_of_another_spatial_width_is_rejected(self, monkeypatch):
        # a package error, which the CLI reports as one error line, raised
        # before train sets anything up
        train_set, _, space = tiny_dataset()
        net = NetworkConfig(num_hois=8, feature_dim=8, hidden=8, vo_hidden=8, sp_hidden=8,
                            spatial_dim=100)
        initialised = []
        monkeypatch.setattr(trainer, "init_params", lambda *args: initialised.append(args))
        with pytest.raises(DimensionMismatch, match=r"^spatial input is 100 wide, expected 8192$"):
            train(train_set, space, TrainConfig(iterations=1, interactions_per_minibatch=4),
                  net_cfg=net)
        assert initialised == []

    def test_compose_off_matches_lambda2_zero(self):
        train_set, _, space = tiny_dataset()
        base = dict(iterations=40, interactions_per_minibatch=4, seed=11)
        cfg_off = TrainConfig(
            compose=ComposeConfig(mode="off"),
            loss_weights=LossWeights(lambda1=2.0, lambda2=0.5),
            **base,
        )
        cfg_zero = TrainConfig(
            compose=ComposeConfig(mode="both"),
            loss_weights=LossWeights(lambda1=2.0, lambda2=0.0),
            **base,
        )
        p_off, log_off = train(train_set, space, cfg_off, net_cfg=NET)
        p_zero, log_zero = train(train_set, space, cfg_zero, net_cfg=NET)
        assert format_metrics_log(log_off) == format_metrics_log(log_zero)
        assert p_off.cfg == p_zero.cfg
        np.testing.assert_array_equal(p_off.flat, p_zero.flat)

    def test_descent_on_toy_data(self):
        train_set, _, space = tiny_dataset()
        cfg = TrainConfig(iterations=200, interactions_per_minibatch=4, seed=0)
        _, log = train(train_set, space, cfg, net_cfg=NET)
        lw = cfg.loss_weights

        def total(e):
            return e["L_sp"] + lw.lambda1 * e["L_vo"] + lw.lambda2 * e["L_comp"]

        assert total(log[-1]) < total(log[0])

    def test_log_shape_and_finiteness(self):
        train_set, _, space = tiny_dataset()
        cfg = TrainConfig(iterations=25, seed=1)
        _, log = train(train_set, space, cfg, net_cfg=NET)
        assert len(log) == 25
        assert [e["iter"] for e in log] == list(range(25))
        for e in log:
            for key in ("L_sp", "L_vo", "L_comp"):
                assert np.isfinite(e[key])

    def test_bitwise_reproducible(self):
        train_set, _, space = tiny_dataset()
        cfg = TrainConfig(iterations=30, seed=4)
        p1, log1 = train(train_set, space, cfg, net_cfg=NET)
        p2, log2 = train(train_set, space, cfg, net_cfg=NET)
        assert format_metrics_log(log1) == format_metrics_log(log2)
        assert p1.cfg == p2.cfg
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_diverged_training_reports_iteration(self):
        train_set, _, space = tiny_dataset()
        cfg = TrainConfig(iterations=50, lr=1e9, momentum=0.99, seed=2)
        with np.errstate(all="ignore"), pytest.raises(DivergedTraining) as err:
            train(train_set, space, cfg, net_cfg=NET)
        assert err.value.iteration >= 0

    def test_eval_hook_runs_on_schedule(self):
        train_set, _, space = tiny_dataset()
        calls = []

        def fake_eval(params):
            calls.append(1)
            return {"mAP_full": 12.5}

        cfg = TrainConfig(iterations=10, eval_every=4, seed=3)
        _, log = train(train_set, space, cfg, net_cfg=NET, eval_fn=fake_eval)
        assert len(calls) == 2
        assert "mAP_full" in log[3] and "mAP_full" in log[7]
        assert "mAP_full" not in log[0]

    def test_legacy_composer_gives_same_run(self, monkeypatch):
        train_set, _, space = tiny_dataset()
        compose = ComposeConfig(mode="both", unseen_allowed=True, unseen_ids=frozenset({1, 5}))
        cfg = TrainConfig(iterations=30, interactions_per_minibatch=6, compose=compose, seed=9)
        p_new, log_new = train(train_set, space, cfg, net_cfg=NET)

        def legacy_batch(batch, space, cfg, rng):
            rows = legacy_compose(batch, space, cfg, rng)
            i = np.array([r[0] for r in rows], dtype=np.int64)
            j = np.array([r[1] for r in rows], dtype=np.int64)
            label = np.array([r[2] for r in rows]).reshape(len(rows), space.num_hois)
            return CompBatch.from_composited(batch, i, j, label)

        monkeypatch.setattr(trainer, "compose_batch", legacy_batch)
        p_old, log_old = train(train_set, space, cfg, net_cfg=NET)
        assert format_metrics_log(log_new) == format_metrics_log(log_old)
        assert any(e["L_comp"] > 0 for e in log_old)
        assert p_new.cfg == p_old.cfg
        assert p_new.flat.tobytes() == p_old.flat.tobytes()

    def test_validate_rejects_bad_config(self):
        train_set, _, space = tiny_dataset()
        with pytest.raises(InvalidConfig):
            train(train_set, space, TrainConfig(lr=0.0), net_cfg=NET)
        with pytest.raises(InvalidConfig):
            train(train_set, space, TrainConfig(momentum=1.0), net_cfg=NET)


class TestMetricsLog:
    def test_roundtrip(self, tmp_path):
        log = [
            {"iter": 0, "L_sp": 1.5, "L_vo": 0.25, "L_comp": 0.0},
            {"iter": 1, "L_sp": 1.25, "L_vo": 0.2, "L_comp": 0.1, "mAP_full": 33.3},
        ]
        path = tmp_path / "metrics.log"
        write_metrics_log(log, path)
        back = read_metrics_log(path)
        assert back == log

    @pytest.mark.parametrize("text, line", [
        ("iter=0 L_sp=1.0\niter=1 L_sp\n", 2),          # a token without "="
        ("iter=0 L_sp=1.0\n\niter=x L_sp=1.0\n", 3),    # blank lines still count
        ("iter=0 L_sp=1.0.0\n", 1),
        ("iter=0.5 L_sp=1.0\n", 1),
    ])
    def test_malformed_line_names_it(self, tmp_path, text, line):
        path = tmp_path / "metrics.log"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_metrics_log(path)
        assert err.value.line == line

    def test_bytes_not_utf8(self, tmp_path):
        path = tmp_path / "metrics.log"
        path.write_bytes(b"iter=0 L_sp=1.0\niter=1 L_sp=\xff\n")
        with pytest.raises(ParseError) as err:
            read_metrics_log(path)
        assert err.value.line == 2

    def test_format_full_precision(self):
        val = 0.1 + 0.2  # not representable prettily
        text = format_metrics_log([{"iter": 0, "L_sp": val, "L_vo": 0.0, "L_comp": 0.0}])
        assert repr(val) in text
