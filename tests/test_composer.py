import itertools

import numpy as np
import pytest

from hoicomp.composer import MODES, ComposeConfig, compose_batch
from hoicomp.errors import EmptyBatch, InvalidConfig
from hoicomp.label_algebra import build_space, decompose
from hoicomp.synthdata import unpack_labels

from conftest import TOY_DEFS, dense, draw_space, make_dataset, make_row


def brute_candidates(batch, defs, mode, unseen=frozenset(), unseen_allowed=False):
    """Set-logic oracle over raw definitions: all ordered pairs i != j."""
    out = []
    labels = unpack_labels(batch.label, len(defs))
    for i in range(len(batch)):
        verbs = set()
        for c in np.flatnonzero(labels[i]):
            verbs.update(defs[c][0])
        for j in range(len(batch)):
            if i == j:
                continue
            same = batch.image_id[i] == batch.image_id[j]
            if mode == "within" and not same:
                continue
            if mode == "between" and same:
                continue
            classes = {
                c
                for c in range(len(defs))
                if defs[c][1] == batch.object_id[j] and set(defs[c][0]) & verbs
            }
            if not unseen_allowed:
                classes -= set(unseen)
            if classes:
                out.append((i, j, frozenset(classes)))
    return out


def legacy_compose(batch, space, cfg, rng):
    """Reference composer: one Python iteration per ordered pair, returning
    (verb source i, object source j, uint8 label) rows in loop order."""
    if len(batch) == 0:
        raise EmptyBatch("compose_batch needs at least one instance")
    if cfg.mode == "off":
        return []

    _, l_v = decompose(dense(batch, space), space)
    verb_hits = (l_v.astype(np.int64) @ space.verb_hoi.astype(np.int64)) > 0
    obj_by_hoi = space.objects_by_hoi()
    object_hits = np.stack([obj_by_hoi == batch.object_id[i] for i in range(len(batch))])

    n = len(batch)
    unseen = sorted(cfg.unseen_ids)
    rows = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            same_image = batch.image_id[i] == batch.image_id[j]
            if cfg.mode == "within" and not same_image:
                continue
            if cfg.mode == "between" and same_image:
                continue
            label = (verb_hits[i] & object_hits[j]).astype(np.uint8)
            if not cfg.unseen_allowed and unseen:
                label[unseen] = 0
            if not label.any():
                continue
            rows.append((i, j, label))

    if cfg.balance and len(rows) > n:
        keep = np.sort(rng.choice(len(rows), size=n, replace=False))
        rows = [rows[int(k)] for k in keep]
    return rows


def as_triples(composed):
    return [
        (int(i), int(j), frozenset(int(k) for k in np.flatnonzero(label)))
        for i, j, label in zip(composed.verb_src, composed.object_src, composed.label)
    ]


class TestComposeBatch:
    def test_new_concept_between_images(self, toy_space):
        rng = np.random.default_rng(0)
        batch = make_dataset([
            make_row(toy_space, [1], image_id=1, rng=rng),  # feed-horse
            make_row(toy_space, [2], image_id=2, rng=rng),  # ride-bicycle
        ])
        cfg = ComposeConfig(mode="between", balance=False)
        out = compose_batch(batch, toy_space, cfg, np.random.default_rng(0))
        assert len(out) == 1
        assert (out.verb_src.tolist(), out.object_src.tolist()) == ([1], [0])  # ride verbs onto the horse
        assert np.flatnonzero(out.label[0]).tolist() == [0]  # ride-horse
        np.testing.assert_array_equal(out.verb_feat[0], batch[1].verb_feat)
        np.testing.assert_array_equal(out.object_feat[0], batch[0].object_feat)

    def test_mode_off(self, toy_space):
        rng = np.random.default_rng(0)
        batch = make_dataset([make_row(toy_space, [0], image_id=0, rng=rng),
                              make_row(toy_space, [1], image_id=0, rng=rng)])
        out = compose_batch(batch, toy_space, ComposeConfig(mode="off"), np.random.default_rng(0))
        assert len(out) == 0
        assert out.label.shape == (0, toy_space.num_hois)

    def test_empty_batch(self, toy_space):
        with pytest.raises(EmptyBatch):
            compose_batch(make_row(toy_space, [0])[:0], toy_space, ComposeConfig(), np.random.default_rng(0))

    def test_bad_config(self, toy_space):
        batch = make_row(toy_space, [0])
        with pytest.raises(InvalidConfig):
            compose_batch(batch, toy_space, ComposeConfig(mode="sideways"), np.random.default_rng(0))
        with pytest.raises(InvalidConfig):
            compose_batch(
                batch, toy_space, ComposeConfig(interactions_per_minibatch=0), np.random.default_rng(0)
            )

    def _random_batch(self, rng, space, defs, size=8):
        batch = []
        for k in range(size):
            c = int(rng.integers(space.num_hois))
            batch.append(
                make_row(space, [c], image_id=int(rng.integers(4)), rng=rng)
            )
        return make_dataset(batch)

    def test_random_against_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            space, defs = draw_space(rng, max_verbs=6, max_objects=5, max_hois=12)
            batch = self._random_batch(rng, space, defs)
            for mode in ("within", "between", "both"):
                cfg = ComposeConfig(mode=mode, balance=False)
                got = as_triples(compose_batch(batch, space, cfg, np.random.default_rng(0)))
                want = brute_candidates(batch, defs, mode)
                assert got == want

    def test_within_between_partition_both(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            space, defs = draw_space(rng, max_verbs=6, max_objects=5, max_hois=12)
            batch = self._random_batch(rng, space, defs)
            outs = {
                mode: as_triples(
                    compose_batch(batch, space, ComposeConfig(mode=mode, balance=False), np.random.default_rng(0))
                )
                for mode in ("within", "between", "both")
            }
            assert sorted(outs["within"] + outs["between"]) == sorted(outs["both"])
            assert not set(outs["within"]) & set(outs["between"])

    def test_balance_caps_at_real_count(self):
        rng = np.random.default_rng(3)
        space = build_space(TOY_DEFS)
        batch = make_dataset([
            make_row(space, [int(rng.integers(3))], image_id=int(rng.integers(3)), rng=rng)
            for _ in range(6)
        ])
        balanced = compose_batch(space=space, batch=batch, cfg=ComposeConfig(mode="both", balance=True), rng=np.random.default_rng(5))
        unbalanced = compose_batch(batch, space, ComposeConfig(mode="both", balance=False), np.random.default_rng(5))
        assert len(balanced) == min(len(unbalanced), len(batch))
        assert set(as_triples(balanced)) <= set(as_triples(unbalanced))

    def test_deterministic(self, toy_space):
        rng = np.random.default_rng(1)
        batch = make_dataset([
            make_row(toy_space, [int(rng.integers(3))], image_id=int(rng.integers(2)), rng=rng)
            for _ in range(7)
        ])
        cfg = ComposeConfig(mode="both", balance=True)
        a = as_triples(compose_batch(batch, toy_space, cfg, np.random.default_rng(42)))
        b = as_triples(compose_batch(batch, toy_space, cfg, np.random.default_rng(42)))
        assert a == b

    def test_no_self_pairs(self, toy_space):
        rng = np.random.default_rng(2)
        batch = make_dataset([make_row(toy_space, [0], image_id=0, rng=rng) for _ in range(4)])
        out = compose_batch(batch, toy_space, ComposeConfig(mode="both", balance=False), np.random.default_rng(0))
        assert len(out) > 0
        assert np.all(out.verb_src != out.object_src)

    def test_every_label_feasible(self):
        rng = np.random.default_rng(13)
        space, defs = draw_space(rng, max_verbs=6, max_objects=5, max_hois=12)
        batch = self._random_batch(rng, space, defs)
        out = compose_batch(batch, space, ComposeConfig(mode="both", balance=False), np.random.default_rng(0))
        assert out.label.any(axis=1).all()

    def test_matches_legacy_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            space, defs = draw_space(rng, max_verbs=6, max_objects=5, max_hois=12)
            batch = self._random_batch(rng, space, defs, size=int(rng.integers(1, 11)))
            unseen = frozenset(int(c) for c in np.flatnonzero(rng.random(space.num_hois) < 0.3))
            verb_feat, object_feat = batch.verb_feat, batch.object_feat
            for mode, balance, unseen_allowed in itertools.product(MODES, (True, False), (True, False)):
                cfg = ComposeConfig(mode=mode, balance=balance,
                                    unseen_allowed=unseen_allowed, unseen_ids=unseen)
                seed = int(rng.integers(1 << 30))
                rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
                got = compose_batch(batch, space, cfg, rng_new)
                want = legacy_compose(batch, space, cfg, rng_old)
                i = [r[0] for r in want]
                j = [r[1] for r in want]
                assert got.verb_src.tolist() == i and got.object_src.tolist() == j
                assert got.verb_feat.tobytes() == verb_feat[i].tobytes()
                assert got.object_feat.tobytes() == object_feat[j].tobytes()
                assert got.label.dtype == np.float64
                np.testing.assert_array_equal(
                    got.label, np.array([r[2] for r in want]).reshape(len(want), space.num_hois)
                )
                assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestUnseenHandling:
    def test_unseen_bits_zeroed_when_disallowed(self, toy_space):
        rng = np.random.default_rng(0)
        batch = make_dataset([
            make_row(toy_space, [1], image_id=1, rng=rng),  # feed-horse
            make_row(toy_space, [2], image_id=2, rng=rng),  # ride-bicycle
        ])
        # ride-horse (class 0) is unseen: the only composition dies entirely
        cfg = ComposeConfig(mode="between", balance=False, unseen_allowed=False,
                            unseen_ids=frozenset({0}))
        assert len(compose_batch(batch, toy_space, cfg, np.random.default_rng(0))) == 0

    def test_unseen_bits_kept_when_allowed(self, toy_space):
        rng = np.random.default_rng(0)
        batch = make_dataset([
            make_row(toy_space, [1], image_id=1, rng=rng),
            make_row(toy_space, [2], image_id=2, rng=rng),
        ])
        cfg = ComposeConfig(mode="between", balance=False, unseen_allowed=True,
                            unseen_ids=frozenset({0}))
        out = compose_batch(batch, toy_space, cfg, np.random.default_rng(0))
        assert len(out) == 1
        assert np.flatnonzero(out.label[0]).tolist() == [0]

    def test_seen_bits_survive_partial_zeroing(self):
        # two classes share the object; only one is unseen
        defs = (((0,), 0), ((1,), 0))
        space = build_space(defs)
        rng = np.random.default_rng(4)
        batch = make_dataset([
            make_row(space, [0, 1], image_id=0, rng=rng),
            make_row(space, [0], image_id=1, rng=rng),
        ])
        cfg = ComposeConfig(mode="both", balance=False, unseen_allowed=False,
                            unseen_ids=frozenset({0}))
        out = compose_batch(batch, space, cfg, np.random.default_rng(0))
        # verb source 0 carries both verbs; composition onto object 0 keeps class 1 only
        labels = {(i, j): sorted(classes) for i, j, classes in as_triples(out)}
        assert labels[(0, 1)] == [1]
