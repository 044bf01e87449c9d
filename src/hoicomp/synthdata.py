"""Seeded synthetic long-tail interaction datasets in feature space.

Stands in for an image backbone: each instance carries detector-style boxes
and scores plus human/verb/object feature vectors drawn from class-conditional
isotropic Gaussians. Verb-conditioned generators depend only on the verb set
and object-conditioned generators only on the object, so features are
shareable across interaction classes by construction. Class frequencies
follow a Zipf law over class rank, giving the long tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidConfig,
    ParseError,
)
from .label_algebra import (
    HoiLabelSpace,
    build_space,
    canonical_defs,
    format_space,
    parse_space,
)
from .spatial import Box2D


@dataclass(frozen=True)
class Instance:
    """One human-object pair: boxes, detection scores, features, label."""

    image_id: int
    human_box: Box2D
    object_box: Box2D
    human_score: float
    object_score: float
    human_feat: np.ndarray
    verb_feat: np.ndarray
    object_feat: np.ndarray
    label: np.ndarray
    object_id: int


@dataclass(frozen=True)
class DatasetConfig:
    """Generator settings; fully determines the dataset given ``seed``."""

    num_verbs: int
    num_objects: int
    hoi_defs: tuple
    zipf_exponent: float = 1.5
    n_train: int = 20000
    n_test: int = 3000
    feature_dim: int = 32
    class_sep: float = 6.0
    noise_sigma: float = 1.0
    seed: int = 0
    multi_label_frac: float = 0.1
    max_instances_per_image: int = 3
    score_low: float = 0.5
    score_high: float = 1.0
    geom_jitter: float = 0.08  # spread of box geometry around its class layout

    def validate(self):
        if self.zipf_exponent < 0:
            raise InvalidConfig("zipf_exponent must be >= 0")
        if self.class_sep <= 0:
            raise InvalidConfig("class_sep must be > 0")
        if self.feature_dim < 2:
            raise InvalidConfig("feature_dim must be >= 2")
        if self.n_train < 0 or self.n_test < 0:
            raise InvalidConfig("instance counts must be non-negative")
        if not 0 <= self.multi_label_frac <= 1:
            raise InvalidConfig("multi_label_frac must lie in [0, 1]")
        if self.max_instances_per_image < 1:
            raise InvalidConfig("max_instances_per_image must be >= 1")
        if not 0 <= self.score_low <= self.score_high <= 1:
            raise InvalidConfig("score range must satisfy 0 <= low <= high <= 1")
        if not 0 <= self.geom_jitter < 1:
            raise InvalidConfig("geom_jitter must lie in [0, 1)")


def zipf_probs(num_classes: int, exponent: float) -> np.ndarray:
    """Probability of class c proportional to (c + 1) ** -exponent."""
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    mass = ranks ** (-exponent)
    return mass / mass.sum()


def random_hoi_defs(
    num_verbs: int,
    num_objects: int,
    num_hois: int,
    rng: np.random.Generator,
    multi_verb_frac: float = 0.15,
) -> tuple:
    """Random distinct (verb set, object) definitions covering every id.

    The first max(num_verbs, num_objects) classes guarantee coverage; the
    rest are uniform random pairs. A fraction of classes gets a second verb
    to exercise multi-verb labels.
    """
    if num_hois < max(num_verbs, num_objects):
        raise InvalidConfig("num_hois too small to cover every verb and object")
    if num_hois > num_verbs * num_objects:
        raise InvalidConfig("num_hois exceeds the number of distinct verb-object pairs")

    pairs = set()
    order_v = rng.permutation(num_verbs)
    order_o = rng.permutation(num_objects)
    for i in range(max(num_verbs, num_objects)):
        v = int(order_v[i % num_verbs])
        o = int(order_o[i % num_objects])
        while (v, o) in pairs:
            o = int(rng.integers(num_objects))
        pairs.add((v, o))
    while len(pairs) < num_hois:
        pairs.add((int(rng.integers(num_verbs)), int(rng.integers(num_objects))))

    pair_list = sorted(pairs)
    rng.shuffle(pair_list)
    taken = {(frozenset({v}), o) for v, o in pair_list}
    defs = []
    for v, o in pair_list:
        verbs = (v,)
        if num_verbs > 1 and rng.random() < multi_verb_frac:
            v2 = int(rng.integers(num_verbs - 1))
            v2 = v2 + 1 if v2 >= v else v2
            cand = (frozenset({v, v2}), o)
            if cand not in taken:
                taken.add(cand)
                verbs = tuple(sorted({v, v2}))
        defs.append((verbs, o))
    # appearance-ordered ids so built spaces round-trip the text format exactly
    return canonical_defs(defs)


def _layout_tables(num_verbs: int, num_objects: int, rng: np.random.Generator):
    """Box layout: relative placement per verb, characteristic size per object."""
    return {
        "angle": rng.uniform(0.0, 2 * math.pi, size=num_verbs),
        "dist": rng.uniform(0.5, 1.3, size=num_verbs),
        "scale": rng.uniform(0.3, 1.1, size=num_objects),
    }


def _sphere_points(n: int, dim: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    pts = rng.standard_normal((n, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * radius


def _shift_non_negative(x1, y1, x2, y2) -> Box2D:
    if x1 < 0:
        x2 -= x1
        x1 = 0.0
    if y1 < 0:
        y2 -= y1
        y1 = 0.0
    return Box2D(x1, y1, x2, y2)


class _FeatureModel:
    """Frozen per-space generator parameters (means and geometry)."""

    def __init__(self, space: HoiLabelSpace, cfg: DatasetConfig):
        setup = rngmod.stream(cfg.seed, "space-setup")
        dim = cfg.feature_dim
        self.verb_means = _sphere_points(space.num_verbs, dim, cfg.class_sep, setup)
        self.human_means = _sphere_points(space.num_verbs, dim, cfg.class_sep, setup)
        self.object_means = _sphere_points(space.num_objects, dim, cfg.class_sep, setup)
        self.geometry = _layout_tables(space.num_verbs, space.num_objects, setup)
        # same-object alternatives per class, for multi-label emission; the
        # second label is drawn by class frequency so the tail stays long
        obj_by_hoi = space.objects_by_hoi()
        probs = zipf_probs(space.num_hois, cfg.zipf_exponent)
        self.same_object = []
        self.same_object_probs = []
        for c in range(space.num_hois):
            others = np.flatnonzero(
                (obj_by_hoi == obj_by_hoi[c]) & (np.arange(space.num_hois) != c)
            )
            self.same_object.append(others)
            if others.size:
                w = probs[others]
                self.same_object_probs.append(w / w.sum())
            else:
                self.same_object_probs.append(np.empty(0))

    def verb_set_mean(self, verbs, table: np.ndarray) -> np.ndarray:
        return table[list(verbs)].mean(axis=0)


def _sample_boxes(verb: int, obj_id: int, cfg: DatasetConfig, model: _FeatureModel, rng: np.random.Generator):
    geo = model.geometry
    jit = cfg.geom_jitter
    hw = rng.uniform(90.0, 170.0)
    hh = rng.uniform(90.0, 170.0)
    hcx = rng.uniform(250.0, 750.0)
    hcy = rng.uniform(250.0, 750.0)
    angle = geo["angle"][verb] + rng.normal(0.0, jit)
    dist = geo["dist"][verb] * rng.uniform(1 - jit, 1 + jit) * 0.5 * (hw + hh)
    scale = geo["scale"][obj_id] * rng.uniform(1 - jit, 1 + jit)
    ocx = hcx + dist * math.cos(angle)
    ocy = hcy + dist * math.sin(angle)
    ow = max(scale * hw, 8.0)
    oh = max(scale * hh, 8.0)
    human = _shift_non_negative(hcx - hw / 2, hcy - hh / 2, hcx + hw / 2, hcy + hh / 2)
    obj = _shift_non_negative(ocx - ow / 2, ocy - oh / 2, ocx + ow / 2, ocy + oh / 2)
    return human, obj


def _generate_split(
    n: int,
    space: HoiLabelSpace,
    cfg: DatasetConfig,
    model: _FeatureModel,
    rng: np.random.Generator,
    image_id_start: int,
) -> list[Instance]:
    num_hois = space.num_hois
    probs = zipf_probs(num_hois, cfg.zipf_exponent)
    primary = rng.choice(num_hois, size=n, p=probs) if n else np.empty(0, dtype=int)
    obj_by_hoi = space.objects_by_hoi()

    # pack consecutive instances into images of random size
    image_ids = np.empty(n, dtype=np.int64)
    pos = 0
    next_image = image_id_start
    while pos < n:
        take = int(rng.integers(1, cfg.max_instances_per_image + 1))
        image_ids[pos : pos + take] = next_image
        next_image += 1
        pos += take

    instances = []
    for i in range(n):
        c = int(primary[i])
        label = np.zeros(num_hois, dtype=np.uint8)
        label[c] = 1
        u = rng.random()
        if u < cfg.multi_label_frac and model.same_object[c].size:
            extra = int(rng.choice(model.same_object[c], p=model.same_object_probs[c]))
            label[extra] = 1
        active = np.flatnonzero(label)
        verbs = sorted({v for a in active for v in space.verbs_of(int(a))})
        obj = int(obj_by_hoi[c])

        verb_feat = model.verb_set_mean(verbs, model.verb_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        human_feat = model.verb_set_mean(verbs, model.human_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        object_feat = model.object_means[obj] + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)

        geometry_verb = min(space.verbs_of(c))
        human_box, object_box = _sample_boxes(geometry_verb, obj, cfg, model, rng)
        s_h = rng.uniform(cfg.score_low, cfg.score_high)
        s_o = rng.uniform(cfg.score_low, cfg.score_high)
        instances.append(
            Instance(
                image_id=int(image_ids[i]),
                human_box=human_box,
                object_box=object_box,
                human_score=float(s_h),
                object_score=float(s_o),
                human_feat=human_feat,
                verb_feat=verb_feat,
                object_feat=object_feat,
                label=label,
                object_id=obj,
            )
        )
    return instances


def generate(cfg: DatasetConfig):
    """Generate (train, test, space) deterministically from ``cfg.seed``.

    Train and test are drawn from disjoint named streams of the same seed,
    so changing one split's size never perturbs the other.
    """
    cfg.validate()
    space = build_space(
        cfg.hoi_defs,
        verb_names=tuple(f"verb{v}" for v in range(cfg.num_verbs)),
        object_names=tuple(f"object{o}" for o in range(cfg.num_objects)),
    )
    model = _FeatureModel(space, cfg)
    train = _generate_split(cfg.n_train, space, cfg, model, rngmod.stream(cfg.seed, "train-data"), 0)
    test_start = train[-1].image_id + 1 if train else 0
    test = _generate_split(cfg.n_test, space, cfg, model, rngmod.stream(cfg.seed, "test-data"), test_start)
    return train, test, space


def class_counts(instances: list[Instance], space: HoiLabelSpace) -> np.ndarray:
    """Training instances per class; a multi-label instance counts once per active bit."""
    counts = np.zeros(space.num_hois, dtype=np.int64)
    for inst in instances:
        counts += inst.label
    return counts


# ---- dataset file format ----
# Header: key<TAB>value lines, then a [space] section holding the label-space
# lines, then [instances] with one instance per line:
# image_id  hbox  obox  s_h  s_o  object_id  hoi_ids  human_feat  verb_feat  object_feat
# (tab separated; boxes and feature vectors comma separated, full precision)


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def format_instance(inst: Instance) -> str:
    return "\t".join(
        [
            str(inst.image_id),
            _fmt_floats(inst.human_box.as_tuple()),
            _fmt_floats(inst.object_box.as_tuple()),
            repr(float(inst.human_score)),
            repr(float(inst.object_score)),
            str(inst.object_id),
            ",".join(str(int(c)) for c in np.flatnonzero(inst.label)),
            _fmt_floats(inst.human_feat),
            _fmt_floats(inst.verb_feat),
            _fmt_floats(inst.object_feat),
        ]
    )


def save_dataset(instances: list[Instance], space: HoiLabelSpace, path):
    dim = len(instances[0].human_feat) if instances else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"feature_dim\t{dim}\n")
        fh.write(f"num_instances\t{len(instances)}\n")
        fh.write("[space]\n")
        fh.write(format_space(space))
        fh.write("[instances]\n")
        for inst in instances:
            fh.write(format_instance(inst) + "\n")


def _parse_floats(text: str, lineno: int, column: int, expect=None) -> np.ndarray:
    parts = text.split(",") if text else []
    try:
        vals = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError:
        raise ParseError(f"bad float in {text!r}", line=lineno, column=column) from None
    if expect is not None and len(vals) != expect:
        raise DimensionMismatch(f"line {lineno}: expected {expect} floats, got {len(vals)}")
    return vals


def parse_instance(line: str, lineno: int, space: HoiLabelSpace, feature_dim: int) -> Instance:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 10:
        raise ParseError(f"expected 10 tab-separated fields, got {len(parts)}", line=lineno)
    try:
        image_id = int(parts[0])
        object_id = int(parts[5])
    except ValueError:
        raise ParseError("bad integer field", line=lineno) from None
    hbox = _parse_floats(parts[1], lineno, 2, expect=4)
    obox = _parse_floats(parts[2], lineno, 3, expect=4)
    try:
        s_h = float(parts[3])
        s_o = float(parts[4])
    except ValueError:
        raise ParseError("bad score field", line=lineno, column=4) from None
    for column, score in ((4, s_h), (5, s_o)):
        if not 0.0 <= score <= 1.0:  # also rejects nan
            raise ParseError(f"detector score {score} outside [0, 1]", line=lineno, column=column)
    try:
        hoi_ids = [int(p) for p in parts[6].split(",") if p]
    except ValueError:
        raise ParseError(f"bad interaction id list {parts[6]!r}", line=lineno, column=7) from None
    if not hoi_ids:
        raise InconsistentLabel(f"line {lineno}: instance without active interaction")
    label = np.zeros(space.num_hois, dtype=np.uint8)
    for c in hoi_ids:
        if not 0 <= c < space.num_hois:
            raise ParseError(f"interaction id {c} outside label space", line=lineno, column=7)
        if space.object_of(c) != object_id:
            raise InconsistentLabel(
                f"line {lineno}: interaction {c} has object {space.object_of(c)}, instance says {object_id}"
            )
        label[c] = 1
    return Instance(
        image_id=image_id,
        human_box=Box2D(*hbox),
        object_box=Box2D(*obox),
        human_score=s_h,
        object_score=s_o,
        human_feat=_parse_floats(parts[7], lineno, 8, expect=feature_dim),
        verb_feat=_parse_floats(parts[8], lineno, 9, expect=feature_dim),
        object_feat=_parse_floats(parts[9], lineno, 10, expect=feature_dim),
        label=label,
        object_id=object_id,
    )


def load_dataset(path):
    """Load (instances, space) from a dataset file; see ``save_dataset``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()

    header = {}
    idx = 0
    while idx < len(lines) and not lines[idx].startswith("["):
        line = lines[idx].rstrip("\n")
        if line.strip():
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("bad header line", line=idx + 1)
            header[parts[0]] = parts[1]
        idx += 1
    for key in ("feature_dim", "num_instances"):
        if key not in header:
            raise ParseError(f"missing header key {key!r}", line=idx + 1)
    try:
        feature_dim = int(header["feature_dim"])
        num_instances = int(header["num_instances"])
    except ValueError:
        raise ParseError("non-integer header value", line=1) from None

    if idx >= len(lines) or lines[idx].rstrip("\n") != "[space]":
        raise ParseError("expected [space] section", line=idx + 1)
    idx += 1
    space_start = idx
    while idx < len(lines) and lines[idx].rstrip("\n") != "[instances]":
        idx += 1
    if idx >= len(lines):
        raise ParseError("expected [instances] section", line=idx)
    space = parse_space(lines[space_start:idx], start_line=space_start + 1)
    idx += 1

    instances = []
    for lineno in range(idx, len(lines)):
        line = lines[lineno]
        if not line.strip():
            continue
        instances.append(parse_instance(line, lineno + 1, space, feature_dim))
    if len(instances) != num_instances:
        raise ParseError(
            f"header declares {num_instances} instances, file holds {len(instances)}",
            line=len(lines),
        )
    return instances, space
