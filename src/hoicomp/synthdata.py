"""Seeded synthetic long-tail interaction datasets in feature space.

Stands in for an image backbone: a dataset is one ``Dataset`` of columns, and
row k is one human-object pair with detector-style boxes and scores plus
human/verb/object feature vectors drawn from class-conditional isotropic
Gaussians. Verb-conditioned generators depend only on the verb set
and object-conditioned generators only on the object, so features are
shareable across interaction classes by construction. Class frequencies
follow a Zipf law over class rank, giving the long tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from .errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidBox,
    InvalidConfig,
    ParseError,
    read_text_lines,
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
class Dataset:
    """Human-object pairs as columns; row k of every column is pair k.

    Boxes are (x1, y1, x2, y2) rows that satisfy ``Box2D``'s checks, and each
    label row is a multi-hot vector over the label space's classes.
    """

    image_id: np.ndarray      # (N,) int64
    human_box: np.ndarray     # (N, 4) float64
    object_box: np.ndarray    # (N, 4) float64
    human_score: np.ndarray   # (N,) float64
    object_score: np.ndarray  # (N,) float64
    human_feat: np.ndarray    # (N, D) float64
    verb_feat: np.ndarray     # (N, D) float64
    object_feat: np.ndarray   # (N, D) float64
    label: np.ndarray         # (N, C) uint8
    object_id: np.ndarray     # (N,) int64

    def __len__(self) -> int:
        return self.image_id.shape[0]

    def __getitem__(self, rows) -> "Dataset":
        """The selected rows (an index, slice, mask or index array) of every column."""
        return Dataset(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def empty_dataset(n: int, feature_dim: int, num_hois: int) -> Dataset:
    """A zero-filled dataset of ``n`` rows, to be written row by row."""
    return Dataset(
        image_id=np.zeros(n, dtype=np.int64),
        human_box=np.zeros((n, 4)),
        object_box=np.zeros((n, 4)),
        human_score=np.zeros(n),
        object_score=np.zeros(n),
        human_feat=np.zeros((n, feature_dim)),
        verb_feat=np.zeros((n, feature_dim)),
        object_feat=np.zeros((n, feature_dim)),
        label=np.zeros((n, num_hois), dtype=np.uint8),
        object_id=np.zeros(n, dtype=np.int64),
    )


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
) -> Dataset:
    num_hois = space.num_hois
    probs = zipf_probs(num_hois, cfg.zipf_exponent)
    primary = rng.choice(num_hois, size=n, p=probs) if n else np.empty(0, dtype=int)
    obj_by_hoi = space.objects_by_hoi()
    data = empty_dataset(n, cfg.feature_dim, num_hois)

    # pack consecutive instances into images of random size
    pos = 0
    next_image = image_id_start
    while pos < n:
        take = int(rng.integers(1, cfg.max_instances_per_image + 1))
        data.image_id[pos : pos + take] = next_image
        next_image += 1
        pos += take

    for i in range(n):
        c = int(primary[i])
        label = data.label[i]
        label[c] = 1
        u = rng.random()
        if u < cfg.multi_label_frac and model.same_object[c].size:
            extra = int(rng.choice(model.same_object[c], p=model.same_object_probs[c]))
            label[extra] = 1
        active = np.flatnonzero(label)
        verbs = sorted({v for a in active for v in space.verbs_of(int(a))})
        obj = int(obj_by_hoi[c])

        data.verb_feat[i] = model.verb_set_mean(verbs, model.verb_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        data.human_feat[i] = model.verb_set_mean(verbs, model.human_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        data.object_feat[i] = model.object_means[obj] + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)

        geometry_verb = min(space.verbs_of(c))
        human_box, object_box = _sample_boxes(geometry_verb, obj, cfg, model, rng)
        data.human_box[i] = human_box.as_tuple()
        data.object_box[i] = object_box.as_tuple()
        data.human_score[i] = rng.uniform(cfg.score_low, cfg.score_high)
        data.object_score[i] = rng.uniform(cfg.score_low, cfg.score_high)
        data.object_id[i] = obj
    return data


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
    test_start = int(train.image_id[-1]) + 1 if len(train) else 0
    test = _generate_split(cfg.n_test, space, cfg, model, rngmod.stream(cfg.seed, "test-data"), test_start)
    return train, test, space


def class_counts(data: Dataset, space: HoiLabelSpace) -> np.ndarray:
    """Training instances per class; a multi-label instance counts once per active bit."""
    if data.label.shape[1] != space.num_hois:
        raise DimensionMismatch(f"labels have {data.label.shape[1]} classes, space has {space.num_hois}")
    return data.label.sum(axis=0, dtype=np.int64)


# ---- dataset file format ----
# Header: key<TAB>value lines, then a [space] section holding the label-space
# lines, then [instances] with one instance per line:
# image_id  hbox  obox  s_h  s_o  object_id  hoi_ids  human_feat  verb_feat  object_feat
# (tab separated; boxes and feature vectors comma separated, full precision)


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def format_row(data: Dataset, k: int) -> str:
    """Row ``k`` of ``data`` as one dataset file line, without the newline."""
    return "\t".join(
        [
            str(data.image_id[k]),
            _fmt_floats(data.human_box[k]),
            _fmt_floats(data.object_box[k]),
            repr(float(data.human_score[k])),
            repr(float(data.object_score[k])),
            str(data.object_id[k]),
            ",".join(str(c) for c in np.flatnonzero(data.label[k])),
            _fmt_floats(data.human_feat[k]),
            _fmt_floats(data.verb_feat[k]),
            _fmt_floats(data.object_feat[k]),
        ]
    )


def save_dataset(data: Dataset, space: HoiLabelSpace, path):
    dim = data.human_feat.shape[1] if len(data) else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"feature_dim\t{dim}\n")
        fh.write(f"num_instances\t{len(data)}\n")
        fh.write("[space]\n")
        fh.write(format_space(space))
        fh.write("[instances]\n")
        for k in range(len(data)):
            fh.write(format_row(data, k) + "\n")


def _parse_floats(text: str, lineno: int, column: int, expect: int) -> list[float]:
    parts = text.split(",") if text else []
    try:
        vals = list(map(float, parts))
    except ValueError:
        raise ParseError(f"bad float in {text!r}", line=lineno, column=column) from None
    if len(vals) != expect:
        raise DimensionMismatch(f"line {lineno}: expected {expect} floats, got {len(vals)}")
    return vals


def _parse_row(line: str, lineno: int, objects: list[int], feature_dim: int) -> tuple:
    """One dataset file line as a tuple of ``Dataset`` column values, in
    field order; the label is given as its list of active class ids.
    ``objects[c]`` is the object id of class c."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 10:
        raise ParseError(f"expected 10 tab-separated fields, got {len(parts)}", line=lineno)
    try:
        image_id = int(parts[0])
        object_id = int(parts[5])
    except ValueError:
        raise ParseError("bad integer field", line=lineno) from None
    if not -(2**63) <= image_id < 2**63:
        raise ParseError("image id outside the int64 range", line=lineno, column=1)
    boxes = [_parse_floats(parts[column - 1], lineno, column, expect=4) for column in (2, 3)]
    for column, box in zip((2, 3), boxes):
        try:
            Box2D(*box)
        except InvalidBox as exc:
            raise InvalidBox(f"line {lineno}, column {column}: {exc}") from None
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
    for c in hoi_ids:
        if not 0 <= c < len(objects):
            raise ParseError(f"interaction id {c} outside label space", line=lineno, column=7)
        if objects[c] != object_id:
            raise InconsistentLabel(
                f"line {lineno}: interaction {c} has object {objects[c]}, instance says {object_id}"
            )
    return (
        image_id,
        boxes[0],
        boxes[1],
        s_h,
        s_o,
        _parse_floats(parts[7], lineno, 8, expect=feature_dim),
        _parse_floats(parts[8], lineno, 9, expect=feature_dim),
        _parse_floats(parts[9], lineno, 10, expect=feature_dim),
        hoi_ids,
        object_id,
    )


def load_dataset(path):
    """Load (dataset, space) from a dataset file; see ``save_dataset``."""
    lines = read_text_lines(path)

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

    objects = space.objects_by_hoi().tolist()
    body = [lineno for lineno in range(idx, len(lines)) if lines[lineno].strip()]
    if body:  # confirm feature_dim on the first row before allocating by it
        _parse_row(lines[body[0]], body[0] + 1, objects, feature_dim)
    data = empty_dataset(len(body), feature_dim if body else 0, space.num_hois)
    for k, lineno in enumerate(body):
        row = _parse_row(lines[lineno], lineno + 1, objects, feature_dim)
        (data.image_id[k], data.human_box[k], data.object_box[k], data.human_score[k],
         data.object_score[k], data.human_feat[k], data.verb_feat[k], data.object_feat[k],
         hoi_ids, data.object_id[k]) = row
        data.label[k, hoi_ids] = 1
    if len(body) != num_instances:
        raise ParseError(
            f"header declares {num_instances} instances, file holds {len(body)}",
            line=len(lines),
        )
    return data, space
