"""Seeded synthetic long-tail interaction datasets in feature space.

Stands in for an image backbone: a dataset is one ``Dataset`` of columns, and
row k is one human-object pair with detector-style boxes and scores plus
human/verb/object feature vectors drawn from class-conditional isotropic
Gaussians. Verb-conditioned generators depend only on the verb set
and object-conditioned generators only on the object, so features are
shareable across interaction classes by construction. Class frequencies
follow a Zipf law over class rank, giving the long tail. The detector-score
range, the box-geometry jitter and the share of two-verb classes are module
constants (``SCORE_RANGE``, ``GEOM_JITTER``, ``MULTI_VERB_FRAC``), not
``DatasetConfig`` fields.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rngmod
from .errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidConfig,
    ParseError,
)
from .label_algebra import HoiLabelSpace, build_space, canonical_defs
from .spatial import check_boxes

SCORE_RANGE = (0.5, 1.0)  # detector scores, uniform over [low, high)
GEOM_JITTER = 0.08  # spread of box geometry around its class layout
MULTI_VERB_FRAC = 0.15  # share of classes random_hoi_defs gives a second verb


@dataclass(frozen=True)
class Dataset:
    """Human-object pairs as columns; row k of every column is pair k.

    Boxes are (x1, y1, x2, y2) rows that pass ``spatial.check_boxes``. Each
    label row holds the pair's active classes as bits, ``label_bytes(C)``
    bytes for C classes in ``np.packbits`` order: class c is bit
    ``0x80 >> (c % 8)`` of byte ``c // 8``, and the padding bits after the
    last class are zero. ``unpack_labels`` gives the dense 0/1 rows. A
    dataset that ``load_dataset`` read with ``labels_only`` holds None in
    every column but ``label`` and ``object_id``.
    """

    image_id: np.ndarray      # (N,) int64
    human_box: np.ndarray     # (N, 4) float64
    object_box: np.ndarray    # (N, 4) float64
    human_score: np.ndarray   # (N,) float64
    object_score: np.ndarray  # (N,) float64
    human_feat: np.ndarray    # (N, D) float64
    verb_feat: np.ndarray     # (N, D) float64
    object_feat: np.ndarray   # (N, D) float64
    label: np.ndarray         # (N, ceil(C / 8)) uint8, packed bits
    object_id: np.ndarray     # (N,) int64

    def __len__(self) -> int:
        return self.label.shape[0]

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
        label=np.zeros((n, label_bytes(num_hois)), dtype=np.uint8),
        object_id=np.zeros(n, dtype=np.int64),
    )


def label_bytes(num_hois: int) -> int:
    """Bytes of one packed label row: a bit per class, eight classes a byte."""
    return (num_hois + 7) // 8


def unpack_labels(label: np.ndarray, num_hois: int | None = None) -> np.ndarray:
    """The dense (N, C) uint8 0/1 rows of packed labels: ``num_hois``
    columns, or every bit of each row, zero padding included, when None."""
    return np.unpackbits(label, axis=1, count=num_hois)


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

    def __post_init__(self):
        # written so that nan fails each check
        if not 0 <= self.zipf_exponent < math.inf:
            raise InvalidConfig("zipf_exponent must be finite and >= 0")
        if not 0 < self.class_sep < math.inf:
            raise InvalidConfig("class_sep must be finite and > 0")
        if not 0 <= self.noise_sigma < math.inf:
            raise InvalidConfig("noise_sigma must be finite and >= 0")
        if self.feature_dim < 2:
            raise InvalidConfig("feature_dim must be >= 2")
        if self.n_train < 0 or self.n_test < 0:
            raise InvalidConfig("instance counts must be non-negative")
        if not 0 <= self.multi_label_frac <= 1:
            raise InvalidConfig("multi_label_frac must lie in [0, 1]")
        if self.max_instances_per_image < 1:
            raise InvalidConfig("max_instances_per_image must be >= 1")
        rngmod.check_seed(self.seed)


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
) -> tuple:
    """Random distinct (verb set, object) definitions covering every id.

    The first max(num_verbs, num_objects) classes guarantee coverage; the
    rest are uniform random pairs. A ``MULTI_VERB_FRAC`` share of classes
    gets a second verb to exercise multi-verb labels.
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
        if num_verbs > 1 and rng.random() < MULTI_VERB_FRAC:
            v2 = int(rng.integers(num_verbs - 1))
            v2 = v2 + 1 if v2 >= v else v2
            cand = (frozenset({v, v2}), o)
            if cand not in taken:
                taken.add(cand)
                verbs = tuple(sorted({v, v2}))
        defs.append((verbs, o))
    # ids in order of first appearance; generated data depends on this order
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


def _shift_non_negative(x1, y1, x2, y2) -> tuple[float, float, float, float]:
    if x1 < 0:
        x2 -= x1
        x1 = 0.0
    if y1 < 0:
        y2 -= y1
        y1 = 0.0
    return x1, y1, x2, y2


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


def _sample_boxes(verb: int, obj_id: int, model: _FeatureModel, rng: np.random.Generator):
    geo = model.geometry
    hw = rng.uniform(90.0, 170.0)
    hh = rng.uniform(90.0, 170.0)
    hcx = rng.uniform(250.0, 750.0)
    hcy = rng.uniform(250.0, 750.0)
    angle = geo["angle"][verb] + rng.normal(0.0, GEOM_JITTER)
    dist = geo["dist"][verb] * rng.uniform(1 - GEOM_JITTER, 1 + GEOM_JITTER) * 0.5 * (hw + hh)
    scale = geo["scale"][obj_id] * rng.uniform(1 - GEOM_JITTER, 1 + GEOM_JITTER)
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
        active = [c]
        u = rng.random()
        if u < cfg.multi_label_frac and model.same_object[c].size:
            active.append(int(rng.choice(model.same_object[c], p=model.same_object_probs[c])))
        for a in active:
            data.label[i, a // 8] |= 0x80 >> (a % 8)
        verbs = sorted({v for a in active for v in space.verbs_of(a)})
        obj = int(obj_by_hoi[c])

        data.verb_feat[i] = model.verb_set_mean(verbs, model.verb_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        data.human_feat[i] = model.verb_set_mean(verbs, model.human_means) + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)
        data.object_feat[i] = model.object_means[obj] + cfg.noise_sigma * rng.standard_normal(cfg.feature_dim)

        geometry_verb = min(space.verbs_of(c))
        data.human_box[i], data.object_box[i] = _sample_boxes(geometry_verb, obj, model, rng)
        data.human_score[i] = rng.uniform(*SCORE_RANGE)
        data.object_score[i] = rng.uniform(*SCORE_RANGE)
        data.object_id[i] = obj
    for name in ("human_box", "object_box"):
        check_boxes(getattr(data, name), lambda k: f"generated {name}, row {k}")
    return data


def generate(cfg: DatasetConfig):
    """Generate (train, test, space) deterministically from ``cfg.seed``.

    Train and test are drawn from disjoint named streams of the same seed,
    so changing one split's size never perturbs the other.
    """
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


# rows per block where labels are unpacked or checked: 600 KB of
# temporaries at 600 classes
LABEL_BLOCK_ROWS = 1024


def class_counts(data: Dataset, space: HoiLabelSpace) -> np.ndarray:
    """Training instances per class; a multi-label instance counts once per active bit.

    Unpacks ``LABEL_BLOCK_ROWS`` rows at a time and sums each block in
    ``uint16``, which no block can overflow, into ``int64`` counts.
    """
    label, num_hois = data.label, space.num_hois
    if label.shape[1] != label_bytes(num_hois):
        raise DimensionMismatch(
            f"labels are {label.shape[1]} bytes wide, a space of {num_hois} classes "
            f"takes {label_bytes(num_hois)}"
        )
    counts = np.zeros(num_hois, dtype=np.int64)
    for start in range(0, len(label), LABEL_BLOCK_ROWS):
        block = unpack_labels(label[start : start + LABEL_BLOCK_ROWS], num_hois)
        counts += block.sum(axis=0, dtype=np.uint16)
    return counts


# ---- archives: dataset, split and detections files ----
# Each is one uncompressed ``np.savez`` archive (a zip of ``.npy`` entries):
# the file's own entries, then the label space its classes belong to as
#   verb_hoi, object_hoi       (V, C), (O, C)   uint8 0/1
#   verb_names, object_names   (V,), (O,)       unicode
# (``SPACE_ENTRIES``), which ``read_archive`` builds into a ``HoiLabelSpace``.

SPACE_ENTRIES = ("verb_hoi", "object_hoi", "verb_names", "object_names")
_ZIP_MAGIC = b"PK\x03\x04"
# what np.load and the zip reader raise on bytes that are not a valid archive;
# an entry's header may declare any shape, hence OverflowError and MemoryError
_ARCHIVE_ERRORS = (
    ValueError, OSError, EOFError, zipfile.BadZipFile, zlib.error, NotImplementedError,
    OverflowError, MemoryError,
)


def write_archive(path, arrays: dict[str, np.ndarray], space: HoiLabelSpace):
    """Write ``arrays`` and then ``space``'s entries to ``path`` as one
    uncompressed archive, an entry per key in order. The bytes depend only
    on the values: numpy writes every zip entry with the same fixed timestamp."""
    names = {key: np.array(getattr(space, key), dtype=str) for key in SPACE_ENTRIES[2:]}
    # a file handle, because np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, verb_hoi=space.verb_hoi, object_hoi=space.object_hoi, **names)


def read_archive(path, kind: str, entries: tuple, names=None, space=None):
    """(arrays, the label space the file holds): the entries ``names`` (all
    of ``entries`` when None) of the archive at ``path``, and its space
    entries built into a ``HoiLabelSpace``, which checks them. Anything that
    is not an archive of exactly ``entries`` and ``SPACE_ENTRIES`` raises
    ``ParseError``, which calls the file a ``kind`` archive, and a name table
    that is not a 1-D unicode array ``DimensionMismatch``. Given ``space``,
    that of the dataset the file is read with (``--data`` on the command
    line), a file of another space raises ``InconsistentLabel``."""
    with open(path, "rb") as fh:
        # np.load would also take a lone .npy array or a pickle
        if fh.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise ParseError(f"not a {kind} archive (a zip of .npy entries)")
        fh.seek(0)
        try:
            # allow_pickle=False: an object array would unpickle, and so run,
            # code taken from the file
            with np.load(fh, allow_pickle=False) as archive:
                expected = sorted(entries + SPACE_ENTRIES)
                if sorted(archive.files) != expected:
                    raise ParseError(f"archive entries {sorted(archive.files)}, expected {expected}")
                arrays = {name: archive[name] for name in (names or entries) + SPACE_ENTRIES}
        except _ARCHIVE_ERRORS as exc:
            raise ParseError(f"not a {kind} archive: {exc}") from None
    for name, arr in arrays.items():
        if not isinstance(arr, np.ndarray):
            raise ParseError(f"entry {name!r} is not a .npy array")
    tables = [arrays.pop(key) for key in SPACE_ENTRIES]
    for key, table in zip(SPACE_ENTRIES[2:], tables[2:]):
        if table.ndim != 1 or table.dtype.kind != "U":
            raise DimensionMismatch(f"entry {key!r} is {table.dtype} {table.shape}, "
                                    "expected a 1-D unicode array")
    own = HoiLabelSpace(*tables[:2], *(tuple(table.tolist()) for table in tables[2:]))
    if space is not None and own != space:
        raise InconsistentLabel(f"{path} holds another label space than --data")
    return arrays, own


# ---- dataset file ----
# Each ``Dataset`` column is an entry named after its field, with the dtype
# and shape ``empty_dataset`` gives it: N rows, feature width D, C classes.
#   image_id, object_id                   (N,)            int64
#   human_box, object_box                 (N, 4)          float64
#   human_score, object_score             (N,)            float64
#   human_feat, verb_feat, object_feat    (N, D)          float64
#   label                                 (N, ceil(C/8))  uint8
# A label row holds its classes as bits in ``np.packbits`` order: class c is
# bit ``0x80 >> (c % 8)`` of byte ``c // 8``, and the bits after class C - 1
# are zero. A file with one byte per class is the wrong width, so it fails
# with ``DimensionMismatch`` on ``label`` (at C = 1, where the widths agree,
# with ``InconsistentLabel``, as its 1 is a bit beyond the last class).

COLUMNS = tuple(f.name for f in fields(Dataset))
# the columns load_dataset reads with labels_only: all that class counts need
LABEL_COLUMNS = ("label", "object_id")


def save_dataset(data: Dataset, space: HoiLabelSpace, path):
    """Write ``data`` and its label space to ``path`` as one archive, with
    the entries listed above."""
    write_archive(path, {name: getattr(data, name) for name in COLUMNS}, space)


def _check_rows(bad: np.ndarray, error, name: str, what: str, shown=None):
    """Raise ``error`` naming entry ``name`` and the first row where the
    mask ``bad`` holds; ``shown[row]`` is quoted if given."""
    if not bad.any():
        return
    k = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
    quoted = f" {shown[k].tolist()}" if shown is not None else ""
    raise error(f"entry {name!r}, row {k}: {what}{quoted}")


def load_dataset(path, labels_only: bool = False, space: HoiLabelSpace | None = None):
    """Load (dataset, space) from a file ``save_dataset`` wrote; given
    ``space``, a file of another space raises ``InconsistentLabel``.

    The archive must hold exactly the entries above, and every column is
    checked whole:
      - ``DimensionMismatch``: a dtype or shape differs from the table, or the
        columns disagree on N or D, or ``label`` on C;
      - ``ParseError``: a detector score is outside [0, 1] (or ``nan``), or a
        feature is not finite;
      - ``InvalidBox``: a box is not finite, negative, or not ordered
        (``x1 < x2``, ``y1 < y2``), as ``spatial.check_boxes`` defines;
      - ``InconsistentLabel``: a bit beyond the last class is set, a row has
        no active class, or an active class's object differs from
        ``object_id``.
    Each error names the entry; the value checks also name its first bad row.
    Bytes that are not such an archive raise ``ParseError``, and the space
    entries raise what ``read_archive`` raises.

    With ``labels_only``, only the ``label``, ``object_id`` and space
    entries are read, and checked as above; N is the label's row count, and
    every other column of the dataset is None. That is enough for
    ``class_counts`` and ``zeroshot.apply_split``.
    """
    columns = LABEL_COLUMNS if labels_only else COLUMNS
    arrays, space = read_archive(path, "dataset", COLUMNS, columns, space)

    first, feat = arrays[columns[0]], arrays.get("human_feat")
    n = first.shape[0] if first.ndim else 0
    template = empty_dataset(0, feat.shape[1] if feat is not None and feat.ndim == 2 else 0,
                             space.num_hois)
    for name in columns:
        arr, want = arrays[name], getattr(template, name)
        shape = (n,) + want.shape[1:]
        if arr.dtype != want.dtype or arr.shape != shape:
            raise DimensionMismatch(
                f"entry {name!r} is {arr.dtype} {arr.shape}, expected {want.dtype} {shape}"
            )
    data = Dataset(**{name: arrays.get(name) for name in COLUMNS})

    if not labels_only:
        for name in ("human_score", "object_score"):
            score = getattr(data, name)
            outside = ~((0.0 <= score) & (score <= 1.0))  # also nan
            _check_rows(outside, ParseError, name, "detector score outside [0, 1]:", score)
        for name in ("human_feat", "verb_feat", "object_feat"):
            _check_rows(~np.isfinite(getattr(data, name)), ParseError, name, "non-finite feature")
        for name in ("human_box", "object_box"):
            check_boxes(getattr(data, name), lambda k: f"entry {name!r}, row {k}")

    _check_label(data, space)
    return data, space


def _check_label(data: Dataset, space: HoiLabelSpace):
    """``load_dataset``'s label checks, on the packed bytes, each over every
    row before the next: a bit set beyond the last class, a row with no
    active class, then an active class whose object is not the row's
    ``object_id``. Temporaries are (N,) or one block of ``LABEL_BLOCK_ROWS``
    rows, never the size of the label."""
    label, object_id = data.label, data.object_id
    padding = 8 * label.shape[1] - space.num_hois  # the low bits of each row's last byte
    if padding:
        _check_rows((label[:, -1] & ((1 << padding) - 1)) != 0, InconsistentLabel, "label",
                    "bit beyond the last class")
    _check_rows(~label.any(axis=1), InconsistentLabel, "label", "no active interaction")
    # foreign[o]: the classes whose object is not o, packed like a label row;
    # the last row, every class, stands for an object_id outside the space
    foreign = np.ones((space.num_objects + 1, space.num_hois), dtype=bool)
    np.equal(space.object_hoi, 0, out=foreign[:-1])
    foreign = np.packbits(foreign, axis=1)
    known = (0 <= object_id) & (object_id < space.num_objects)
    row_object = np.where(known, object_id, space.num_objects)
    wrong = np.empty(len(label), dtype=bool)
    for start in range(0, len(label), LABEL_BLOCK_ROWS):
        rows = slice(start, start + LABEL_BLOCK_ROWS)
        block = foreign[row_object[rows]]
        block &= label[rows]
        block.any(axis=1, out=wrong[rows])
    _check_rows(wrong, InconsistentLabel, "label", "an active class's object differs from object_id",
                object_id)
