"""Interaction label space: decomposition into verbs/objects and recomposition.

An interaction class is a (verb set, object) pair. The space is held as two
binary co-occurrence matrices, ``verb_hoi`` (verbs x classes) and
``object_hoi`` (objects x classes), and two name tables; a space checks
those four when it is built. Every file that names classes holds them as
four archive entries (``synthdata.SPACE_ENTRIES``), so a file is read only
beside data of its own space. Decomposing a label vector projects it onto
verb and object indicator vectors; composing an (object, verb) indicator
pair yields the label vector of every class whose object matches and whose
verb set intersects the verbs. Products are computed as integer counts,
summed exactly in float64, and binarized at > 0; a class has exactly one
object, so composing looks its object's entry up instead of summing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DanglingId,
    DimensionMismatch,
    DuplicateHoi,
    DuplicateName,
    EmptyDefinition,
    NotOneObject,
    OutOfRange,
)


@dataclass(frozen=True, eq=False)
class HoiLabelSpace:
    """Immutable verb/object co-occurrence structure of an interaction label set.

    Attributes:
        verb_hoi: uint8 0/1 matrix of shape (num_verbs, num_hois); entry
            (v, c) is 1 iff verb v participates in class c.
        object_hoi: uint8 0/1 matrix of shape (num_objects, num_hois); each
            column has exactly one 1 (a class has exactly one object).
        verb_names, object_names: id -> name tables, one distinct name per
            row of their matrix.

    Checked when built, in this order: each matrix is 2-D ``uint8`` with as
    many classes as the other and a name per row (``DimensionMismatch``), of
    0/1 (``OutOfRange``); there is a class, each with a verb
    (``EmptyDefinition``) and one object (``NotOneObject``), no two alike
    (``DuplicateHoi``); every verb, then object, is in one (``DanglingId``),
    and names differ (``DuplicateName``). ``==`` compares matrices and names.
    """

    verb_hoi: np.ndarray
    object_hoi: np.ndarray
    verb_names: tuple[str, ...]
    object_names: tuple[str, ...]

    __hash__ = None  # compared by value, and numpy arrays hash to nothing stable

    def __post_init__(self):
        tables = (("verb", self.verb_hoi, self.verb_names),
                  ("object", self.object_hoi, self.object_names))
        for kind, m, names in tables:
            if not (isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype == np.uint8):
                got = f"{m.dtype} {m.shape}" if isinstance(m, np.ndarray) else type(m).__name__
                raise DimensionMismatch(f"{kind}_hoi is {got}, expected a 2-D uint8 matrix")
            if m.shape[1] != self.num_hois:
                raise DimensionMismatch(f"verb_hoi has {self.num_hois} classes, object_hoi {m.shape[1]}")
            if len(names) != m.shape[0]:
                raise DimensionMismatch(f"{len(names)} {kind} names for the {m.shape[0]} rows "
                                        f"of {kind}_hoi")
            if (m > 1).any():
                raise OutOfRange(f"{kind}_hoi holds {int(m.max())}, not a 0/1 entry")
        if self.num_hois == 0:
            raise EmptyDefinition("the label space has no classes")
        verbless = np.flatnonzero(~self.verb_hoi.any(axis=0))
        if verbless.size:
            raise EmptyDefinition(f"class {int(verbless[0])} has no verbs")
        objects = self.object_hoi.sum(axis=0)
        if (objects != 1).any():
            c = int(np.argmax(objects != 1))
            raise NotOneObject(f"class {c} has {int(objects[c])} objects, expected 1")
        # a class's (verbs, object) column, packed, is its definition
        defs = np.packbits(np.vstack([self.verb_hoi, self.object_hoi]), axis=0).T
        c = _first_repeat(d.tobytes() for d in defs)
        if c is not None:
            raise DuplicateHoi(f"class {c} duplicates an earlier (verb set, object) pair")
        for kind, m, names in tables:
            unused = np.flatnonzero(~m.any(axis=1))
            if unused.size:
                raise DanglingId(f"{kind} id {int(unused[0])} appears in no interaction")
        for kind, m, names in tables:
            k = _first_repeat(names)
            if k is not None:
                raise DuplicateName(f"{kind} name {names[k]!r} names two {kind} ids")
        self.verb_hoi.setflags(write=False)
        self.object_hoi.setflags(write=False)
        # every compose call needs it, so it is worked out once
        hoi_object = np.argmax(self.object_hoi, axis=0)
        hoi_object.setflags(write=False)
        object.__setattr__(self, "_hoi_object", hoi_object)

    def __eq__(self, other):
        if not isinstance(other, HoiLabelSpace):
            return NotImplemented
        return (self.verb_names == other.verb_names and self.object_names == other.object_names
                and np.array_equal(self.verb_hoi, other.verb_hoi)
                and np.array_equal(self.object_hoi, other.object_hoi))

    @property
    def num_verbs(self) -> int:
        return self.verb_hoi.shape[0]

    @property
    def num_objects(self) -> int:
        return self.object_hoi.shape[0]

    @property
    def num_hois(self) -> int:
        return self.verb_hoi.shape[1]

    @cached_property
    def hoi_names(self) -> tuple[str, ...]:
        """Class c's name, ``verb+verb-object`` with its verbs ascending;
        worked out when first read, since most loads never read it."""
        return tuple(
            "+".join(self.verb_names[v] for v in self.verbs_of(c))
            + "-" + self.object_names[self._hoi_object[c]]
            for c in range(self.num_hois)
        )

    def object_of(self, hoi_id: int) -> int:
        """Object id of one interaction class."""
        return int(np.argmax(self.object_hoi[:, hoi_id]))

    def verbs_of(self, hoi_id: int) -> tuple[int, ...]:
        """Verb ids of one interaction class, ascending."""
        return tuple(int(v) for v in np.flatnonzero(self.verb_hoi[:, hoi_id]))

    def objects_by_hoi(self) -> np.ndarray:
        """Read-only vector of length num_hois mapping class id -> object id."""
        return self._hoi_object


def _first_repeat(items) -> int | None:
    """Index of the first item equal to an earlier one; None when all differ."""
    seen = set()
    for k, item in enumerate(items):
        if item in seen:
            return k
        seen.add(item)
    return None


def build_space(
    hoi_defs,
    verb_names=None,
    object_names=None,
) -> HoiLabelSpace:
    """Build a label space from a list of (verb id set, object id) definitions.

    Class c gets the verbs and object of ``hoi_defs[c]`` and is named
    ``verb+verb-object`` from the name tables. Verb/object counts are
    inferred from the name tables when given, otherwise from the largest id
    used. The space checks itself (see ``HoiLabelSpace``); an id beyond a
    given name table raises ``DimensionMismatch`` before that.
    """
    defs = [(sorted(int(v) for v in verbs), int(obj)) for verbs, obj in hoi_defs]
    max_verb = max((v for verbs, _ in defs for v in verbs), default=-1)
    max_obj = max((o for _, o in defs), default=-1)
    num_verbs = len(verb_names) if verb_names is not None else max_verb + 1
    num_objects = len(object_names) if object_names is not None else max_obj + 1
    if max_verb >= num_verbs or max_obj >= num_objects:
        raise DimensionMismatch("definition uses an id beyond the provided name tables")

    verb_hoi = np.zeros((num_verbs, len(defs)), dtype=np.uint8)
    object_hoi = np.zeros((num_objects, len(defs)), dtype=np.uint8)
    for c, (verbs, obj) in enumerate(defs):
        verb_hoi[verbs, c] = 1
        object_hoi[obj, c] = 1
    if verb_names is None:
        verb_names = (f"verb{v}" for v in range(num_verbs))
    if object_names is None:
        object_names = (f"object{o}" for o in range(num_objects))
    return HoiLabelSpace(verb_hoi=verb_hoi, object_hoi=object_hoi,
                         verb_names=tuple(verb_names), object_names=tuple(object_names))


def canonical_defs(hoi_defs) -> tuple:
    """Relabel verb/object ids to first-appearance order over the class list.

    ``synthdata.random_hoi_defs`` draws its definitions through this, so the
    ids of a generated space, and every dataset drawn from it, depend on it.
    """
    verb_map: dict[int, int] = {}
    object_map: dict[int, int] = {}
    out = []
    for verbs, obj in hoi_defs:
        for v in verbs:
            verb_map.setdefault(int(v), len(verb_map))
        object_map.setdefault(int(obj), len(object_map))
        out.append((tuple(sorted(verb_map[int(v)] for v in verbs)), object_map[int(obj)]))
    return tuple(out)


def _check_last_dim(arr: np.ndarray, expected: int, what: str):
    if arr.shape[-1] != expected:
        raise DimensionMismatch(f"{what} has length {arr.shape[-1]}, expected {expected}")


def _as_counts(x: np.ndarray) -> np.ndarray:
    """``x`` truncated to integers, held as float64 so that its products with
    the 0/1 co-occurrence matrices run through BLAS; the integer sums are
    exact below 2**53."""
    return x.astype(np.int64).astype(np.float64)


def decompose(y, space: HoiLabelSpace):
    """Project label vectors onto (object, verb) indicator vectors.

    Accepts a single vector of length num_hois or a batch (n, num_hois).
    Bit o of the object vector is set iff some active class has object o;
    likewise for verbs.

    Returns:
        (l_o, l_v) uint8 arrays with matching leading shape.
    """
    y = np.asarray(y)
    _check_last_dim(y, space.num_hois, "label vector")
    counts = _as_counts(y)
    l_o = counts @ space.object_hoi.T > 0
    l_v = counts @ space.verb_hoi.T > 0
    return l_o.view(np.uint8), l_v.view(np.uint8)


def compose(l_o, l_v, space: HoiLabelSpace):
    """Compose (object, verb) indicator vectors into a label vector.

    Bit c of the result is set iff class c's object is active in ``l_o`` and
    class c's verb set intersects ``l_v``. Combinations matching no class
    yield the all-zero vector. Accepts single vectors or arrays of them whose
    leading dimensions broadcast, so ``l_o[None, :]`` against ``l_v[:, None]``
    composes every (verb row, object row) pair.
    """
    l_o = np.asarray(l_o)
    l_v = np.asarray(l_v)
    _check_last_dim(l_o, space.num_objects, "object vector")
    _check_last_dim(l_v, space.num_verbs, "verb vector")
    hit_o = np.take(l_o.astype(np.int64) > 0, space.objects_by_hoi(), axis=-1)  # one object per class
    hit_v = _as_counts(l_v) @ space.verb_hoi > 0
    return (hit_o & hit_v).view(np.uint8)
