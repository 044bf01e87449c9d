"""Interaction label space: decomposition into verbs/objects and recomposition.

An interaction class is a (verb set, object) pair. The space is held as two
binary co-occurrence matrices: ``verb_hoi`` (verbs x classes) and
``object_hoi`` (objects x classes). Decomposing a label vector projects it
onto verb and object indicator vectors; composing an (object, verb) indicator
pair yields the label vector of every class whose object matches and whose
verb set intersects the verbs. Products are computed as integer counts,
summed exactly in float64, and binarized at > 0; a class has exactly one
object, so composing looks its object's entry up instead of summing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DanglingId, DimensionMismatch, DuplicateHoi, EmptyDefinition, ParseError


@dataclass(frozen=True)
class HoiLabelSpace:
    """Immutable verb/object co-occurrence structure of an interaction label set.

    Attributes:
        verb_hoi: uint8 matrix of shape (num_verbs, num_hois); entry (v, c)
            is 1 iff verb v participates in class c.
        object_hoi: uint8 matrix of shape (num_objects, num_hois); each
            column has exactly one 1 (a class has exactly one object).
        verb_names, object_names, hoi_names: id -> name tables.
    """

    verb_hoi: np.ndarray
    object_hoi: np.ndarray
    verb_names: tuple[str, ...]
    object_names: tuple[str, ...]
    hoi_names: tuple[str, ...]

    def __post_init__(self):
        self.verb_hoi.setflags(write=False)
        self.object_hoi.setflags(write=False)
        # every compose call needs it, so it is worked out once
        hoi_object = np.argmax(self.object_hoi, axis=0)
        hoi_object.setflags(write=False)
        object.__setattr__(self, "_hoi_object", hoi_object)

    @property
    def num_verbs(self) -> int:
        return self.verb_hoi.shape[0]

    @property
    def num_objects(self) -> int:
        return self.object_hoi.shape[0]

    @property
    def num_hois(self) -> int:
        return self.verb_hoi.shape[1]

    def object_of(self, hoi_id: int) -> int:
        """Object id of one interaction class."""
        return int(np.argmax(self.object_hoi[:, hoi_id]))

    def verbs_of(self, hoi_id: int) -> tuple[int, ...]:
        """Verb ids of one interaction class, ascending."""
        return tuple(int(v) for v in np.flatnonzero(self.verb_hoi[:, hoi_id]))

    def objects_by_hoi(self) -> np.ndarray:
        """Read-only vector of length num_hois mapping class id -> object id."""
        return self._hoi_object


def build_space(
    hoi_defs,
    verb_names=None,
    object_names=None,
) -> HoiLabelSpace:
    """Build a label space from a list of (verb id set, object id) definitions.

    Class c gets the verbs and object of ``hoi_defs[c]`` and is named
    ``verb+verb-object`` from the name tables. Verb/object counts are
    inferred from the name tables when given, otherwise from the largest id
    used. Every id in range must be used by at least one class.

    Raises:
        EmptyDefinition: empty list, or a definition with no verbs.
        DuplicateHoi: two definitions with identical (verb set, object).
        DanglingId: an id in range appears in no definition.
    """
    if len(hoi_defs) == 0:
        raise EmptyDefinition("hoi_defs is empty")

    defs = []
    for c, (verbs, obj) in enumerate(hoi_defs):
        verbs = tuple(sorted(int(v) for v in verbs))
        if len(verbs) == 0:
            raise EmptyDefinition(f"class {c} has no verbs")
        defs.append((verbs, int(obj)))

    seen = set()
    for c, d in enumerate(defs):
        if d in seen:
            raise DuplicateHoi(f"class {c} duplicates an earlier (verb set, object) pair")
        seen.add(d)

    max_verb = max(v for verbs, _ in defs for v in verbs)
    max_obj = max(o for _, o in defs)
    num_verbs = len(verb_names) if verb_names is not None else max_verb + 1
    num_objects = len(object_names) if object_names is not None else max_obj + 1
    if max_verb >= num_verbs or max_obj >= num_objects:
        raise DimensionMismatch("definition uses an id beyond the provided name tables")

    num_hois = len(defs)
    verb_hoi = np.zeros((num_verbs, num_hois), dtype=np.uint8)
    object_hoi = np.zeros((num_objects, num_hois), dtype=np.uint8)
    for c, (verbs, obj) in enumerate(defs):
        verb_hoi[list(verbs), c] = 1
        object_hoi[obj, c] = 1

    unused_verbs = np.flatnonzero(verb_hoi.sum(axis=1) == 0)
    if unused_verbs.size:
        raise DanglingId(f"verb id {int(unused_verbs[0])} appears in no interaction")
    unused_objects = np.flatnonzero(object_hoi.sum(axis=1) == 0)
    if unused_objects.size:
        raise DanglingId(f"object id {int(unused_objects[0])} appears in no interaction")

    if verb_names is None:
        verb_names = tuple(f"verb{v}" for v in range(num_verbs))
    if object_names is None:
        object_names = tuple(f"object{o}" for o in range(num_objects))
    hoi_names = tuple(
        "+".join(verb_names[v] for v in verbs) + "-" + object_names[obj] for verbs, obj in defs
    )
    return HoiLabelSpace(
        verb_hoi=verb_hoi,
        object_hoi=object_hoi,
        verb_names=tuple(verb_names),
        object_names=tuple(object_names),
        hoi_names=hoi_names,
    )


def canonical_defs(hoi_defs) -> tuple:
    """Relabel verb/object ids to first-appearance order over the class list.

    Spaces built from canonical definitions survive the text format exactly,
    because the loader assigns ids in first-appearance order too.
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


# ---- line-oriented label-space text, a dataset archive's ``space`` entry ----
# One class per line: hoi_id<TAB>verb_name[,verb_name...]<TAB>object_name
# Ids are dense from 0; verb/object id tables follow first appearance order.


def format_space(space: HoiLabelSpace) -> str:
    lines = []
    for c in range(space.num_hois):
        verbs = ",".join(space.verb_names[v] for v in space.verbs_of(c))
        obj = space.object_names[space.object_of(c)]
        lines.append(f"{c}\t{verbs}\t{obj}")
    return "\n".join(lines) + "\n"


def parse_space(lines) -> HoiLabelSpace:
    """Parse label-space lines (see ``format_space``) into a space; errors
    name the 1-based line."""
    verb_ids: dict[str, int] = {}
    object_ids: dict[str, int] = {}
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}", line=lineno)
        hoi_str, verb_field, obj_name = parts
        try:
            hoi_id = int(hoi_str)
        except ValueError:
            raise ParseError(f"bad interaction id {hoi_str!r}", line=lineno, column=1) from None
        if hoi_id in entries:
            raise ParseError(f"interaction id {hoi_id} repeated", line=lineno)
        verb_list = [v for v in verb_field.split(",") if v]
        if not verb_list:
            raise ParseError("empty verb list", line=lineno, column=2)
        for name in verb_list:
            verb_ids.setdefault(name, len(verb_ids))
        object_ids.setdefault(obj_name, len(object_ids))
        entries[hoi_id] = (frozenset(verb_ids[v] for v in verb_list), object_ids[obj_name])

    if not entries:
        raise ParseError("no interaction definitions found", line=1)
    num_hois = len(entries)
    missing = sorted(set(range(num_hois)) - set(entries))
    if missing:
        raise ParseError(f"interaction ids not dense from 0: missing {missing[0]}", line=1)

    verb_names = tuple(sorted(verb_ids, key=verb_ids.get))
    object_names = tuple(sorted(object_ids, key=object_ids.get))
    defs = [entries[c] for c in range(num_hois)]
    return build_space(defs, verb_names=verb_names, object_names=object_names)
