"""Exception types raised across the package, and the text-file reader that
turns bytes which are not UTF-8 into one of them.

One class per kind of fault: a bad setting, such as a config field or a
mode name, raises ``InvalidConfig``; a wrong array shape or width,
``DimensionMismatch``; a numeric input outside its range, ``OutOfRange``.
"""


class HoicompError(Exception):
    """Base class for all package-specific errors."""


# ---- label space construction ----

class DuplicateHoi(HoicompError):
    """Two interaction definitions share the same (verb set, object) pair."""


class DanglingId(HoicompError):
    """A verb or object id in range is used by no interaction."""


class EmptyDefinition(HoicompError):
    """An interaction definition has no verbs, or the definition list is empty."""


class NotOneObject(HoicompError):
    """An interaction class has no object, or more than one."""


class DuplicateName(HoicompError):
    """A verb or object name table gives one name to two ids."""


# ---- geometry ----

class InvalidBox(HoicompError):
    """Box coordinates are not finite, negative, or not properly ordered."""


class DegenerateBox(HoicompError):
    """A box rasterizes to zero cells on the spatial grid."""


# ---- dataset generation and files ----

class InvalidConfig(HoicompError):
    """A setting, such as a config field or a mode name, violates its
    documented range."""


class ParseError(HoicompError):
    """A data file could not be parsed; carries the line of a text file."""

    def __init__(self, message, line=None):
        super().__init__(message + ("" if line is None else f" (line {line})"))
        self.line = line


class InconsistentLabel(HoicompError):
    """An instance's label does not agree with its object id, or a file
    that names classes holds another label space than the dataset it is
    read with."""


class DimensionMismatch(HoicompError):
    """An array's dtype, shape or width disagrees with its declared layout,
    such as a label vector against the label space, feature vectors in a
    file against the declared feature dimension, or an output buffer
    overlaps an input that it must not."""


# ---- composition ----

class EmptyBatch(HoicompError):
    """Composition was asked to run on an empty minibatch."""


# ---- network and training ----

class NonFiniteInput(HoicompError):
    """A forward pass or a detection table received NaN or infinite inputs."""


class NonFiniteLoss(HoicompError):
    """The training loss evaluated to NaN or infinity."""


class NonFiniteGradient(HoicompError):
    """Backpropagation produced NaN or infinite gradients."""


class NonFiniteUpdate(HoicompError):
    """An optimizer step produced NaN or infinite parameters."""


class OutOfRange(HoicompError):
    """A numeric input fell outside its range: a probability-like factor
    outside [0, 1], a class weight that is not positive, or an entry of a
    label space's 0/1 matrix that is neither."""


class DivergedTraining(HoicompError):
    """Training hit a non-finite loss; carries the failing iteration."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


# ---- zero-shot splits ----

class InfeasibleSplit(HoicompError):
    """No unseen-class split of the requested size keeps all verbs and objects covered."""


# ---- evaluation ----

class UnknownHoiId(HoicompError):
    """A ground truth refers to an interaction id outside the label space;
    detections carry no ids."""


def read_text_lines(path) -> list[str]:
    """Lines of a UTF-8 text file, as ``readlines`` gives them; bytes that are
    not UTF-8 raise ``ParseError`` naming their line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            blob = fh.read()
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole  # the reader decodes in chunks; this offset is the file's
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason}", line=line) from None
