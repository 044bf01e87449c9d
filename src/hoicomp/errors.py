"""Exception types raised across the package, and the text-file reader that
turns bytes which are not UTF-8 into one of them."""


class HoicompError(Exception):
    """Base class for all package-specific errors."""


# ---- label space construction ----

class DuplicateHoi(HoicompError):
    """Two interaction definitions share the same (verb set, object) pair."""


class DanglingId(HoicompError):
    """A verb or object id in range is used by no interaction."""


class EmptyDefinition(HoicompError):
    """An interaction definition has no verbs, or the definition list is empty."""


class ShapeMismatch(HoicompError):
    """A label/verb/object vector does not match the label space dimensions."""


# ---- geometry ----

class InvalidBox(HoicompError):
    """Box coordinates are not finite, negative, or not properly ordered."""


class DegenerateBox(HoicompError):
    """A box rasterizes to zero cells on the spatial grid."""


# ---- dataset generation and files ----

class InvalidConfig(HoicompError):
    """A configuration value violates its documented range."""


class ParseError(HoicompError):
    """A data file could not be parsed; carries line and column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InconsistentLabel(HoicompError):
    """An instance's label does not agree with its object id."""


class DimensionMismatch(HoicompError):
    """An array's dtype or shape disagrees with its declared layout, such as
    feature vectors in a file with the declared feature dimension, or an
    output buffer overlaps an input that it must not."""


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
    """A probability-like factor fell outside [0, 1]."""


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
