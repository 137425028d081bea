"""Problem files: a bit-exact JSON interchange format for complex block
matrix data, plus the run configuration shared by the CLI commands.

Schema::

    {"block_dim": d,
     "coefficients": [[[[re, im], ...], ...], ...],
     "metadata": {"key": "value", ...}}

Complex scalars are two-element arrays [re, im]; matrices are nested
row-major arrays; the Toeplitz layout convention is block (i, j) = M_{j-i}
for j > i, adjoints below the diagonal, Hermitian part of M_0 on it.
Serialization is canonical - sorted keys, floats printed with 17
significant digits - so parse followed by serialize is the identity on
canonical files, byte for byte.

Arrays travel whole.  The emitter takes a complex ndarray as a leaf and
formats all of its floats with one %-template built from its shape.  Parse
and serialize check coefficients through one function and one conversion:
an ndarray is judged by its dtype, and anything else is taken whole as
Python objects by one ``np.asarray`` call, its leaf types checked once each
(numbers, not bools; a string such as "1" is refused, not read as 1.0),
then cast to floats.  Only when that fails are the coefficients walked one
by one, to name the first bad coefficient, so the file's [re, im] pairs and
a ``ProblemFile``'s complex matrices are refused with the same message for
the same fault; an empty coefficient or row is named by its shape on both
sides.  Text made by ``canonical_json`` is itself a leaf that is emitted
verbatim, so a command formats each data product once and embeds that text
in its report.

The emitter finds the emitter of a value by one table lookup of its exact
type (float, dict, list, tuple, bool, int, str, ``CanonicalText`` and
ndarray); a subclass or a numpy scalar falls back to ``isinstance`` tests in
the same order.  Keys and strings are quoted by ``json``'s own ASCII
encoder, the bytes of ``json.dumps``.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ProblemFormatError
from .toeplitz import CoefficientSequence

# the package exports these; the text helpers ``format_float``,
# ``canonical_json`` and ``CanonicalText`` serve the CLI and stay out of the
# package namespace
__all__ = [
    "ProblemFile",
    "RunConfig",
    "parse_problem",
    "serialize_problem",
    "load_problem",
    "save_problem",
]


@dataclass
class RunConfig:
    """Numerical knobs shared by the CLI commands."""

    eps: float = 1e-8
    tol: float = 1e-9
    horizon: int = 64
    truncation: int = 256
    grid: int = 16
    seed: int = 0
    radius: float = 0.9

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ProblemFormatError(f"eps must be positive and finite, got {self.eps}")
        if not 0 < self.tol < math.inf:
            raise ProblemFormatError(f"tol must be positive and finite, got {self.tol}")
        if self.horizon < 0:
            raise ProblemFormatError(f"horizon must be nonnegative, got {self.horizon}")
        if self.truncation < 0:
            raise ProblemFormatError(f"truncation must be nonnegative, got {self.truncation}")
        if self.grid < 1:
            raise ProblemFormatError(f"grid must be at least 1, got {self.grid}")
        if not 0 < self.radius < 1:
            raise ProblemFormatError(f"radius must lie in (0, 1), got {self.radius}")
        if self.seed < 0:
            raise ProblemFormatError(f"seed must be a nonnegative integer, got {self.seed}")


@dataclass
class ProblemFile:
    """Parsed problem file: block dimension, the coefficient matrices as one
    complex (N + 1, d, d) array, metadata."""

    block_dim: int
    coefficients: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_sequence(self):
        return CoefficientSequence(self.coefficients)

    @classmethod
    def from_sequence(cls, seq, metadata=None):
        # the sequence's array is read-only, so it is shared, not copied
        return cls(
            block_dim=seq.block_dim, coefficients=seq.coefficients, metadata=dict(metadata or {})
        )


def format_float(x):
    """Canonical decimal form: 17 significant digits, round-trip exact.

    Negative zero is normalized to "0" so that parse followed by serialize
    is the identity byte for byte.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ProblemFormatError(f"non-finite value {x} cannot be serialized")
    if x == 0.0:
        x = 0.0
    return f"{x:.17g}"


def _numbers(entries, pairs):
    # ``entries`` as one array of numbers: real ones for the file's [re, im]
    # pairs (``pairs``), complex ones for a ProblemFile's matrices.  An
    # array's dtype shows what it holds.  Anything else is taken as Python
    # objects, so that numpy reads neither a bool as 0 or 1 nor a string "1"
    # as 1.0; a ragged list becomes an array of lists.  Each leaf type is
    # checked once, and the cast to floats raises OverflowError on an integer
    # past the float range (JSON integers are unbounded).  The leaves are read
    # through ``ravel``: numpy 2's arrays reach 64 dimensions, its ``flat``
    # iterator only 32, and lists nested deeper are leaves that fail the
    # check.  A fault raises TypeError or ValueError
    arr = entries if isinstance(entries, np.ndarray) else np.asarray(entries, dtype=object)
    if arr.dtype.kind == "O":
        number = numbers.Real if pairs else numbers.Complex
        if not all(issubclass(t, number) and t is not bool for t in set(map(type, arr.ravel()))):
            raise TypeError("entries must be numbers")
        arr = arr.astype(float if pairs else complex)
    if arr.dtype.kind not in ("iuf" if pairs else "iufc"):
        raise TypeError("entries must be numbers")
    return arr


def _matrix(entries, what, pairs):
    # one coefficient as a complex matrix, from rows of [re, im] pairs (the
    # file form, ``pairs``) or of complex numbers (a ProblemFile's)
    try:
        arr = _numbers(entries, pairs)
    except OverflowError as exc:
        # JSON integers are unbounded; one past the float range cannot be read
        raise ProblemFormatError(f"{what}: entry too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what}: entries must be [re, im] number pairs") from exc
    if pairs and arr.size == 0:
        # no pair to read: the matrix has the shape of the rows, as a
        # ProblemFile's empty matrix has
        return np.zeros(arr.shape, dtype=complex)
    if pairs and (arr.ndim != 3 or arr.shape[2] != 2):
        raise ProblemFormatError(
            f"{what}: expected rows of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{what}: non-finite entry")
    return arr[:, :, 0] + 1j * arr[:, :, 1] if pairs else arr


class CanonicalText(str):
    """Text made by ``canonical_json``.  Inside a tree given to
    ``canonical_json`` it is emitted as the JSON it holds (less its final
    newline), not as a string, so embedding a formatted product in a report
    costs no second formatting."""


def _array_template(shape):
    # %-template of a complex array of this shape: nested lists with an
    # [re, im] pair at each entry.  "%.17g" % x is f"{x:.17g}" byte for byte
    if not shape:
        return "[%.17g, %.17g]"
    return "[" + ", ".join([_array_template(shape[1:])] * shape[0]) + "]"


def _emit_array(a):
    a = np.asarray(a, dtype=complex)
    # + 0.0 turns -0.0 into 0.0, as format_float does
    floats = np.stack((a.real, a.imag), axis=-1) + 0.0
    finite = np.isfinite(floats)
    if not finite.all():
        x = float(floats[~finite][0])
        raise ProblemFormatError(f"non-finite value {x} cannot be serialized")
    return _array_template(a.shape) % tuple(floats.ravel().tolist())


def _emit_dict(value):
    return "{" + ", ".join([_quote(k) + ": " + _emit(value[k]) for k in sorted(value)]) + "}"


def _emit_list(value):
    return "[" + ", ".join([_emit(v) for v in value]) + "]"


# the emitter of each kind of value, in the order the ``isinstance``
# fallback matches a subclass: floats first (a bool is not a float; no
# numpy float is any later type), CanonicalText before str.  ``_emit_array`` is
# looked up at each call, so a wrapper that replaces it is the one that runs
_quote = json.encoder.encode_basestring_ascii
_EMITTERS = (
    ((float, np.floating), format_float),
    ((np.ndarray,), lambda a: _emit_array(a)),
    ((dict,), _emit_dict),
    ((list, tuple), _emit_list),
    ((bool,), lambda b: "true" if b else "false"),
    ((int, np.integer), lambda i: str(int(i))),
    ((CanonicalText,), lambda t: t[:-1]),
    ((str,), _quote),
)
# one lookup for a value of exactly one of those types
_EMITTER_OF_TYPE = {t: emit for types, emit in _EMITTERS for t in types}


def _emit(value):
    # canonical emitter: dict keys sorted, floats via format_float, complex
    # arrays via _emit_array
    emit = _EMITTER_OF_TYPE.get(type(value))
    if emit is None:
        emit = next((e for types, e in _EMITTERS if isinstance(value, types)), None)
        if emit is None:
            raise ProblemFormatError(f"cannot serialize value of type {type(value).__name__}")
    return emit(value)


def canonical_json(obj):
    """Serialize a tree of dicts, lists, numbers, strings, complex ndarrays
    (as nested [re, im] pairs) and ``CanonicalText`` canonically."""
    return CanonicalText(_emit(obj) + "\n")


def _coefficient_array(coefficients, d, pairs):
    # the coefficients as one complex (N + 1, d, d) array, from the file's
    # [re, im] pairs (``pairs``) or a ProblemFile's complex matrices.  The
    # whole list is converted once; only when that fails are the
    # coefficients walked, to name the first bad one, so parse and
    # serialize refuse a fault with one message
    try:
        arr = _numbers(coefficients, pairs)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None:
        if arr.ndim == 0 or not len(arr):
            raise ProblemFormatError("coefficients must be a non-empty list of matrices")
        if arr.shape[1:] == ((d, d, 2) if pairs else (d, d)) and np.isfinite(arr).all():
            return arr[..., 0] + 1j * arr[..., 1] if pairs else arr.astype(complex, copy=False)
    for idx, entries in enumerate(coefficients):
        m = _matrix(entries, f"coefficient {idx}", pairs)
        if m.shape != (d, d):
            raise ProblemFormatError(
                f"coefficient {idx} has shape {m.shape}, expected ({d}, {d})"
            )
    # each coefficient is a finite d x d matrix, so the list converts whole
    raise ProblemFormatError("coefficients pass one by one but do not convert whole")


def serialize_problem(pf):
    """Canonical text form of a problem file."""
    if pf.block_dim < 1:
        raise ProblemFormatError(f"block_dim must be >= 1, got {pf.block_dim}")
    return canonical_json(
        {
            "block_dim": int(pf.block_dim),
            "coefficients": _coefficient_array(pf.coefficients, pf.block_dim, pairs=False),
            "metadata": {str(k): str(v) for k, v in pf.metadata.items()},
        }
    )


def parse_problem(text):
    """Parse problem-file text, validating the schema.

    Raises
    ------
    ProblemFormatError
        With line/column information for JSON syntax errors, or a schema
        description for structural ones.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # arrays nested past the recursion limit, or an integer literal past
        # the interpreter's limit on the digits of a str -> int conversion
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProblemFormatError("top level must be an object")
    for key in ("block_dim", "coefficients"):
        if key not in raw:
            raise ProblemFormatError(f"missing required key {key!r}")
    block_dim = raw["block_dim"]
    if not isinstance(block_dim, int) or isinstance(block_dim, bool) or block_dim < 1:
        raise ProblemFormatError(f"block_dim must be a positive integer, got {block_dim!r}")
    coeffs_raw = raw["coefficients"]
    if not isinstance(coeffs_raw, list):
        raise ProblemFormatError("coefficients must be a non-empty list of matrices")
    coefficients = _coefficient_array(coeffs_raw, block_dim, pairs=True)
    metadata = raw.get("metadata", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise ProblemFormatError("metadata must be a string-to-string map")
    return ProblemFile(block_dim=block_dim, coefficients=coefficients, metadata=dict(metadata))


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc
    return parse_problem(text)


def save_problem(pf, path):
    # serialized before the file is opened, so a refused problem leaves an
    # existing file as it was
    text = serialize_problem(pf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
