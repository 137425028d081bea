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
and serialize check coefficients through one function: it converts all of
them with one ``np.asarray`` call and walks them one by one only when that
fails, to name the first bad coefficient, so the file's [re, im] pairs and
a ``ProblemFile``'s complex matrices are refused with the same message for
the same fault.  Text made by
``canonical_json`` is itself a leaf that is emitted verbatim, so a command
formats each data product once and embeds that text in its report.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ProblemFormatError
from .toeplitz import CoefficientSequence

__all__ = [
    "ProblemFile",
    "RunConfig",
    "parse_problem",
    "serialize_problem",
    "load_problem",
    "save_problem",
    "format_float",
    "pairs_to_matrix",
    "canonical_json",
    "CanonicalText",
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


def _matrix(entries, what, pairs):
    # one coefficient as a complex matrix, from rows of [re, im] pairs (the
    # file form, ``pairs``) or of complex numbers (a ProblemFile's)
    try:
        arr = np.asarray(entries, dtype=float if pairs else complex)
    except OverflowError as exc:
        # JSON integers are unbounded; one past the float range cannot be read
        raise ProblemFormatError(f"{what}: entry too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what}: entries must be [re, im] number pairs") from exc
    if pairs and (arr.ndim != 3 or arr.shape[2] != 2):
        raise ProblemFormatError(
            f"{what}: expected rows of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{what}: non-finite entry")
    return arr[:, :, 0] + 1j * arr[:, :, 1] if pairs else arr


def pairs_to_matrix(rows, what="matrix"):
    return _matrix(rows, what, pairs=True)


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


def _emit(value):
    # canonical emitter: dict keys sorted, floats via format_float, complex
    # arrays via _emit_array.  Floats are the most common scalar leaves, so
    # they are tested first (a bool is not a float, and numpy's float64 is
    # one)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, np.ndarray):
        return _emit_array(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(k)}: {_emit(value[k])}" for k in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return format_float(value)
    if isinstance(value, CanonicalText):
        return value[:-1]
    if isinstance(value, str):
        return json.dumps(value)
    raise ProblemFormatError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(obj):
    """Serialize a tree of dicts, lists, numbers, strings, complex ndarrays
    (as nested [re, im] pairs) and ``CanonicalText`` canonically."""
    return CanonicalText(_emit(obj) + "\n")


def _coefficient_array(coefficients, d, pairs):
    # the coefficients as one complex (N + 1, d, d) array, from the file's
    # [re, im] pairs (``pairs``) or a ProblemFile's complex matrices.  The
    # whole list is converted in one call; only when that fails are the
    # coefficients walked, to name the first bad one, so parse and
    # serialize refuse a fault with one message
    try:
        arr = np.asarray(coefficients, dtype=float if pairs else complex)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None:
        if arr.ndim == 0 or not len(arr):
            raise ProblemFormatError("coefficients must be a non-empty list of matrices")
        if arr.shape[1:] == ((d, d, 2) if pairs else (d, d)) and np.isfinite(arr).all():
            return arr[..., 0] + 1j * arr[..., 1] if pairs else arr
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
    return parse_problem(text)


def save_problem(pf, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_problem(pf))
