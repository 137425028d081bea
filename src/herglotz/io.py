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
    "matrix_to_pairs",
    "pairs_to_matrix",
    "canonical_json",
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
        if self.eps <= 0:
            raise ProblemFormatError(f"eps must be positive, got {self.eps}")
        if self.tol <= 0:
            raise ProblemFormatError(f"tol must be positive, got {self.tol}")
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


def matrix_to_pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def pairs_to_matrix(rows, what="matrix"):
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what}: entries must be [re, im] number pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ProblemFormatError(
            f"{what}: expected rows of [re, im] pairs, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{what}: non-finite entry")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _emit(value):
    # canonical emitter: dict keys sorted, floats via format_float.  Floats
    # are the most common leaves, so they are tested first (a bool is not a
    # float, and numpy's float64 is one)
    if isinstance(value, float):
        return format_float(value)
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
    if isinstance(value, str):
        return json.dumps(value)
    raise ProblemFormatError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(obj):
    """Serialize a plain dict/list/number/string tree canonically."""
    return _emit(obj) + "\n"


def _problem_dict(pf):
    # plain-tree form of a problem file, shared by the file format and the
    # CLI's JSON reports
    return {
        "block_dim": int(pf.block_dim),
        "coefficients": [matrix_to_pairs(m) for m in pf.coefficients],
        "metadata": {str(k): str(v) for k, v in pf.metadata.items()},
    }


def serialize_problem(pf):
    """Canonical text form of a problem file."""
    if pf.block_dim < 1:
        raise ProblemFormatError(f"block_dim must be >= 1, got {pf.block_dim}")
    return canonical_json(_problem_dict(pf))


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
    if not isinstance(coeffs_raw, list) or not coeffs_raw:
        raise ProblemFormatError("coefficients must be a non-empty list of matrices")
    coefficients = np.empty((len(coeffs_raw), block_dim, block_dim), dtype=complex)
    for idx, rows in enumerate(coeffs_raw):
        m = pairs_to_matrix(rows, what=f"coefficient {idx}")
        if m.shape != (block_dim, block_dim):
            raise ProblemFormatError(
                f"coefficient {idx} has shape {m.shape}, expected "
                f"({block_dim}, {block_dim})"
            )
        coefficients[idx] = m
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
