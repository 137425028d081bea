"""Positive block-Toeplitz coefficient data and matrix-valued Herglotz
functions: assembly and certification, one-step central extension,
truncated-data interpolation, positive kernels, state-space realization
oracles, and reduction to a minimal base-factor form.

Each public name is listed once, in its module's ``__all__``; the package
re-exports those names and its ``__all__`` joins the lists.
"""

from . import exceptions, extension, io, linalg, series, toeplitz
from .exceptions import *
from .extension import *
from .io import *
from .linalg import *
from .series import *
from .toeplitz import *

__version__ = "0.1.0"

__all__ = [
    *exceptions.__all__,
    *extension.__all__,
    *io.__all__,
    *linalg.__all__,
    *series.__all__,
    *toeplitz.__all__,
]
