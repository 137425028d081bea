import numpy as np
import pytest

from herglotz import extension, series, toeplitz


@pytest.fixture
def count_dense_calls(monkeypatch):
    """Starts recording, when called, every call of ``assemble`` (through
    each module that uses it), ``numpy.linalg.eigvalsh`` and
    ``numpy.linalg.cholesky``.  Returns one list per name, holding the size
    of the matrix of each call in order."""

    def start():
        calls = {"assemble": [], "eigvalsh": [], "cholesky": []}

        def recording(name, func, size):
            def wrapper(arg, *args, **kwargs):
                calls[name].append(size(arg))
                return func(arg, *args, **kwargs)

            return wrapper

        assemble = recording("assemble", toeplitz.assemble, lambda seq: len(seq) * seq.block_dim)
        for module in (toeplitz, series, extension):
            monkeypatch.setattr(module, "assemble", assemble)
        for name in ("eigvalsh", "cholesky"):
            func = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, recording(name, func, lambda a: np.shape(a)[-1]))
        return calls

    return start
