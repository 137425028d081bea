import numpy as np
import pytest

from herglotz import series, toeplitz


@pytest.fixture
def count_dense_calls(monkeypatch):
    """Starts recording, when called, every call of ``assemble`` (through
    each module that uses it) and of ``numpy.linalg``'s ``eigvalsh``,
    ``eigh``, ``eig``, ``svd``, ``cholesky``, ``inv`` and ``solve``.
    Returns one list per name, holding the size of the matrix of each call
    in order (the larger side of a rectangular one).  Each call starts
    afresh, wrapping the unrecorded functions, so a property test can count
    each example by itself."""

    names = ("eigvalsh", "eigh", "eig", "svd", "cholesky", "inv", "solve")
    originals = {name: getattr(np.linalg, name) for name in names}
    originals["assemble"] = toeplitz.assemble

    def start():
        calls = {name: [] for name in ("assemble", *names)}

        def recording(name, func, size):
            def wrapper(arg, *args, **kwargs):
                calls[name].append(size(arg))
                return func(arg, *args, **kwargs)

            return wrapper

        assemble = recording(
            "assemble", originals["assemble"], lambda seq: len(seq) * seq.block_dim
        )
        for module in (toeplitz, series):
            monkeypatch.setattr(module, "assemble", assemble)
        for name in names:
            wrapper = recording(name, originals[name], lambda a: max(np.shape(a)[-2:]))
            monkeypatch.setattr(np.linalg, name, wrapper)
        return calls

    return start
