"""Span tracing of the library's layers, from outside the library.

While ``Tracer.patched()`` is active, the public functions named in
``LIBRARY`` and the ``numpy.linalg`` entry points in ``NUMPY`` are replaced,
in every ``herglotz`` module that holds them, by wrappers that record one
span per call: name, start, end, parent span and op id.  Spans are recorded
only while an op is running (``Tracer.op`` is set), so set-up and output
checks leave none.  Spans stay in memory, in flat arrays, until the run
ends.

A span's self time is its duration minus the time its child spans cover.
Counts are computed from argument shapes, so they repeat exactly.
"""

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

LIBRARY = {
    "extension": ("solve_cf", "extend", "central_step"),
    "toeplitz": ("assemble", "reverse_blocks", "positivity_profile"),
    "linalg": ("psd_report", "minimal_factorization"),
    "series": (
        "series_tail_bound", "kernel_gram", "eval_series", "kernel_value",
        "reduce", "realization_coefficients", "random_realization",
    ),
    "io": ("parse_problem", "serialize_problem", "canonical_json"),
    "cli": (
        "main", "cmd_generate", "cmd_check", "cmd_reduce", "cmd_solve",
        "cmd_eval", "cmd_kernel",
    ),
}
NUMPY = ("eigvalsh", "eigh", "inv", "solve", "norm")


def _matrix_size(args, kwargs, result):
    return np.shape(args[0])[-1]


def _assemble_bytes(args, kwargs, result):
    seq = args[0]
    return (len(seq) * seq.block_dim) ** 2 * np.dtype(complex).itemsize


def _step_size(args, kwargs, result):
    seq = args[0]
    return len(seq) * seq.block_dim


# size recorded with each span, from the call's arguments (or result length)
SIZES = {
    "numpy.eigvalsh": _matrix_size,
    "numpy.eigh": _matrix_size,
    "numpy.inv": _matrix_size,
    "numpy.solve": _matrix_size,
    "toeplitz.assemble": _assemble_bytes,
    "extension.central_step": _step_size,
    "series.kernel_gram": lambda args, kwargs, result: len(args[1]),
    "io.parse_problem": lambda args, kwargs, result: len(args[0]),
    "io.canonical_json": lambda args, kwargs, result: len(result),
}


def _span_name(module, func):
    return f"cli.{func[4:]}" if func.startswith("cmd_") else f"{module}.{func}"


class Tracer:
    """Records spans of library calls made while an op is running."""

    OP = "bench.op"

    def __init__(self):
        self.names = [self.OP]
        self.name_ids = {self.OP: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_id = array("q")
        self.size = array("q")
        self.stack = []
        self.op = None

    def _open(self, name_id, op):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(op)
        self.size.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def op_span(self, op):
        """Mark an op as running and record its root span."""
        self.op = op
        idx = self._open(0, op)
        try:
            yield
        finally:
            self._close(idx)
            self.op = None

    def wrap(self, name, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        size_of = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = self._open(name_id, self.op)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx)
                if size_of is not None and result is not None:
                    self.size[idx] = int(size_of(args, kwargs, result))

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Swap in the tracing wrappers; restore the originals on exit."""
        modules = [importlib.import_module("herglotz")]
        modules += [importlib.import_module(f"herglotz.{m}") for m in LIBRARY]
        wrappers = {}
        for module, funcs in LIBRARY.items():
            mod = importlib.import_module(f"herglotz.{module}")
            for func in funcs:
                fn = getattr(mod, func)
                wrappers[id(fn)] = (fn, self.wrap(_span_name(module, func), fn))
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for func in NUMPY:
            fn = getattr(np.linalg, func)
            saved.append((np.linalg, func, fn))
            setattr(np.linalg, func, self.wrap(f"numpy.{func}", fn))
        try:
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def arrays(self):
        """The spans as numpy arrays, plus the name table."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op_id, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "names": np.array(self.names),
        }

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child


# (metric, unit) reported by layer_metrics, in BENCHMARK.json order
PER_LAYER = (
    ("extension.solve_cf.self_s", "s/op"),
    ("extension.extend.self_s", "s/op"),
    ("extension.central_step.calls", "calls/op"),
    ("extension.central_step.self_s", "s/op"),
    ("extension.feasibility_checks_per_step", "checks/step"),
    ("numpy.eigvalsh.calls", "calls/op"),
    ("numpy.eigvalsh.self_s", "s/op"),
    ("numpy.eigvalsh.n3", "n3/op"),
    ("numpy.eigh.calls", "calls/op"),
    ("numpy.eigh.self_s", "s/op"),
    ("numpy.eigh.n3", "n3/op"),
    ("numpy.inv.calls", "calls/op"),
    ("numpy.inv.self_s", "s/op"),
    ("numpy.inv.n3", "n3/op"),
    ("numpy.solve.calls", "calls/op"),
    ("numpy.solve.self_s", "s/op"),
    ("numpy.solve.n3", "n3/op"),
    ("numpy.norm.calls", "calls/op"),
    ("numpy.norm.self_s", "s/op"),
    ("toeplitz.assemble.calls", "calls/op"),
    ("toeplitz.assemble.self_s", "s/op"),
    ("toeplitz.assemble.mb_computed", "MB/op"),
    ("toeplitz.assemble.useful_ratio", "ratio"),
    ("toeplitz.reverse_blocks.self_s", "s/op"),
    ("toeplitz.positivity_profile.calls", "calls/op"),
    ("toeplitz.positivity_profile.self_s", "s/op"),
    ("linalg.psd_report.calls", "calls/op"),
    ("linalg.psd_report.self_s", "s/op"),
    ("linalg.minimal_factorization.calls", "calls/op"),
    ("linalg.minimal_factorization.self_s", "s/op"),
    ("series.series_tail_bound.calls", "calls/op"),
    ("series.series_tail_bound.self_s", "s/op"),
    ("series.kernel_gram.calls", "calls/op"),
    ("series.kernel_gram.self_s", "s/op"),
    ("series.kernel_gram.blocks", "blocks/op"),
    ("series.eval_series.calls", "calls/op"),
    ("series.eval_series.self_s", "s/op"),
    ("series.kernel_value.self_s", "s/op"),
    ("series.reduce.self_s", "s/op"),
    ("series.realization_coefficients.self_s", "s/op"),
    ("series.random_realization.self_s", "s/op"),
    ("io.parse_problem.calls", "calls/op"),
    ("io.parse_problem.self_s", "s/op"),
    ("io.serialize_problem.self_s", "s/op"),
    ("io.canonical_json.self_s", "s/op"),
    ("io.bytes", "B/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.generate.self_s", "s/op"),
    ("cli.check.self_s", "s/op"),
    ("cli.reduce.self_s", "s/op"),
    ("cli.solve.self_s", "s/op"),
    ("cli.eval.self_s", "s/op"),
    ("cli.kernel.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)


def _feasibility_checks(names, name_id, parent, size):
    """Full-matrix eigvalsh calls made under a central_step, and the steps."""
    step_id = names.index("extension.central_step") if "extension.central_step" in names else -1
    eig_id = names.index("numpy.eigvalsh") if "numpy.eigvalsh" in names else -1
    steps = int(np.count_nonzero(name_id == step_id))
    checks = 0
    for idx in np.flatnonzero(name_id == eig_id):
        up = parent[idx]
        while up >= 0 and name_id[up] != step_id:
            up = parent[up]
        if up >= 0 and size[idx] == size[up]:
            checks += 1
    return checks, steps


def layer_metrics(tracer, n_ops, overhead_ratio):
    """Per-op layer metrics of the traced ops, keyed as in ``PER_LAYER``."""
    spans = tracer.arrays()
    names = tracer.names
    name_id, size, op = spans["name_id"], spans["size"], spans["op"]
    self_t = tracer.self_times()
    values = {}
    for i, name in enumerate(names):
        mask = name_id == i
        values[f"{name}.calls"] = np.count_nonzero(mask) / n_ops
        values[f"{name}.self_s"] = float(self_t[mask].sum()) / n_ops
        values[f"{name}.n3"] = float((size[mask].astype(float) ** 3).sum()) / n_ops

    def sized(name):
        i = names.index(name) if name in names else -1
        return size[name_id == i], op[name_id == i]

    assembled, assemble_ops = sized("toeplitz.assemble")
    values["toeplitz.assemble.mb_computed"] = float(assembled.sum()) / 1e6 / n_ops
    largest = sum(int(assembled[assemble_ops == o].max()) for o in np.unique(assemble_ops))
    values["toeplitz.assemble.useful_ratio"] = (
        largest / float(assembled.sum()) if assembled.size else 0.0
    )
    grids, _ = sized("series.kernel_gram")
    values["series.kernel_gram.blocks"] = float((grids.astype(float) ** 2).sum()) / n_ops
    parsed, _ = sized("io.parse_problem")
    emitted, _ = sized("io.canonical_json")
    values["io.bytes"] = float(parsed.sum() + emitted.sum()) / n_ops
    checks, steps = _feasibility_checks(names, name_id, spans["parent"], size)
    values["extension.feasibility_checks_per_step"] = checks / steps if steps else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def folded_self_times(tracer):
    """Self time per library function with its numpy children folded in.

    numpy spans are charged to the library function that called them, so
    the ranking names the layer that asked for the work.
    """
    names = tracer.names
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    self_t = tracer.self_times()
    owner = name_id.copy()
    is_numpy = np.array([n.startswith("numpy.") for n in names])[name_id]
    has_parent = parent >= 0
    fold = is_numpy & has_parent
    owner[fold] = name_id[parent[fold]]
    totals = np.bincount(owner, weights=self_t, minlength=len(names))
    return sorted(zip(names, totals), key=lambda item: -item[1])
