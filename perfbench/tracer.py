"""Per-layer tracing installed from outside the program.

`Tracer.install()` wraps every public function of each `fplab` module (a
layer) and swaps the wrapper in wherever a module looks the name up: the
defining module, every module that imported it, the package namespace, and
module-level tuples or dicts that hold it (`verify.CRITERIA`,
`cli.COMMANDS`). Each call records a span: name, start, end, parent span.
Sparse factorizations are counted by replacing the `spla` module reference
in each layer with a proxy whose `splu`/`spilu` time the call, hash the
factored matrix, and return the factor behind a proxy that times its
back-solves. Each factorization is charged to the innermost open span.
Span names asked of the analysis methods must be names that were wrapped,
so a renamed function fails loudly instead of reading 0.
`uninstall()` restores every name. Nothing under `src/` is edited, and
wrapped calls return the very objects the originals return.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import time

LAYERS = (
    "mesh",
    "quadrature",
    "fem",
    "coefficients",
    "density",
    "forms",
    "experiment",
    "mollifiers",
    "verify",
    "cli",
    "config",
)


class _TracedFactor:
    """A SuperLU/ILU factor whose solve calls are timed."""

    def __init__(self, factor, tracer, layer):
        self._factor = factor
        self._tracer = tracer
        self._layer = layer

    def solve(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._factor.solve(*args, **kwargs)
        self._tracer.backsolves.append((self._layer, time.perf_counter() - start))
        return out

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _SplaProxy:
    """Stands in for `scipy.sparse.linalg` inside one layer module."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def splu(self, a, *args, **kwargs):
        return self._tracer.factorize("splu", self._real.splu, a, args, kwargs)

    def spilu(self, a, *args, **kwargs):
        return self._tracer.factorize("spilu", self._real.spilu, a, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _matrix_digest(a) -> str:
    """Digest of a CSC/CSR matrix: format, shape, pattern and values."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((a.format, a.shape)).encode())
    for arr in (a.indptr, a.indices, a.data):
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """In-memory span and factorization recorder for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans = []  # [name, layer, start, end, parent index]
        self.stack = []
        self.factorizations = []  # dicts, see factorize()
        self.backsolves = []  # (layer, seconds)
        self.meshes = []  # (vertices, elements, interior vertices)
        self.wrapped = set()  # span names of the wrapped functions
        self._fill = {}
        self._undo = []

    # recording -----------------------------------------------------------

    def _layer_now(self) -> str:
        return self.spans[self.stack[-1]][1] if self.stack else "none"

    def wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        self.wrapped.add(name)
        spans, stack, meshes = self.spans, self.stack, self.meshes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, layer, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if layer == "mesh" and hasattr(out, "num_vertices"):
                meshes.append((out.num_vertices, out.num_elements, int(out.interior.size)))
            return out

        return traced

    def factorize(self, kind, fn, a, args, kwargs):
        layer = self._layer_now()
        start = time.perf_counter()
        factor = fn(a, *args, **kwargs)
        seconds = time.perf_counter() - start
        system = _matrix_digest(a)
        if system not in self._fill:
            # L carries an explicit unit diagonal, so nnz(L + U) drops n once;
            # building L and U copies the factor, so it is done once per
            # distinct matrix and kept out of the factorization time
            self._fill[system] = (
                int(factor.L.nnz + factor.U.nnz - a.shape[0]) if kind == "splu" else None
            )
        self.factorizations.append(
            {
                "kind": kind,
                "layer": layer,
                "parent": self.stack[-1] if self.stack else None,
                "start": start - self.t0,
                "seconds": seconds,
                "n": int(a.shape[0]),
                "nnz": int(a.nnz),
                "lu_nnz": self._fill[system],
                "system": system,
            }
        )
        return _TracedFactor(factor, self, layer)

    # installation --------------------------------------------------------

    def _set(self, obj, name, value):
        self._undo.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def install(self):
        package = importlib.import_module("fplab")
        modules = [importlib.import_module(f"fplab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self.wrap(obj, layer)

        def swap(value):
            return wrappers.get(value, value) if inspect.isfunction(value) else value

        for mod in [package] + modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
                elif isinstance(obj, tuple) and any(swap(v) is not v for v in obj):
                    self._set(mod, name, tuple(swap(v) for v in obj))
                elif isinstance(obj, dict) and any(swap(v) is not v for v in obj.values()):
                    self._set(mod, name, {k: swap(v) for k, v in obj.items()})
            real = vars(mod).get("spla")
            if real is not None:
                self._set(mod, "spla", _SplaProxy(real, self))
        return self

    def uninstall(self):
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    # analysis ------------------------------------------------------------

    def _known(self, names) -> set:
        names = {names} if isinstance(names, str) else set(names)
        missing = names - self.wrapped
        if missing:
            raise KeyError(f"no wrapped function is named {sorted(missing)}")
        return names

    def _children_time(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def time_in(self, names) -> float:
        """Wall time inside spans named in `names`, outermost ones only."""
        names = self._known(names)
        total = 0.0
        for i, (name, _, start, end, _) in enumerate(self.spans):
            if name in names and not self._has_ancestor(i, lambda s: s[0] in names):
                total += end - start
        return total

    def layer_entries(self, layer: str) -> list:
        """Durations of calls into `layer` from outside it."""
        return [
            end - start
            for i, (_, lay, start, end, _) in enumerate(self.spans)
            if lay == layer and not self._has_ancestor(i, lambda s: s[1] == layer)
        ]

    def self_time(self, layer: str) -> float:
        """Time inside `layer` spans not covered by any child span."""
        covered = self._children_time()
        return sum(
            ((end - start) - covered[i]
             for i, (_, lay, start, end, _) in enumerate(self.spans)
             if lay == layer),
            0.0,
        )

    def durations(self, name: str) -> list:
        self._known(name)
        return [end - start for n, _, start, end, _ in self.spans if n == name]

    def count(self, names) -> int:
        names = self._known(names)
        return sum(1 for s in self.spans if s[0] in names)

    def _has_ancestor(self, i, pred) -> bool:
        parent = self.spans[i][4]
        while parent is not None:
            if pred(self.spans[parent]):
                return True
            parent = self.spans[parent][4]
        return False

    def factor_events(self, layer: str) -> list:
        return [f for f in self.factorizations if f["layer"] == layer]

    def backsolve_seconds(self, layer: str) -> list:
        return [s for lay, s in self.backsolves if lay == layer]

    def counts(self) -> dict:
        """Exact counts that must repeat between traced runs of one input."""
        calls = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        per_layer = {}
        for f in self.factorizations:
            per_layer.setdefault(f["layer"], []).append(f["system"])
        return {
            "calls": dict(sorted(calls.items())),
            "factorizations": {k: len(v) for k, v in sorted(per_layer.items())},
            "distinct_systems": {k: len(set(v)) for k, v in sorted(per_layer.items())},
            "backsolves": len(self.backsolves),
        }

    def span_records(self) -> list:
        return [
            {
                "id": i,
                "name": name,
                "start": start - self.t0,
                "end": end - self.t0,
                "parent": parent,
                "run": self.run_id,
            }
            for i, (name, _, start, end, parent) in enumerate(self.spans)
        ]


def tail_value(samples) -> float:
    """Value at the highest percentile with at least 10 samples beyond it.

    With 10 samples or fewer no such percentile exists; the median is
    returned instead (0 without samples).
    """
    xs = sorted(samples)
    if len(xs) <= 10:
        return statistics.median(xs) if xs else 0.0
    return xs[len(xs) - 11]
