"""Outside-in tracing of the `targetset` modules.

`Tracer.install` replaces every public function of every package module with
a wrapper, at every module attribute that refers to it (its own module, the
modules that imported it by name, and the package namespace). Each call
becomes a span: name, start, end, parent span and op id. Spans stay in
memory until the run ends. A layer is a module; its self time is the time
its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "bench.op"


def package_modules(package: str = "targetset") -> list:
    pkg = importlib.import_module(package)
    names = sorted(m.name for m in pkgutil.iter_modules(pkg.__path__))
    return [pkg] + [importlib.import_module(f"{package}.{name}") for name in names]


class Tracer:
    """Spans and boundary counters for the functions of `modules`.

    `sites` are further modules, outside the package, that imported some of
    those functions by name; their bindings are wrapped too.
    """

    def __init__(self, modules, sites=()):
        self.modules = modules
        self.sites = list(sites)
        self.names: list[str] = [ROOT_SPAN]
        self.spans: list[tuple | None] = []  # (name index, start ns, end ns, parent, op id)
        self.stack: list[int] = []
        self.op_id = -1
        self.results: Counter[str] = Counter()
        self._wrappers: dict[int, object] = {}  # id of original -> wrapper
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if not self._wrappers:
            for module in self.modules[1:]:
                short = module.__name__.rsplit(".", 1)[1]
                for attr, fn in vars(module).items():
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ == module.__name__:
                        self._wrappers[id(fn)] = self._wrap(fn, f"{short}.{attr}")
        for module in self.modules + self.sites:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.op_id)
            if observe is not None:
                observe(self.results, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self, op_id: int):
        """Record the span that stands for one whole op."""
        self.op_id = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            # An op stopped by its budget can leave wrapper frames on the stack.
            del self.stack[self.stack.index(sid):]
            self.spans[sid] = (0, start, end, -1, op_id)

    def self_times_ns(self, first_span: int, last_span: int) -> Counter[str]:
        """Self time per span name over spans[first_span:last_span] and their children."""
        spans = self.spans[first_span:last_span]
        child = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= first_span:
                child[span[3] - first_span] += span[2] - span[1]
        totals: Counter[str] = Counter()
        for span, covered in zip(spans, child):
            if span is not None:
                totals[self.names[span[0]]] += span[2] - span[1] - covered
        return totals

    def call_counts(self, first_span: int, last_span: int) -> Counter[str]:
        counts: Counter[str] = Counter()
        for span in self.spans[first_span:last_span]:
            if span is not None:
                counts[self.names[span[0]]] += 1
        return counts

    def write(self, path: Path) -> None:
        """Write all spans as gzipped TSV: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for sid, span in enumerate(self.spans):
                if span is not None:
                    index, start, end, parent, op = span
                    out.write(f"{sid}\t{self.names[index]}\t{start}\t{end}\t{parent}\t{op}\n")


def _rounds(results, trace):
    results["engine.rounds"] += trace.num_rounds


def _explored(results, result):
    results["oracles.explored"] += result.explored


def _branch(results, report):
    # classify_and_solve answers None when no class applies.
    key = "none" if report is None else report.certificate.get("branch", report.method)
    results[f"solvers.branch_{key.replace('-', '_')}"] += 1


# Counters read from return values at the layer boundary.
_OBSERVERS = {
    "engine.run_activation": _rounds,
    "engine.run_with_incentives": _rounds,
    "oracles.exact_min_target_set": _explored,
    "oracles.exact_min_target_vector": _explored,
    "oracles.exact_min_vertex_cover": _explored,
    "oracles.grid_min_target_vector": _explored,
    "solvers.classify_and_solve": _branch,
}
