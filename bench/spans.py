"""In-memory span recorder that wraps the program's public functions.

``Tracer.install`` replaces every public function of each layer module at
every module attribute that refers to it (``cli``, ``framework``,
``exchangeable`` and ``lacunary`` import functions by name), plus the
measure methods named in ``METHODS``, with a wrapper that records a span:
name, parent span, start and end.  Spans are kept per thread, so a chunk
that ``parallel.map_chunks`` runs on a worker thread is recorded as a
child of its ``map_chunks`` span, under the name of the layer that asked
for the map.  ``uninstall`` restores every original attribute.

A layer's self time is its span's duration minus the part of that
interval that its child spans cover.

A few scalar helpers run once per term of an inner loop and cost about
as much as a wrapper; they are not spanned (``UNSPANNED``).  ``rng.mix64``
only counts the words it generates.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = (
    "rng", "parallel", "measures", "metrics", "sequences",
    "lacunary", "framework", "exchangeable", "svg", "cli",
)
UNSPANNED = {("lacunary", "frac_mul"), ("lacunary", "ceil_log2")}
METHODS = {
    ("DiscreteMeasure", "quantile_many"): "measures.quantile_many",
    ("DiscreteMeasure", "cdf_many"): "measures.discrete_cdf",
    ("DiscreteMeasure", "cdf_left_many"): "measures.discrete_cdf",
    ("DiscreteMeasure", "sample"): "measures.sample",
    ("MixedNormal", "cdf_many"): "measures.mixed_normal_cdf",
    ("MixedNormal", "cdf_left_many"): "measures.mixed_normal_cdf",
}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_clt(args, kwargs, result):
    return {"lacunary.clt_sample.terms": _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "m")}


def _count_lil(args, kwargs, result):
    return {"lacunary.lil_trajectory.terms": _arg(args, kwargs, 2, "n_max")}


def _count_prohorov(args, kwargs, result):
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    return {
        "metrics.prohorov_distance.calls": 1,
        "metrics.prohorov_distance.atom_pairs": len(mu.atoms) * len(nu.atoms),
    }


def _count_ks(args, kwargs, result):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    return {"metrics.ks_distance.points": len(f.jump_points()) + len(g.jump_points())}


def _count_words(args, kwargs, result):
    return {"rng.words": int(result.size)}


COUNTERS = {
    "lacunary.clt_sample": _count_clt,
    "lacunary.lil_trajectory": _count_lil,
    "metrics.prohorov_distance": _count_prohorov,
    "metrics.ks_distance": _count_ks,
    "rng.mix64_vec": _count_words,
}


class Tracer:
    """Spans and counts of the calls into the program's layers."""

    def __init__(self):
        self.package = sys.modules["permutalab"]
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.map_threads: dict[int, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.map_threads = {}

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, counts: dict[str, int]) -> None:
        with self._lock:
            for key, v in counts.items():
                self.counts[key] += v

    def call(self, name: str, fn, args, kwargs, parent: int | None = None, counter=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((sid, name))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, t0, t1))
        if counter is not None:
            self._add(counter(args, kwargs, result))
        return result

    # -- wrappers -----------------------------------------------------

    def _spanned(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter=counter)

        return wrapper

    def _counted_words(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add({"rng.words": 1})
            return fn(*args, **kwargs)

        return wrapper

    def _map_chunks(self, fn):
        """Span each chunk as a child of its map, named after the caller."""

        @functools.wraps(fn)
        def wrapper(total, chunk_fn, threads=1):
            stack = self._stack()
            caller = stack[-1][1] if stack else "parallel.caller"

            def mapped(total, chunk_fn, threads):
                map_id = self._stack()[-1][0]
                self.map_threads[map_id] = threads

                def chunk(start, count):
                    self._add({"parallel.chunks": 1})
                    return self.call(caller, chunk_fn, (start, count), {}, parent=map_id)

                return fn(total, chunk, threads)

            return self.call("parallel.map_chunks", mapped, (total, chunk_fn, threads), {})

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == self.package.__name__
                                  or name.startswith(self.package.__name__ + "."))
        ]
        replacements = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if (layer, name) == ("rng", "mix64"):
                    replacements[id(fn)] = (fn, self._counted_words(fn))
                elif (layer, name) == ("parallel", "map_chunks"):
                    replacements[id(fn)] = (fn, self._map_chunks(fn))
                elif (layer, name) not in UNSPANNED:
                    span_name = "cli" if layer == "cli" else f"{layer}.{name}"
                    replacements[id(fn)] = (fn, self._spanned(span_name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        measures = self.package.measures
        for (cls_name, meth), span_name in METHODS.items():
            cls = getattr(measures, cls_name)
            self._patch(cls, meth, self._spanned(span_name, vars(cls)[meth]))
        cli = self.package.cli
        self._patch(cli, "_atomic_write", self._counted_write(cli._atomic_write))

    def _counted_write(self, fn):
        @functools.wraps(fn)
        def wrapper(path, text):
            if path.name != "manifest.json":
                self._add({"cli.bytes_written": len(text.encode("utf-8"))})
            return fn(path, text)

        return wrapper

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the part covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for sid, name, _, t0, t1 in spans:
        out[name] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
    return out


def map_stats(tracer: Tracer) -> tuple[float, float]:
    """(summed map_chunks wall, summed chunk time / (threads x map wall))."""
    maps = {sid: t1 - t0 for sid, name, _, t0, t1 in tracer.spans if sid in tracer.map_threads}
    busy = sum(t1 - t0 for _, _, parent, t0, t1 in tracer.spans if parent in maps)
    capacity = sum(tracer.map_threads[sid] * wall for sid, wall in maps.items())
    return sum(maps.values()), (busy / capacity if capacity else 0.0)
