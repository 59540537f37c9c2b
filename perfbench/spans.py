"""Spans around the calls into cubespec's layers, recorded from outside.

A traced pass replaces the public functions of cubespec's modules with
thin wrappers (and puts the originals back afterwards).  Because the
library looks its own helpers up as module globals, calls made inside the
library go through the wrappers too, so a `stats` span holds the
`walsh_transform`, `influence` and `entropy` spans it caused and a
certificate span holds its oracle, build and stats spans.  A layer's self
time is its span's duration minus the time its child spans cover.

Spans are kept in memory as dicts (id, name, start, end, parent, pass and
work counts) and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "cubespec",
    "cubespec.construct",
    "cubespec.spectrum",
    "cubespec.verify",
    "cubespec.fileio",
    "cubespec.cli",
)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _tables(result) -> list:
    """Value tables inside a builder's result (a function, a pair or a tuple)."""
    if hasattr(result, "values"):
        return [result.values]
    if hasattr(result, "p"):
        return [result.p.values, result.q.values]
    return [f.values for f in result]


def _build(args, kwargs, result, ok):
    return {"points": sum(t.size for t in _tables(result))} if ok else {}


def _closed_form(args, kwargs, result, ok):
    return {"coords": int(_first_arg(args, kwargs).n)}


def _transform(args, kwargs, result, ok):
    f = _first_arg(args, kwargs)
    v = f.values
    real = v.dtype.kind != "c" or not v.imag.any()
    return {
        "n": int(f.n),
        "kind": "real" if real else "complex",
        "points": int(v.size),
        # computed, not measured: each of the n butterfly passes reads and
        # writes every element once
        "bytes_computed": 2 * int(f.n) * int(v.nbytes),
        "butterflies_computed": int(f.n) * int(v.size),
    }


def _oracle(args, kwargs, result, ok):
    params = _first_arg(args, kwargs)
    return {"n": int(params.n), "weights": hash(params.a.tobytes())}


def _spotcheck(args, kwargs, result, ok):
    params = _first_arg(args, kwargs)
    samples = args[1] if len(args) > 1 else kwargs.get("samples", 10_000)
    return {"n": int(params.n), "samples": int(samples) if ok else 0}


def _file_bytes(args, kwargs, result, ok):
    path = _first_arg(args, kwargs)
    return {"bytes": os.path.getsize(path) if ok and isinstance(path, str) else 0}


def _cli_main(args, kwargs, result, ok):
    argv = _first_arg(args, kwargs)
    return {"subcommand": argv[0], "exit_code": result if ok else None}


def _none(args, kwargs, result, ok):
    return {}


#: (module, function, span name, work counts); functions that a module
#: lacks are skipped, so a refactor that removes one leaves its span empty.
WRAPPED = (
    ("cubespec.construct", "normalized_real", "construct.build", _build),
    ("cubespec.construct", "unimodular_complex", "construct.build", _build),
    ("cubespec.construct", "neeman_function", "construct.build", _build),
    ("cubespec.construct", "build_pq", "construct.build", _build),
    ("cubespec.construct", "closed_form", "construct.closed_form", _closed_form),
    ("cubespec.construct", "normalized_closed_form", "construct.closed_form", _closed_form),
    ("cubespec.spectrum", "walsh_transform", "spectrum.transform", _transform),
    ("cubespec.spectrum", "influence", "spectrum.reduce", _none),
    ("cubespec.spectrum", "entropy", "spectrum.reduce", _none),
    ("cubespec.spectrum", "stats", "spectrum.stats", _none),
    ("cubespec.verify", "oracle_compare", "verify.oracle", _oracle),
    ("cubespec.verify", "oracle_campaign", "verify.campaign", _none),
    ("cubespec.verify", "certify_theorem1", "verify.certify", _none),
    ("cubespec.verify", "certify_theorem2", "verify.certify", _none),
    ("cubespec.verify", "certify_remark2", "verify.certify", _none),
    ("cubespec.verify", "certify_remark3", "verify.certify", _none),
    ("cubespec.verify", "certify_classical_rs", "verify.certify", _none),
    ("cubespec.verify", "certify_neeman", "verify.certify", _none),
    ("cubespec.verify", "modulus_spotcheck", "verify.spotcheck", _spotcheck),
    ("cubespec.fileio", "write_function", "fileio.write", _file_bytes),
    ("cubespec.fileio", "read_function", "fileio.read", _file_bytes),
    ("cubespec.cli", "main", "cli.main", _cli_main),
)


class Tracer:
    """In-memory span recorder for one run; spans nest by call order."""

    def __init__(self, pass_id):
        self.spans: list[dict] = []
        self.pass_id = pass_id
        self._stack: list[str] = []
        self._next = 0

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block; the yielded record may take more attributes
        after the block ends."""
        sid = f"{self.pass_id}.{self._next}"
        self._next += 1
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "pass": self.pass_id, **attrs}
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, fn, name: str, counts):
        measure_peak = name == "spectrum.stats"

        def traced(*args, **kwargs):
            if measure_peak:
                # allocation peak of this call alone, started before the span
                # opens so that starting tracemalloc is not charged to it
                tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            ok = False
            result = None
            rec = {}
            try:
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                    ok = True
                return result
            finally:
                # work counts are taken after the span closes, so their cost
                # shows in the tracing overhead and not in the layer's time
                if measure_peak:
                    rec["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                    rec["table_bytes"] = int(_first_arg(args, kwargs).values.nbytes)
                rec.update(counts(args, kwargs, result, ok))
                rec["ok"] = ok

        return traced

    @contextmanager
    def installed(self):
        """Route every public layer function through a span for the block."""
        wrappers = {}
        for home, attr, name, counts in WRAPPED:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self.wrap(fn, name, counts))
        patched = []
        for modname in MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time covered by its direct children."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


#: Per-layer metrics, name -> unit.  Times are self seconds per traced pass,
#: counts are per traced pass; cli.start_s is the median of its probes.
LAYER_METRICS = {
    "construct.build_s": "s",
    "construct.build_points": "count",
    "construct.closed_form_s": "s",
    "construct.closed_form_coords": "count",
    "spectrum.transform_s.real": "s",
    "spectrum.transform_s.complex": "s",
    "spectrum.transform_points": "count",
    "spectrum.transform_bytes_computed": "bytes",
    "spectrum.butterflies_computed": "count",
    "spectrum.reduce_s": "s",
    "spectrum.stats_s": "s",
    "spectrum.peak_bytes_per_table_byte": "ratio",
    "verify.oracle_s": "s",
    "verify.oracle_points": "count",
    "verify.certify_s": "s",
    "verify.spotcheck_s": "s",
    "verify.spotcheck_samples": "count",
    "fileio.write_s": "s",
    "fileio.read_s": "s",
    "fileio.bytes_written": "bytes",
    "fileio.bytes_read": "bytes",
    "cli.start_s": "s",
    "cli.main_s.gen": "s",
    "cli.main_s.stats": "s",
    "cli.main_s.verify": "s",
    "cli.main_s.sweep": "s",
    "cli.main_s.neeman": "s",
    "trace.overhead": "ratio",
}

# span name -> metric that receives its self time
_SELF_TIME = {
    "construct.build": "construct.build_s",
    "construct.closed_form": "construct.closed_form_s",
    "spectrum.reduce": "spectrum.reduce_s",
    "spectrum.stats": "spectrum.stats_s",
    "verify.oracle": "verify.oracle_s",
    "verify.certify": "verify.certify_s",
    "verify.spotcheck": "verify.spotcheck_s",
    "fileio.write": "fileio.write_s",
    "fileio.read": "fileio.read_s",
}

# span name -> (attribute, metric) for summed work counts
_COUNTS = {
    "construct.build": (("points", "construct.build_points"),),
    "construct.closed_form": (("coords", "construct.closed_form_coords"),),
    "spectrum.transform": (
        ("points", "spectrum.transform_points"),
        ("bytes_computed", "spectrum.transform_bytes_computed"),
        ("butterflies_computed", "spectrum.butterflies_computed"),
    ),
    "verify.spotcheck": (("samples", "verify.spotcheck_samples"),),
    "fileio.write": (("bytes", "fileio.bytes_written"),),
    "fileio.read": (("bytes", "fileio.bytes_read"),),
}


def layer_metrics(spans: list[dict], traced_passes: int, overhead: float) -> dict[str, float]:
    """Fold spans into the per-layer metrics; a layer a workload skips reads 0."""
    out = {name: 0.0 for name in LAYER_METRICS}
    selfs = self_times(spans)
    peak = table = 0
    oracle_seen = set()
    starts = []
    for s in spans:
        name = s["name"]
        own = selfs[s["id"]]
        if name in _SELF_TIME:
            out[_SELF_TIME[name]] += own
        elif name == "spectrum.transform":
            out[f"spectrum.transform_s.{s['kind']}"] += own
        elif name == "cli.main":
            metric = f"cli.main_s.{s['subcommand']}"
            if metric in out:
                out[metric] += own
        elif name == "cli.start":
            starts.append(s["end"] - s["start"])
        for attr, metric in _COUNTS.get(name, ()):
            out[metric] += s.get(attr, 0)
        if name == "spectrum.stats":
            peak += s["peak_bytes"]
            table += s["table_bytes"]
        if name == "verify.oracle":
            # the oracle memoizes per weight vector, so count the points of
            # each distinct table it must enumerate in a pass
            key = (s["pass"], s["weights"])
            if key not in oracle_seen:
                oracle_seen.add(key)
                out["verify.oracle_points"] += 1 << s["n"]
    per_pass = max(traced_passes, 1)
    for name in out:
        out[name] /= per_pass
    out["spectrum.peak_bytes_per_table_byte"] = peak / table if table else 0.0
    out["cli.start_s"] = statistics.median(starts) if starts else 0.0
    out["trace.overhead"] = overhead
    return out
