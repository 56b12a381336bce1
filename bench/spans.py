"""Spans around resolvkit's public functions, installed from outside.

Each wrapper replaces a function at the name through which other modules
call it (``resolve.compose_maps``, ``cli.verify_resolution``, ...), records
a span (layer name, parent span, start, end) in memory, and is removed again
by :meth:`Tracer.uninstall`.  ``Jet`` construction and ``Jet.__mul__`` run
millions of times, so they are counted (and multiplication timed) without a
span each.  No file of the program is edited.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# layer name -> [(module attribute path, ...)], as "module:attr" or
# "module:Class.attr"; every path of one layer records the same span name.
SPANNED = {
    "cli": ["cli:main"],
    "parse": ["cli:parse_polynomial", "cli:parse_many"],
    "resolve.drive": [
        "cli:resolve_hypersurface",
        "cli:monomialize_principal",
        "cli:rectilinearize",
    ],
    "resolve.serialize": ["resolve:ResolutionTree.to_json"],
    "resolve.load": ["json:load", "cli:tree_from_json_dict"],
    "resolve.verify": ["cli:verify_resolution"],
    "series.substitute": [
        "series:substitute",
        "resolve:substitute",
        "carleman:substitute",
        "faa_di_bruno:substitute",
        "cli:substitute",
    ],
    "series.compose_maps": [
        "series:compose_maps",
        "resolve:compose_maps",
        "blowup:compose_maps",
    ],
    "series.implicit_solve": ["series:implicit_solve", "resolve:implicit_solve"],
    "series.invert_map": ["series:invert_map", "carleman:invert_map"],
    "blowup.pullback": ["blowup:ChartMap.pullback"],
    "blowup.crossings": ["resolve:normal_crossings_check"],
    "faa_di_bruno.compose_coefficient": [
        "faa_di_bruno:compose_coefficient",
        "cli:compose_coefficient",
    ],
    "faa_di_bruno.enumerate": ["faa_di_bruno:enumerate_decompositions"],
    "carleman.majorant": ["carleman:inverse_majorant"],
    "carleman.domination": ["carleman:check_inverse_domination"],
}

# per_layer metric -> unit, in BENCHMARK.json order
METRICS = {
    "cli.self_ms": "ms",
    "parse.parse_ms": "ms",
    "resolve.drive_ms": "ms",
    "resolve.serialize_ms": "ms",
    "resolve.serialize_compose_calls": "count",
    "resolve.load_ms": "ms",
    "resolve.verify_ms": "ms",
    "resolve.verify_compose_calls": "count",
    "resolve.nodes": "count",
    "resolve.leaves": "count",
    "resolve.blowups": "count",
    "resolve.json_kib": "KiB",
    "series.jets_built": "count",
    "series.jet_mul_calls": "count",
    "series.jet_mul_ms": "ms",
    "series.substitute_calls": "count",
    "series.substitute_ms": "ms",
    "series.compose_maps_ms": "ms",
    "series.implicit_solve_calls": "count",
    "series.implicit_solve_ms": "ms",
    "series.implicit_solve_rounds": "count",
    "series.invert_map_calls": "count",
    "series.invert_map_ms": "ms",
    "series.invert_map_rounds": "count",
    "blowup.pullback_calls": "count",
    "blowup.pullback_ms": "ms",
    "blowup.crossings_ms": "ms",
    "faa_di_bruno.compose_coefficient_ms": "ms",
    "faa_di_bruno.decompositions": "count",
    "faa_di_bruno.peak_kib": "KiB",
    "carleman.majorant_ms": "ms",
    "carleman.domination_ms": "ms",
    "trace.overhead_pct": "%",
}


def peak_kib(ops) -> float:
    """Largest tracemalloc peak, in KiB, over one more call of each op.

    Run apart from the traced round: tracemalloc slows every allocation,
    so inside the round it would inflate the spans it measures."""
    peak = 0.0
    for op in ops:
        tracemalloc.start()
        try:
            op.note(op.fn())
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] / 1024)
            tracemalloc.stop()
    return peak


def _resolve_path(mods, path):
    module, attr = path.split(":")
    owner = getattr(mods, module)
    parts = attr.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self, mods):
        self.mods = mods
        self.spans = []  # index = span id; (name, parent id or -1, t0, t1)
        self.stack = []
        self.counts = Counter()
        self.mul_seconds = 0.0
        self._saved = []

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, orig):
        spans, stack, on_result = self.spans, self.stack, self._on_result

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1)
            on_result(name, args, result)
            return result

        return wrapper

    def install(self):
        for name, paths in SPANNED.items():
            for path in paths:
                owner, attr = _resolve_path(self.mods, path)
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        jet = self.mods.series.Jet
        counts = self.counts
        init, mul = jet.__init__, jet.__mul__

        def counted_init(self_, *args, **kwargs):
            counts["jets_built"] += 1
            init(self_, *args, **kwargs)

        def timed_mul(a, b):
            counts["jet_mul_calls"] += 1
            t0 = perf_counter()
            try:
                return mul(a, b)
            finally:
                self.mul_seconds += perf_counter() - t0

        self._patch(jet, "__init__", counted_init)
        self._patch(jet, "__mul__", timed_mul)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _on_result(self, name, args, result):
        if name == "resolve.drive" or (name == "resolve.load" and not isinstance(result, dict)):
            self.counts["nodes"] += len(result.nodes)
            self.counts["leaves"] += len(result.leaves())
            self.counts["blowups"] += result.blowup_count
        elif name == "resolve.serialize":
            self.counts["json_bytes"] += len(result)
        elif name == "resolve.load":  # json.load: count the file read
            self.counts["json_bytes"] += os.fstat(args[0].fileno()).st_size
        elif name == "faa_di_bruno.enumerate":
            self.counts["decompositions"] += len(result)

    # -- reduction --------------------------------------------------------------

    def metrics(self, ops: int, overhead_pct: float, peak_kib: float) -> dict:
        """Per-operation layer metrics of everything recorded so far;
        ``peak_kib`` comes from :func:`peak_kib`, outside the traced round."""
        spans = self.spans
        names = [s[0] for s in spans]
        dur = [s[3] - s[2] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child_time[s[1]] += dur[i]
        # inclusive time counts a span only when no ancestor has its name
        total = defaultdict(float)
        calls = Counter()
        under = Counter()  # (ancestor layer, layer) -> calls
        for i, (name, parent, _, _) in enumerate(spans):
            calls[name] += 1
            outermost = True
            p = parent
            seen = set()
            while p >= 0:
                pname = names[p]
                if pname == name:
                    outermost = False
                if pname not in seen:
                    seen.add(pname)
                    under[(pname, name)] += 1
                p = spans[p][1]
            if outermost:
                total[name] += dur[i]
        cli_self = sum(dur[i] - child_time[i] for i in range(len(spans)) if names[i] == "cli")
        c = self.counts

        def ms(x):
            return 1000.0 * x / ops

        def per(x):
            return x / ops

        values = {
            "cli.self_ms": ms(cli_self),
            "parse.parse_ms": ms(total["parse"]),
            "resolve.drive_ms": ms(total["resolve.drive"]),
            "resolve.serialize_ms": ms(total["resolve.serialize"]),
            "resolve.serialize_compose_calls": per(under[("resolve.serialize", "series.compose_maps")]),
            "resolve.load_ms": ms(total["resolve.load"]),
            "resolve.verify_ms": ms(total["resolve.verify"]),
            "resolve.verify_compose_calls": per(under[("resolve.verify", "series.compose_maps")]),
            "resolve.nodes": per(c["nodes"]),
            "resolve.leaves": per(c["leaves"]),
            "resolve.blowups": per(c["blowups"]),
            "resolve.json_kib": per(c["json_bytes"] / 1024),
            "series.jets_built": per(c["jets_built"]),
            "series.jet_mul_calls": per(c["jet_mul_calls"]),
            "series.jet_mul_ms": ms(self.mul_seconds),
            "series.substitute_calls": per(calls["series.substitute"]),
            "series.substitute_ms": ms(total["series.substitute"]),
            "series.compose_maps_ms": ms(total["series.compose_maps"]),
            "series.implicit_solve_calls": per(calls["series.implicit_solve"]),
            "series.implicit_solve_ms": ms(total["series.implicit_solve"]),
            "series.implicit_solve_rounds": per(under[("series.implicit_solve", "series.substitute")]),
            "series.invert_map_calls": per(calls["series.invert_map"]),
            "series.invert_map_ms": ms(total["series.invert_map"]),
            "series.invert_map_rounds": per(under[("series.invert_map", "series.compose_maps")]),
            "blowup.pullback_calls": per(calls["blowup.pullback"]),
            "blowup.pullback_ms": ms(total["blowup.pullback"]),
            "blowup.crossings_ms": ms(total["blowup.crossings"]),
            "faa_di_bruno.compose_coefficient_ms": ms(total["faa_di_bruno.compose_coefficient"]),
            "faa_di_bruno.decompositions": per(c["decompositions"]),
            "faa_di_bruno.peak_kib": peak_kib,
            "carleman.majorant_ms": ms(total["carleman.majorant"]),
            "carleman.domination_ms": ms(total["carleman.domination"]),
            "trace.overhead_pct": overhead_pct,
        }
        return values

    def write(self, path):
        """Write the spans as JSON lines: id, parent, name, start and
        duration in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_us": round((t0 - origin) * 1e6, 1),
                    "dur_us": round((t1 - t0) * 1e6, 1),
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
