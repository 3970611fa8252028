"""Spans and counters around toricsym's public functions, recorded from outside.

The tracer replaces each public function listed in LAYERS by a wrapper in
every loaded toricsym module that holds a reference to it, so calls made
inside the library (report.analyze calling is_fano, plan_for_polytope
calling build_plan, ...) are recorded too.  No library file is changed;
`uninstall` puts the original objects back.

A span is one call: (name, start_ns, end_ns, parent, job).  `parent` is the
index of the enclosing span in the same list, or None.  Spans stay in
memory until the caller writes them out.  A layer's self time is its span's
duration minus the durations of its direct children; calls are strictly
nested, so the self times inside a job sum to the job span exactly.

Clocks are CLOCK_MONOTONIC (time.monotonic_ns), which is shared by every
process on the machine, so spans recorded in a child interpreter nest
inside the job span its parent recorded.
"""

import importlib
import sys
import time
from math import comb

# (metric prefix, module, function).  The order follows report.analyze.
LAYERS = (
    ("cli.command", "toricsym.cli", "cmd_analyze"),
    ("fileio.parse_fan_file", "toricsym.fileio", "parse_fan_file"),
    ("fan.face_fan", "toricsym.fan", "face_fan_from_polytope"),
    ("fan.validate_fan", "toricsym.fan", "validate_fan"),
    ("report.analyze", "toricsym.report", "analyze"),
    ("fan.is_complete", "toricsym.fan", "is_complete"),
    ("fan.is_fano", "toricsym.fan", "is_fano"),
    ("polytope.polytope_from_vertices", "toricsym.polytope", "polytope_from_vertices"),
    ("polytope.polytope_from_fan", "toricsym.fan", "polytope_from_fan"),
    ("polytope.volume_and_barycenter", "toricsym.polytope", "volume_and_barycenter"),
    ("latticecount.build_plan", "toricsym.latticecount", "build_plan"),
    ("latticecount.scan", "toricsym.latticecount", "plan_count_and_sum"),
    ("latticecount.quantized_barycenter", "toricsym.latticecount", "quantized_barycenter"),
    ("latticecount.ehrhart", "toricsym.latticecount", "ehrhart_polynomial"),
    ("latticecount.rational_function", "toricsym.latticecount",
     "barycenter_rational_function"),
    ("symmetry.roots", "toricsym.symmetry", "roots"),
    ("symmetry.classify", "toricsym.symmetry", "classify_symmetry"),
    ("symmetry.fan_automorphisms", "toricsym.symmetry", "fan_automorphisms"),
    ("symmetry.polytope_automorphisms", "toricsym.symmetry", "polytope_automorphisms"),
    ("symmetry.aut0", "toricsym.symmetry", "aut0_subgroup"),
    ("stability.delta", "toricsym.stability", "delta_invariant"),
    ("stability.delta_k", "toricsym.stability", "delta_k"),
    ("stability.alpha", "toricsym.stability", "alpha_invariant"),
    ("demazure.report", "toricsym.demazure", "demazure_report"),
    ("chain.verify", "toricsym.chain", "verify_implication_chain"),
    ("report.to_json", "toricsym.report", "to_json"),
)

# The six lru_cache functions whose hit and miss counts are read per pass.
CACHED = (
    ("plan_for_polytope", "toricsym.latticecount"),
    ("polytope_from_fan", "toricsym.fan"),
    ("volume_and_barycenter", "toricsym.polytope"),
    ("polytope_automorphisms", "toricsym.symmetry"),
    ("fan_automorphisms", "toricsym.symmetry"),
    ("roots", "toricsym.symmetry"),
)


def _polytope_size(p):
    return {"polytope.facets": len(p.inequalities), "polytope.vertices": len(p.vertices)}


# Counters read off a call's arguments and result.  A cached function's
# counter is taken only on a miss, so it counts work done, not lookups.
COUNTERS = {
    "fan.validate_fan": lambda args, res: {
        "fan.validate_fan.cone_pairs": comb(len(args[0].max_cones), 2)
    },
    "polytope.polytope_from_vertices": lambda args, res: _polytope_size(res),
    "polytope.polytope_from_fan": lambda args, res: _polytope_size(res),
    "latticecount.build_plan": lambda args, res: {
        "latticecount.plan_rows": sum(len(level) for level in res.levels)
        + len(res.constants)
    },
    "latticecount.scan": lambda args, res: {"latticecount.scan_points": res[0]},
    "symmetry.fan_automorphisms": lambda args, res: {"symmetry.group_order": res.order},
    "symmetry.polytope_automorphisms": lambda args, res: {"symmetry.group_order": res.order},
    "symmetry.roots": lambda args, res: {"symmetry.root_count": len(res.roots)},
    "chain.verify": lambda args, res: {"chain.bc_k_computed": len(res.quantized)},
}

COUNT_NAMES = (
    "fan.validate_fan.cone_pairs",
    "polytope.facets",
    "polytope.vertices",
    "latticecount.plan_rows",
    "latticecount.scan_points",
    "symmetry.group_order",
    "symmetry.root_count",
    "chain.bc_k_computed",
)


def cached_functions():
    """{name: the original lru_cache object} for the six cached functions."""
    out = {}
    for name, module in CACHED:
        fn = getattr(importlib.import_module(module), name)
        out[name] = getattr(fn, "bench_original", fn)
    return out


def cache_counts():
    return {
        name: {"hits": fn.cache_info().hits, "misses": fn.cache_info().misses}
        for name, fn in cached_functions().items()
    }


def clear_caches():
    for fn in cached_functions().values():
        fn.cache_clear()


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.caches = {}
        self.job = None
        self._stack = []
        self._patched = []

    # -- spans -----------------------------------------------------------

    def open(self, name, start_ns=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            [name, time.monotonic_ns() if start_ns is None else start_ns, None, parent, self.job]
        )
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index, end_ns=None):
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][2] = time.monotonic_ns() if end_ns is None else end_ns

    def add_count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def adopt(self, spans, counts):
        """Append spans recorded in a child process under the open span."""
        parent = self._stack[-1] if self._stack else None
        offset = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append(
                [name, start, end, parent if p is None else p + offset, self.job]
            )
        for name, value in counts.items():
            self.add_count(name, value)

    def add_caches(self, caches):
        """Add {function: {"hits": h, "misses": m}} to the cache counts."""
        for name, info in caches.items():
            mine = self.caches.setdefault(name, {"hits": 0, "misses": 0})
            mine["hits"] += info["hits"]
            mine["misses"] += info["misses"]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            misses = info().misses if info else 0
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter and (not info or info().misses > misses):
                for key, value in counter(args, result).items():
                    self.add_count(key, value)
            return result

        traced.bench_original = fn
        return traced

    def install(self):
        """Wrap every LAYERS function wherever a toricsym module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, module, attr in LAYERS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "toricsym" or mod_name.startswith("toricsym.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []


def self_times(spans):
    """Per-span self time in ns: duration minus the direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_seconds(spans, names):
    """{name: summed self time in seconds} over the given span names."""
    totals = dict.fromkeys(names, 0)
    for span, own in zip(spans, self_times(spans)):
        if span[0] in totals:
            totals[span[0]] += own
    return {name: ns / 1e9 for name, ns in totals.items()}
