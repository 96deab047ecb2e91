"""Per-layer figures: their names and units, and their totals from one trace.

perfbench/README.md says which end-to-end metric each of these should
move, and on which workload.
"""

from __future__ import annotations

from collections import Counter, defaultdict

_CALLS_AND_TIME = (
    "verifier.trace_identity_rhs", "qpoly.interpolate", "qpoly.modified_kostka_foulkes",
    "combinatorics.kostka_number", "combinatorics.enumerate_partitions",
    "combinatorics.enumerate_ssyt",
)
_STAGES = (
    "trace_identity", "semismall", "top_components", "bootstrap_stalks",
    "stalk_hypothesis", "schur_weyl", "young_rule",
)

LAYERS = (
    ("verifier.run_suite.s", "s"),
    ("flaggeo.fiber_count.calls", "count"),
    ("flaggeo.fiber_count.s", "s"),
    ("flaggeo.fiber_count.self_s", "s"),
    ("flaggeo.subspaces", "count"),
    ("flaggeo.fiber_polynomial.calls", "count"),
    ("flaggeo.fiber_polynomial.s", "s"),
    ("flaggeo.fiber_polynomial.self_s", "s"),
    ("flaggeo.cache.load_s", "s"),
    ("flaggeo.cache.hits", "count"),
    ("flaggeo.cache.misses", "count"),
    ("flaggeo.cache.hit_ratio", "ratio"),
    ("flaggeo.cache.puts", "count"),
    ("flaggeo.cache.put_s", "s"),
    *((f"{name}.{stat}", unit) for name in _CALLS_AND_TIME
      for stat, unit in (("calls", "count"), ("s", "s"))),
    *((f"verifier.{stage}.s", "s") for stage in _STAGES),
    ("cli.startup_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.absent", "count"),
)

# Times of layers that some workload never calls: numeric mode has no
# interpolation, cache or polynomial-only checks, and only poly-warm has a
# cache.  Such a time reads exactly 0 on every run of that workload, so it
# is printed on the lines before the result instead of being a metric.
PRINTED_ONLY = frozenset((
    "flaggeo.fiber_polynomial.s", "flaggeo.fiber_polynomial.self_s",
    "flaggeo.cache.load_s", "flaggeo.cache.put_s", "qpoly.interpolate.s",
    "verifier.semismall.s", "verifier.top_components.s",
    "verifier.bootstrap_stalks.s", "verifier.stalk_hypothesis.s",
))
PER_LAYER = tuple(m for m in LAYERS if m[0] not in PRINTED_ONLY)

# span names whose totals are reported under another name
_RENAMED = {
    "flaggeo.cache.load.s": "flaggeo.cache.load_s",
    "flaggeo.cache.put.calls": "flaggeo.cache.puts",
    "flaggeo.cache.put.s": "flaggeo.cache.put_s",
}


def layer_totals(payload: dict) -> dict[str, float]:
    """Calls, time and self time per span name, plus the tracer's counters.

    A span's time counts once even if a span of the same name encloses it.
    Self time is a span's duration minus the durations of its direct
    children, which run one after another inside it.
    """
    names = payload["names"]
    spans = payload["spans"]
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    for name_id, start, end, parent in spans:
        duration = end - start
        calls[name_id] += 1
        own[name_id] += duration
        if parent >= 0:
            own[spans[parent][0]] -= duration
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name_id:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name_id] += duration
    out: dict[str, float] = {}
    for name_id, count in calls.items():
        for stat, value in (("calls", count), ("s", total[name_id]), ("self_s", own[name_id])):
            key = f"{names[name_id]}.{stat}"
            out[_RENAMED.get(key, key)] = float(value)
    for key, value in payload["counts"].items():
        out[key] = float(value)
    out["flaggeo.subspaces"] = float(payload["subspaces"])
    return out
