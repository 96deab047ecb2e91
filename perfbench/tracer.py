"""Run one `nilflag` CLI command with spans around its layer boundaries.

Usage: python3 perfbench/tracer.py SPANS_FILE <nilflag arguments...>

The program's source is not touched.  Before the command runs, every
public function in TARGETS is replaced, in each nilflag module that binds
it, by a wrapper that records a span (name, start, end, parent) and
returns the wrapped function's result unchanged.  Spans stay in memory.
When the command returns they are written to SPANS_FILE together with
the cache hit/miss counts, the change of flaggeo.STATS["subspaces"] and
the names this version of nilflag no longer has.  The file is in
`marshal` format, which writes 100,000 spans in about 0.02 s where JSON
takes 0.6 s, time that would count as tracing overhead.  A missing name is
recorded as absent, not as an error, so the benchmark keeps working when
a layer is deleted.  The command's stdout and exit code are unchanged.
"""

from __future__ import annotations

import functools
import importlib
import marshal
import sys
from time import perf_counter

# (module, attribute path, span name); span name None counts cache
# lookups by outcome instead of timing them
TARGETS = (
    ("verifier", "run_suite", "verifier.run_suite"),
    ("verifier", "verify_trace_identity", "verifier.trace_identity"),
    ("verifier", "verify_semismall", "verifier.semismall"),
    ("verifier", "verify_top_components", "verifier.top_components"),
    ("verifier", "bootstrap_stalks", "verifier.bootstrap_stalks"),
    ("verifier", "verify_stalk_hypothesis", "verifier.stalk_hypothesis"),
    ("verifier", "verify_schur_weyl", "verifier.schur_weyl"),
    ("verifier", "verify_young_rule", "verifier.young_rule"),
    ("verifier", "trace_identity_rhs", "verifier.trace_identity_rhs"),
    ("flaggeo", "fiber_polynomial", "flaggeo.fiber_polynomial"),
    ("flaggeo", "fiber_count", "flaggeo.fiber_count"),
    ("flaggeo", "CountCache.__init__", "flaggeo.cache.load"),
    ("flaggeo", "CountCache.put", "flaggeo.cache.put"),
    ("flaggeo", "CountCache.get", None),
    ("qpoly", "interpolate", "qpoly.interpolate"),
    ("qpoly", "modified_kostka_foulkes", "qpoly.modified_kostka_foulkes"),
    ("combinatorics", "kostka_number", "combinatorics.kostka_number"),
    ("combinatorics", "enumerate_partitions", "combinatorics.enumerate_partitions"),
    ("combinatorics", "enumerate_ssyt", "combinatorics.enumerate_ssyt"),
)

NAMES: list[str] = []  # span name table; spans refer to names by index
SPANS: list = []  # [name index, start, end, parent span index or -1]
COUNTS = {"flaggeo.cache.hits": 0, "flaggeo.cache.misses": 0}
_open = [-1]  # stack of open span indices


def _spanned(name: str, fn):
    name_id = len(NAMES)
    NAMES.append(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(SPANS)
        span = [name_id, 0.0, 0.0, _open[-1]]
        SPANS.append(span)
        _open.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            _open.pop()

    return wrapper


def _counted_get(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        COUNTS["flaggeo.cache.hits" if value is not None else "flaggeo.cache.misses"] += 1
        return value

    return wrapper


def _resolve(module, path: str):
    """(owner, attribute, value) for a dotted path, or None if absent."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None or (outer and attr not in vars(owner)):
        return None
    return owner, attr, value


def install(package) -> list[str]:
    """Patch every target in every nilflag module that binds it.

    Returns the dotted names that this version of the package lacks.
    """
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == package.__name__ or k.startswith(package.__name__ + "."))]
    absent = []
    for mod_name, path, span_name in TARGETS:
        try:
            module = importlib.import_module(f"{package.__name__}.{mod_name}")
        except ImportError:
            absent.append(f"{mod_name}.{path}")
            continue
        found = _resolve(module, path)
        if found is None:
            absent.append(f"{mod_name}.{path}")
            continue
        owner, attr, original = found
        wrapper = _spanned(span_name, original) if span_name else _counted_get(original)
        if owner is not module:
            # a method: the class object is shared by every module that imports it
            setattr(owner, attr, wrapper)
            continue
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)
    return absent


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    import nilflag
    from nilflag import cli

    absent = install(nilflag)
    flaggeo = sys.modules.get("nilflag.flaggeo")
    stats = getattr(flaggeo, "STATS", None)
    if not isinstance(stats, dict) or "subspaces" not in stats:
        stats = None
        absent.append("flaggeo.STATS")
    before = stats["subspaces"] if stats is not None else 0
    try:
        code = cli.run(command)
    finally:
        payload = {
            "names": NAMES,
            "spans": SPANS,
            "counts": COUNTS,
            "subspaces": stats["subspaces"] - before if stats is not None else 0,
            "absent": absent,
        }
        with open(spans_path, "wb") as fh:
            marshal.dump(payload, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
