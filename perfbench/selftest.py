"""Self-test of the benchmark, run from the root of a repository checkout:

    python3 perfbench/selftest.py

1. The gate must count `verify --n 2 --d 2 --convention literal-paper`,
   whose identity is falsified, as failed, and a passing op as passed.
2. A tiny (2,3) pass of every workload, traced and untraced, must be
   correct and print every metric BENCHMARK.json names, with its unit,
   and, traced, every layer time printed before the result.

Exits 0 when every test holds and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
from layers import LAYERS, PRINTED_ONLY

TINY = {
    "poly-cold": (run.Op(2, 3),),
    "numeric-wide": (run.Op(2, 3, "numeric", (2, 3)),),
    "poly-warm": (run.Op(2, 3),),
}


def main() -> int:
    errors = []
    with run.scratch_runner() as runner:
        runner.verify(run.GATE_PROBE)
        runner.verify(run.Op(2, 2))
    rejected = [line.split(":")[0] for line in runner.failures]
    if rejected != [run.GATE_PROBE.label] or runner.attempted != 2:
        errors.append(f"gate self-test: expected only the literal-paper op to fail, "
                      f"got {runner.failures}")

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in spec["workloads"]:
        name = workload["name"]
        tiny = replace(run.WORKLOADS[name], ops=TINY[name])
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            lines: list[str] = []
            result = run.run_benchmark(tiny, seed=1, seconds=0.5, traced=traced,
                                       log=lines.append)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if traced:
                # the layer times printed before the result, as "layer NAME VALUE UNIT"
                want.update((k, u) for k, u in LAYERS if k in PRINTED_ONLY)
                got.update((line.split()[1], line.split()[3])
                           for line in lines if line.startswith("layer "))
            label = f"{name} (2,3) trace {int(traced)}"
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            if got != want:
                errors.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            print(f"{label}: {result['attempted']} ops, {len(got)} metrics")
    for line in errors:
        print(f"FAILED {line}")
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
