"""End-to-end benchmark of `nilflag verify` through its command line.

Usage, from the root of a repository checkout:

    python3 perfbench/run.py --workload poly-cold --seed 1 --seconds 25 --trace 0

Every op is one `python -m nilflag.cli verify ...` child (PYTHONPATH=src),
so the program's in-process memo tables start cold each time, as they do
for a user.  One child runs at a time (closed loop, one client).  Ops run
in rounds, one round being each of the workload's grid points once in an
order drawn from --seed, until --seconds have passed.  Every answer goes
through a correctness gate.  --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced rounds with rounds run under
perfbench/tracer.py and prints the per-layer metrics.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md gives the rationale for each workload and metric.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import random
import select
import shutil
import signal
import statistics
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from layers import LAYERS, PER_LAYER, PRINTED_ONLY, layer_totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
DEADLINE_S = 170.0  # a run ends inside the 180 s it is allowed
# setup_s is the median of at least SETUP_REPEATS set-ups, repeated until
# SETUP_MIN_S have been spent, so a set-up of 0.1 s gets enough samples
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
STARTUP_REPEATS = 5  # cli.startup_s is the median of this many starts
STARTUP_ARGV = ("partitions", "--n", "1", "--d", "1")

CHECKS = (
    "schur_weyl", "semismall", "stalk_bootstrap", "stalk_hypothesis",
    "top_components", "trace_identity", "young_rule",
)
POLYNOMIAL_ONLY = frozenset(
    ("semismall", "stalk_bootstrap", "stalk_hypothesis", "top_components"))

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def count_partitions(d: int, largest: int) -> int:
    """Partitions of d with parts at most `largest`, counted without nilflag."""
    if d == 0:
        return 1
    return sum(count_partitions(d - part, part) for part in range(1, min(d, largest) + 1))


@dataclass(frozen=True)
class Op:
    """One `nilflag verify` invocation."""

    n: int
    d: int
    mode: str = "polynomial"
    primes: tuple[int, ...] = ()
    convention: str = "standard"

    def argv(self) -> list[str]:
        args = ["verify", "--n", str(self.n), "--d", str(self.d), "--mode", self.mode]
        if self.primes:
            args += ["--primes", ",".join(map(str, self.primes))]
        if self.convention != "standard":
            args += ["--convention", self.convention]
        return args

    @property
    def label(self) -> str:
        label = f"{self.mode} ({self.n},{self.d})"
        return label if self.convention == "standard" else f"{label} {self.convention}"

    def expected_cases(self) -> int:
        """trace_identity cases: pairs (lambda, dv), times primes in numeric mode."""
        pairs = count_partitions(self.d, self.n) * math.comb(self.n + self.d - 1, self.d)
        return pairs * (len(self.primes) if self.mode == "numeric" else 1)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warm: bool = False  # set-up fills a count cache that the timed ops read


WORKLOADS = {w.name: w for w in (
    Workload("poly-cold", (Op(3, 5), Op(4, 5))),
    Workload("numeric-wide", (Op(6, 6, "numeric", (2, 3)),)),
    Workload("poly-warm", (Op(4, 5),), warm=True),
)}

# The literal-paper pairing falsifies the identity at (2,2); every set-up
# runs it and requires the gate to reject it.
GATE_PROBE = Op(2, 2, convention="literal-paper")


def gate(op: Op, code: int, stdout: bytes) -> str | None:
    """Why this verify answer is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(stdout)
        checks = {c["name"]: c for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return "report does not parse"
    if report.get("ok", True) is not True:
        return "report is not ok"
    for name in CHECKS:
        if name not in checks:
            return f"check {name} missing"
    for name, check in checks.items():
        skipped = op.mode == "numeric" and name in POLYNOMIAL_ONLY
        want = "skipped" if skipped else "pass"
        if check.get("status") != want:
            return f"check {name} is {check.get('status')}, expected {want}"
    cases = checks["trace_identity"].get("cases")
    if cases != op.expected_cases():
        return f"trace_identity has {cases} cases, expected {op.expected_cases()}"
    return None


def falsified(stdout: bytes) -> bool:
    """True when the report parses and its trace_identity check failed."""
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return False
    return any(c.get("name") == "trace_identity" and c.get("status") == "fail"
               for c in checks if isinstance(c, dict))


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def _exited_within(pid: int, timeout: float) -> bool:
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], max(timeout, 0.0))[0])
    finally:
        os.close(fd)


@dataclass
class Runner:
    """Starts children one at a time and keeps the op tally."""

    work_dir: Path
    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def spawn(self, args, *, cache: Path | None = None) -> Child:
        env = {k: v for k, v in os.environ.items() if k != "NILFLAG_CACHE"}
        env["PYTHONPATH"] = str(SRC)
        if cache is not None:
            env["NILFLAG_CACHE"] = str(cache)
        out, err = self.work_dir / "stdout", self.work_dir / "stderr"
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), write, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], env, file_actions=actions)
        if not _exited_within(pid, self.deadline - perf_counter()):
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
        return Child(
            os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
            out.read_bytes(), err.read_bytes())

    def verify(self, op: Op, *, cache: Path | None = None, spans: Path | None = None,
               reference: bytes | None = None) -> Child:
        """Run one verify op and count it, failed unless the gate passes it."""
        if spans is None:
            args = ["-m", "nilflag.cli", *op.argv()]
        else:
            args = [str(TRACER), str(spans), *op.argv()]
        child = self.spawn(args, cache=cache)
        reason = gate(op, child.code, child.stdout)
        if reason is None and reference is not None and child.stdout != reference:
            reason = "warm report differs from the cold report"
        last_error = child.stderr.decode(errors="replace").strip().splitlines()[-1:]
        if reason is not None and last_error:
            reason += ": " + last_error[0]
        self.record(op, reason)
        return child

    def record(self, op: Op, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.label}: {reason}")

    def probe_gate(self) -> None:
        """The literal-paper op must be rejected by the gate for its verdict."""
        child = self.spawn(["-m", "nilflag.cli", *GATE_PROBE.argv()])
        caught = gate(GATE_PROBE, child.code, child.stdout) is not None
        self.record(GATE_PROBE, None if caught and falsified(child.stdout)
                    else "gate did not reject the falsified literal-paper identity")


def _median(values):
    return statistics.median(values) if values else 0.0


def _spans(runner: Runner) -> Path:
    return runner.work_dir / "spans.marshal"


def _read_layers(path: Path) -> tuple[dict[str, float], list[str]]:
    """Layer totals and absent names from a traced child; empty if it wrote none."""
    try:
        with open(path, "rb") as fh:
            payload = marshal.load(fh)
        return layer_totals(payload), payload["absent"]
    except (OSError, ValueError, EOFError, TypeError, KeyError):
        return {}, []
    finally:
        path.unlink(missing_ok=True)


@contextmanager
def scratch_runner():
    """A Runner with a fresh scratch directory, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield Runner(work_dir, perf_counter() + DEADLINE_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()


def run_benchmark(workload: Workload, seed: int, seconds: float, traced: bool,
                  log=print) -> dict:
    """Set up, measure for `seconds`, check every answer, return the result."""
    with scratch_runner() as runner:
        metrics, notes = _run(workload, seed, seconds, traced, runner)
    failed = len(runner.failures)
    for line in runner.failures:
        log(f"FAILED {line}")
    for line in notes:
        log(line)
    log(f"failed_frac {failed / runner.attempted!r} ({failed} of {runner.attempted} ops)")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run(workload, seed, seconds, traced, runner):
    """Set up, measure; return the metrics and the lines that explain them."""
    cache = runner.work_dir / "counts.jsonl" if workload.warm else None
    references: dict[Op, bytes] = {}
    layers: dict[str, float] = {}
    absent: set[str] = set()

    def traced_verify(op, **kwargs):
        child = runner.verify(op, spans=_spans(runner), **kwargs)
        found, missing = _read_layers(_spans(runner))
        absent.update(missing)
        return child, found

    rng = random.Random(seed)
    setup_times = []
    set_ups = 1 if traced else SETUP_REPEATS
    while len(setup_times) < set_ups or not traced and sum(setup_times) < SETUP_MIN_S:
        start = perf_counter()
        runner.probe_gate()
        if cache is not None:
            cache.unlink(missing_ok=True)
            for op in workload.ops:
                if traced:
                    # the timed warm ops never write, so the write path is
                    # measured on this fill
                    child, found = traced_verify(op, cache=cache)
                    for key in ("flaggeo.cache.puts", "flaggeo.cache.put_s"):
                        layers[key] = layers.get(key, 0.0) + found.get(key, 0.0)
                else:
                    child = runner.verify(op, cache=cache)
                references[op] = child.stdout
        setup_times.append(perf_counter() - start)

    startup = [runner.spawn(["-m", "nilflag.cli", *STARTUP_ARGV]).wall_s
               for _ in range(STARTUP_REPEATS if traced else 0)]

    plain: dict[Op, list[Child]] = {op: [] for op in workload.ops}
    traced_walls: dict[Op, list[float]] = {op: [] for op in workload.ops}
    traced_layers: dict[Op, list[dict]] = {op: [] for op in workload.ops}
    orders = []
    measure_start = perf_counter()
    elapsed = 0.0

    def enough() -> bool:
        # every op measured at least once (traced too, when tracing)
        return (elapsed >= seconds and all(plain.values())
                and (not traced or all(traced_walls.values())))

    while not enough() and perf_counter() < runner.deadline:
        order = rng.sample(workload.ops, len(workload.ops))
        tracing = traced and len(orders) % 2 == 1
        orders.append(("traced " if tracing else "") + ", ".join(op.label for op in order))
        for op in order:
            kwargs = {"cache": cache, "reference": references.get(op)}
            if tracing:
                child, found = traced_verify(op, **kwargs)
                traced_walls[op].append(child.wall_s)
                traced_layers[op].append(found)
            else:
                plain[op].append(runner.verify(op, **kwargs))
            elapsed = perf_counter() - measure_start
            if enough():
                break

    notes = [f"workload {workload.name} seed {seed} seconds {seconds} trace {int(traced)}"
             f" rounds {len(orders)} measured {elapsed!r} s"]
    notes += [f"round {i}: {text}" for i, text in enumerate(orders[:4])]
    for op in workload.ops:
        walls = [c.wall_s for c in plain[op]]
        notes.append(
            f"op {op.label}: {len(walls)} untraced, wall median {_median(walls)!r} s"
            f" min {min(walls, default=0)!r} max {max(walls, default=0)!r}")
    untraced_wall = sum(_median([c.wall_s for c in plain[op]]) for op in workload.ops)
    if not traced:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": untraced_wall,
            "cpu_s": sum(_median([c.cpu_s for c in plain[op]]) for op in workload.ops),
            "peak_rss_mb": max((c.rss_mb for cs in plain.values() for c in cs), default=0.0),
        }
        notes.append(f"setup_s samples {setup_times!r}")
        return {k: {"value": metrics[k], "unit": unit} for k, unit in END_TO_END}, notes

    for op in workload.ops:
        for key in {k for sample in traced_layers[op] for k in sample}:
            value = _median([sample.get(key, 0.0) for sample in traced_layers[op]])
            layers[key] = layers.get(key, 0.0) + value
    hits = layers.get("flaggeo.cache.hits", 0.0)
    lookups = hits + layers.get("flaggeo.cache.misses", 0.0)
    layers["flaggeo.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    layers["cli.startup_s"] = _median(startup)
    traced_wall = sum(_median(traced_walls[op]) for op in workload.ops)
    layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1 if untraced_wall else 0.0
    layers["trace.absent"] = float(len(absent))
    notes += [f"layer {k} {layers.get(k, 0.0)!r} {unit}" for k, unit in LAYERS if k in PRINTED_ONLY]
    notes.append(f"absent names: {', '.join(sorted(absent)) or 'none'}")
    notes.append(f"cli start-up samples {startup!r}")
    return {k: {"value": layers.get(k, 0.0), "unit": unit} for k, unit in PER_LAYER}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nilflag").is_dir():
        print(f"error: no nilflag package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
