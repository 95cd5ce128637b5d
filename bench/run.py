#!/usr/bin/env python3
"""Benchmark for detres: four workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload {chow,resultant,vanish,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; detres is imported from ``src``.
The run builds the workload's inputs from the seed, then repeats whole
rounds of its operations until ``--seconds`` have passed (and at least
``MIN_ROUNDS`` rounds ran), checking every output against independent
computations.  Every end-to-end time is measured against a fixed
reference computation timed just before it (see ``reference``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: end-to-end metrics, with no wrappers installed.
* ``--trace 1``: per-layer metrics.  The run times untraced rounds for a
  third of ``--seconds``, then two child processes with PYTHONHASHSEED 1
  and 2 each run rounds for another third with the wrappers of
  ``tracer.py`` installed afresh for every round; their counts must agree
  exactly, between rounds and between the children.  Metrics come from
  the first child's fastest round, and its slowdown against the fastest
  untraced round is reported as ``trace.overhead_pct``.

See README.md for the metrics, the workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import Tracer, unit_of

WORKLOADS = ("chow", "resultant", "vanish", "cli")
#: Set-up is timed in the run itself and in this many more fresh processes,
#: spread over the run.
SETUP_PROBES = 8
#: A run repeats at least this many rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 5
#: Each part of a traced run (untraced, and each traced child) runs at
#: least this many rounds.
TRACE_ROUNDS = 5
#: Interpreter start-up is sampled this many times in a traced run.
STARTUP_SAMPLES = 5
#: A traced run repeats its round under these hash seeds; counts must agree.
HASH_SEEDS = ("1", "2")
#: The reference computation is timed this many times after each set-up.
SETUP_REFERENCES = 7
#: Reported times are multiples of the reference computation's time,
#: scaled by this figure: about its fastest time on the development
#: machine, so that they read close to seconds on a quiet host.
REFERENCE_S = 0.002
WORK = wl.ROOT / ".bench_work"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def reference() -> float:
    """Time a fixed pure-Python computation, Fraction arithmetic like most
    of detres's own.

    The host's load slows the benchmark by up to 2x for seconds to minutes
    at a time.  The time of an operation's repeat divided by the time of
    this computation just before it slows far less, and its median over a
    run stays within a few percent whatever the load, so the end-to-end
    times are reported that way.
    """
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return perf_counter() - t0


def set_up(workload: str, seed: int) -> tuple[list, float, float]:
    """``build``, then the reference computation; returns (ops, set-up
    seconds, median reference seconds)."""
    ops, seconds = build(workload, seed)
    return ops, seconds, statistics.median(reference() for _ in range(SETUP_REFERENCES))


def build(workload: str, seed: int, inprocess: bool = False):
    """Import detres and build the workload's ops; returns (ops, seconds)."""
    t0 = perf_counter()
    if workload == "chow":
        ops = wl.build_chow(seed)
    elif workload == "resultant":
        ops = wl.build_resultant(seed)
    elif workload == "vanish":
        ops = wl.build_vanish(seed)
    else:
        ops = wl.build_cli(seed, WORK / str(os.getpid()), inprocess)
    elapsed = perf_counter() - t0
    import detres

    if Path(detres.__file__).resolve().parent != (wl.SRC / "detres").resolve():
        raise SystemExit(f"detres imported from {detres.__file__}, not from {wl.SRC}")
    return ops, elapsed


class Tally:
    """Attempted and failed operations, and each op's output digest."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: Counter = Counter()
        self.faults: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.verdicts: dict[tuple[str, str], bool] = {}
        self.stdout_bytes = 0

    def record(self, op: wl.Op, out, error: BaseException | None) -> None:
        self.attempted += 1
        ok = False
        if error is None:
            digest = op.digest(out)
            if self.digests.setdefault(op.name, digest) != digest:
                log(f"{op.name}: output differs from the first round")
                self.correct = False
            if isinstance(out, tuple):  # cli: (exit code, stdout bytes)
                self.stdout_bytes += len(out[1])
            key = (op.name, digest)  # an output seen before is not checked again
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = bool(op.check(out))
                except Exception:  # a malformed output fails its check
                    log(f"{op.name}: check raised\n{traceback.format_exc()}")
                    self.verdicts[key] = False
            ok = self.verdicts[key]
        if ok:
            return
        self.failed += 1
        self.failures[op.name] += 1
        if op.fault is None:
            log(f"{op.name}: wrong output" + (f" ({error!r})" if error else ""))
            self.correct = False
        else:
            self.faults[op.name] = op.fault


def run_round(ops, tally: Tally, references: list | None = None) -> list[float]:
    """Each op once, in order; returns the time of each.  With
    ``references``, the reference computation is timed before each op."""
    times = []
    for op in ops:
        if references is not None:
            references.append(reference())
        error = out = None
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation
            error = exc
        times.append(perf_counter() - t0)
        tally.record(op, out, error)
    return times


def op_times(ops, seconds: float, tally: Tally, between) -> tuple[list[float], list[float], int]:
    """Whole rounds until ``seconds`` have passed and ``MIN_ROUNDS`` ran.

    Returns for each op the median over its repeats of its time divided by
    the reference time just before it, and its median time in seconds, and
    the number of rounds.  ``between(elapsed)`` is called after every
    round, outside the timing.
    """
    times: list[list[float]] = [[] for _ in ops]
    ratios: list[list[float]] = [[] for _ in ops]
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        references: list[float] = []
        for k, t in enumerate(run_round(ops, tally, references)):
            times[k].append(t)
            ratios[k].append(t / references[k])
        rounds += 1
        between(perf_counter() - start)
    median = statistics.median
    return [median(r) for r in ratios], [median(t) for t in times], rounds


def spawn_self(args: list[str], env: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        env=env,
        cwd=wl.ROOT,
        timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def startup_times() -> tuple[float, float]:
    """Bare interpreter start-up, and the extra time to import detres.cli."""
    env = wl.cli_env()

    def sample(code: str) -> float:
        times = []
        for _ in range(STARTUP_SAMPLES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=wl.ROOT, check=True)
            times.append(perf_counter() - t0)
        return statistics.median(times)

    bare = sample("pass")
    return bare, sample("import detres.cli") - bare


def peak_rss_mib(workload: str) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def end_to_end(args) -> dict:
    ops, setup, setup_ref = set_up(args.workload, args.seed)
    setups = [(setup, setup_ref)]

    def probe_setup(elapsed: float) -> None:
        # set-up probes spread over the run
        if len(setups) <= min(SETUP_PROBES, elapsed * SETUP_PROBES / args.seconds):
            child = spawn_self(["--child", "setup", "--workload", args.workload, "--seed", str(args.seed)])
            setups.append((child["setup_s"], child["reference_s"]))

    tally = Tally()
    ratios, seconds, rounds = op_times(ops, args.seconds, tally, probe_setup)
    while len(setups) <= SETUP_PROBES:
        probe_setup(args.seconds)
    metrics = {
        "setup_s": (REFERENCE_S * statistics.median(s / r for s, r in setups), "s"),
        "round_s": (REFERENCE_S * sum(ratios), "s"),
        "op_median_s": (REFERENCE_S * statistics.median(ratios), "s"),
        "peak_rss_mib": (peak_rss_mib(args.workload), "MiB"),
    }
    log(f"{args.workload}: {rounds} rounds; set-up (s, reference s): {setups}")
    for op, ratio, t in zip(ops, ratios, seconds):
        log(f"  {op.name}: {t:.6f} s median, {REFERENCE_S * ratio:.6f} reference-scaled s")
    print(f"measured medians: round {sum(seconds)} s, set-up {statistics.median(s for s, _ in setups)} s")
    return report(args.workload, tally, metrics)


def traced_child(args) -> None:
    """Traced rounds, each with fresh wrappers; prints the fastest round's
    per-layer metrics, and the counts and digests, which every round must
    repeat."""
    ops, _ = build(args.workload, args.seed, inprocess=True)
    tally = Tally()
    fastest = counts = None
    rounds = 0
    start = perf_counter()
    while rounds < TRACE_ROUNDS or perf_counter() - start < args.seconds / 3:
        rounds += 1
        tracer = Tracer()
        tracer.install()
        try:
            wall = sum(run_round(ops, tally))
        finally:
            tracer.uninstall()
        if counts is not None and tracer.counts() != counts:
            log("per-layer counts differ between rounds")
            tally.correct = False
        counts = tracer.counts()
        if fastest is None or wall < fastest[0]:
            fastest = (wall, tracer.metrics())
    wall, metrics = fastest
    metrics["cli.stdout_bytes"] = tally.stdout_bytes // rounds
    print(json.dumps({
        "round_s": wall,
        "metrics": metrics,
        "counts": counts,
        "digests": tally.digests,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
    }))


def traced(args) -> dict:
    # untraced rounds in the same mode as the traced children (cli in-process)
    ops, _ = build(args.workload, args.seed, inprocess=True)
    tally = Tally()
    rounds, untraced = 0, float("inf")
    start = perf_counter()
    while rounds < TRACE_ROUNDS or perf_counter() - start < args.seconds / 3:
        untraced = min(untraced, sum(run_round(ops, tally)))
        rounds += 1
    children = []
    for hash_seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        children.append(spawn_self(
            ["--child", "traced", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            env,
        ))
    for child in children:
        tally.attempted += child["attempted"]
        tally.failed += child["failed"]
        tally.correct &= child["correct"]
        if child["digests"] != tally.digests:
            log("traced outputs differ from untraced outputs")
            tally.correct = False
    if children[0]["counts"] != children[1]["counts"]:
        log("per-layer counts differ between PYTHONHASHSEED values")
        tally.correct = False
    first = children[0]
    metrics = {name: (value, unit_of(name)) for name, value in first["metrics"].items()}
    metrics["trace.overhead_pct"] = (100 * (first["round_s"] / untraced - 1), "%")
    startup, import_s = startup_times()
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.import_s"] = (import_s, "s")
    return report(args.workload, tally, metrics)


def report(workload: str, tally: Tally, metrics: dict) -> dict:
    print(f"workload {workload}: attempted {tally.attempted}, failed {tally.failed}")
    for name, count in sorted(tally.failures.items()):
        print(f"  failed {name} x{count}: {tally.faults.get(name, 'wrong output')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (wl.SRC / "detres" / "__init__.py").is_file():
        log(f"no detres sources under {wl.SRC}; run from a detres checkout")
        return 2
    sys.path.insert(0, str(wl.SRC))
    try:
        if args.child == "setup":
            _, setup, ref = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup, "reference_s": ref}))
        elif args.child == "traced":
            traced_child(args)
        else:
            result = traced(args) if args.trace else end_to_end(args)
            print(json.dumps(result))
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        try:
            WORK.rmdir()  # only succeeds once every run's directory is gone
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
