"""Cold end-to-end sweep benchmark: CellSpec list -> pooled, checkpointed results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mesh_cold_numpy --seed 1 \\
        --seconds 36 --trace 0

Every measured sweep runs in a fresh interpreter (``perfbench/child.py``)
that imports the package from ``src/`` and hands the workload's cells to
``repro.experiments.sweeps.run_sweep(specs, out_dir, processes=2)``.
A fresh process matters: the per-process network memo of
``repro.sim.sharedcells`` is keyed by cell, not by seed, so a second
sweep in one process would reuse warm routes and measure a warm number.

``--trace 0`` repeats the untraced sweep until ``--seconds`` is used up
and reports medians of the end-to-end metrics. ``--trace 1`` runs the
sweep four times — untraced, serially with spans, serially with exact
counters, and with workers and parent-side spans — and reports the
per-layer metrics. Either way the last line of standard
output is one JSON object; the lines before it are a readable table.
``perfbench/METRICS.md`` says what each metric means and which workload
it is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORK = Path(".perfbench")

#: Import-only interpreter starts per untraced run, on top of one per sweep.
SETUP_PROBES = 5
#: Longest a child may run before its whole process group is killed.
CHILD_TIMEOUT_S = 150.0
#: A run stops starting sweeps that would end past this many seconds.
RUN_LIMIT_S = 170.0

LEAK_MARKER = "leaked shared_memory"


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class ChildFailed(RuntimeError):
    """A child interpreter exited badly or printed no result."""


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cells = self.dir / "cells.json"
        self.cells.write_text(json.dumps(workloads.cells(workload, seed)))
        self.deadline = deadline
        self.leak_warnings = 0
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = "src"

    def child(self, mode: str) -> dict:
        """Run one fresh interpreter; returns its result plus ``setup_s``."""
        out = self.dir / "sweep"
        shutil.rmtree(out, ignore_errors=True)
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(self.cells), str(out)],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{mode} sweep did not finish in {timeout:.0f} s")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.leak_warnings += stderr.count(LEAK_MARKER)
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(
                f"{mode} child exited with {proc.returncode}:\n{stderr[-2000:]}"
            )
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready"] - spawned
        print(f"perfbench: {mode:6s} setup {result['setup_s']:.3f} s"
              + (f"  wall {result['wall_s']:.3f} s" if "wall_s" in result else ""),
              file=sys.stderr)
        if "raised" in result:
            print(f"{mode} sweep raised:\n{result['raised']}", file=sys.stderr)
        for problem in result.get("problems", ()):
            print(f"{mode} check failed: {problem}", file=sys.stderr)
        return result


def _measure(bench: Bench, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced sweeps until ``seconds`` is used up; medians of each metric."""
    start = time.monotonic()
    setup = [bench.child("probe")["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        began = time.monotonic()
        reps.append(bench.child("plain"))
        durations.append(time.monotonic() - began)
        setup.append(reps[-1]["setup_s"])
        projected = time.monotonic() + statistics.median(durations)
        if projected - start > seconds or projected > bench.deadline:
            break
    done = [r for r in reps if "raised" not in r]
    if not done:
        raise ChildFailed("every sweep raised")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median([r["wall_s"] for r in done]),
        "packets_per_s": statistics.median([r["packets"] / r["wall_s"] for r in done]),
        "first_result_s": statistics.median([r["first_result_s"] for r in done]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in done]),
    }
    return metrics, reps


def _trace(bench: Bench) -> tuple[dict, list[dict]]:
    """One untraced sweep, two traced serial ones, one traced with workers."""
    plain = bench.child("plain")
    spans = bench.child("spans")
    counts = bench.child("counts")
    fanout = bench.child("fanout")
    runs = [plain, spans, counts, fanout]
    if any("raised" in r for r in runs):
        raise ChildFailed("a traced sweep raised")
    metrics = {**spans["layers"], **counts["layers"], **fanout["layers"]}
    busy_s = metrics.pop("busy_s")
    metrics.update({
        "util.workerpool.parallel_efficiency":
            busy_s / (workloads.WORKERS * fanout["wall_s"]),
        "experiments.sweeps.bytes_written": fanout["bytes_written"],
        "sim.sharedcells.leak_warnings": bench.leak_warnings,
        "trace.overhead_ratio": fanout["wall_s"] / plain["wall_s"],
    })
    return metrics, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2

    units = _units("per_layer" if args.trace else "end_to_end")
    bench = Bench(args.workload, args.seed,
                  deadline=time.monotonic() + RUN_LIMIT_S)
    try:
        if args.trace:
            metrics, runs = _trace(bench)
        else:
            metrics, runs = _measure(bench, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = {r["digest"] for r in runs if "digest" in r}
    consistent = len(digests) == 1
    if not consistent:
        print(f"perfbench: result digests differ for one seed: {sorted(digests)}",
              file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  sweeps {len(runs)}  "
          f"digest {sorted(digests)[0][:16] if digests else '-'}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} replications)")
    if not args.trace:
        print(f"  {'sim.sharedcells.leak_warnings':40s} "
              f"{bench.leak_warnings:>16d} count")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
