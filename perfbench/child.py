"""One measured sweep in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/child.py MODE CELLS_JSON OUT_DIR`` with
``PYTHONPATH=src``. ``MODE`` is one of

* ``probe`` — import the package and exit (a set-up time sample);
* ``plain`` — untraced sweep with 2 pool workers;
* ``spans`` — serial sweep (``processes=1``) with calibration, routing,
  kernel and engine spans;
* ``counts`` — serial sweep with exact path, event-queue and RNG draw
  counts (the draws through ``repro.analysis.rngsan.trace()``);
* ``fanout`` — traced sweep with 2 pool workers: parent-side spans only.

See ``tracing.py`` for what each traced mode wraps.

The last line of standard output is one JSON object. Its ``ready`` field
is the ``time.monotonic()`` reading (the system-wide monotonic clock on
Linux) taken once the package and the sweep modules are imported; the
parent subtracts its own reading from just before the spawn to get the
set-up time.
"""

import time

import repro  # noqa: F401  (set-up ends once the sweep path is imported)
import repro.experiments.sweeps
import repro.scenarios  # noqa: F401

READY = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKERS  # noqa: E402


def _cell_spec(fields: dict):
    from repro.sim.replication import CellSpec

    fields = dict(fields)
    for key in ("params", "engine_params"):
        if key in fields:
            fields[key] = tuple(tuple(kv) for kv in fields[key])
    fields["seeds"] = tuple(fields["seeds"])
    return CellSpec(**fields)


def _bytes_under(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _span_metrics(tracer: tracing.Tracer) -> dict:
    metrics = {
        "routing.path.calls": tracer.calls("routing.path"),
        "routing.path.s": tracer.span_s("routing.path"),
    }
    for name in ("sim.kernels.python.run_fifo", "sim.kernels.numpy.run_fifo",
                 "sim.kernels.numpy.run_slotted", "sim.kernels.python.run_finite",
                 "sim.rushed.run", "sim.ps.run"):
        metrics[f"{name}.self_s"] = tracer.span_s(name, 2)
    return metrics


def _count_metrics(tracer: tracing.Tracer, draws: list) -> dict:
    lookups = tracer.counts["routing.pathcache.lookups"]
    builds = tracer.counts["routing.pathcache.ensure"]
    return {
        "routing.pathcache.ensure.calls": builds,
        "routing.pathcache.hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "sim.eventqueue.push.calls": tracer.counts["sim.eventqueue.push"],
        "sim.eventqueue.pop.calls": tracer.counts["sim.eventqueue.pop"],
        "sim.rng.draw_calls": len(draws),
        "sim.rng.values_drawn": sum(_values(size) for _, size, _ in draws),
    }


def _values(size) -> int:
    """Values produced by one draw with the given ``size`` argument."""
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, list) else int(size)


def _fanout_metrics(tracer: tracing.Tracer) -> dict:
    return {
        "scenarios.resolve_cell.s": tracer.span_s("scenarios.resolve_cell"),
        "scenarios.resolve_cell.calls": tracer.calls("scenarios.resolve_cell"),
        "core.rates.edge_rates_from_routing.s":
            tracer.span_s("core.rates.edge_rates_from_routing"),
        "scenarios.build_network.calls": tracer.calls("scenarios.build_network"),
        "routing.pathcache.precompute.s":
            tracer.span_s("routing.pathcache.precompute"),
        "sim.sharedcells.publish.s": tracer.span_s("sim.sharedcells.publish"),
        "sim.sharedcells.published_bytes":
            tracer.counts.get("sim.sharedcells.published_bytes", 0),
        "sim.replication.dispatch_wait_s":
            tracer.span_s("sim.replication.dispatch_wait"),
        "busy_s": tracer.counts.get("util.workerpool.busy_s", 0.0),
        "experiments.sweeps.checkpoint_s":
            tracer.span_s("experiments.sweeps.run_sweep", 2)
            + tracer.span_s("experiments.sweeps.checkpoint"),
    }


def main(mode: str, cells_path: str, out_dir: str) -> dict:
    if mode == "probe":
        return {"ready": READY}
    from repro.util.workerpool import shutdown_pools

    specs = [_cell_spec(c) for c in json.loads(Path(cells_path).read_text())]
    out = Path(out_dir)
    processes = 1 if mode in ("spans", "counts") else WORKERS
    tracer = tracing.Tracer()
    first: list[float] = []
    result: dict = {"ready": READY}
    with ExitStack() as stack:
        # Unwound in reverse: stop the draw recording, restore the
        # wrapped functions, then stop the pool (so RUSAGE_CHILDREN
        # below covers the workers).
        stack.callback(shutdown_pools)
        stack.callback(tracer.uninstall)
        if mode == "spans":
            tracer.install_spans()
        elif mode == "counts":
            from repro.analysis import rngsan

            tracer.install_counters()
            draws = stack.enter_context(rngsan.trace(label="perfbench")).draws
        elif mode == "fanout":
            tracer.install_fanout()
        start = time.monotonic()
        try:
            run = repro.experiments.sweeps.run_sweep(
                specs,
                out,
                processes=processes,
                on_cell_complete=lambda _cid: first.append(time.monotonic()),
            )
        except Exception:  # the sweep raised: every replication failed
            result["raised"] = traceback.format_exc()
            result["attempted"] = result["failed"] = sum(
                len(s.seeds) for s in specs
            )
            return result
        end = time.monotonic()

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted, failed, problems = checks.check_rows(run.rows)
    result.update(
        wall_s=end - start,
        first_result_s=first[0] - start,
        packets=sum(row["pooled"]["generated"] for row in run.rows),
        peak_rss_mb=usage / 1024.0,  # ru_maxrss is in KiB on Linux
        attempted=attempted,
        failed=failed,
        problems=problems[:5],
        digest=checks.digest(run.rows),
        bytes_written=_bytes_under(out),
    )
    if mode == "spans":
        result["layers"] = _span_metrics(tracer)
    elif mode == "counts":
        result["layers"] = _count_metrics(tracer, draws)
    elif mode == "fanout":
        result["layers"] = _fanout_metrics(tracer)
    if mode != "plain":
        tracer.dump(out.parent / f"spans-{mode}.json")
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:4])))
