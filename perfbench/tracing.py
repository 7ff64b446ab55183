"""Per-layer spans and counters, installed around the program's public calls.

Nothing here edits the program: :class:`Tracer` replaces public functions
and methods of each layer with timing or counting wrappers for the life
of one traced child interpreter, and the wrapped calls still run the
original code. The layer names are the module names.

A span records its start, its end and the span that was open when it
started. Coarse spans (one per cell, batch, replication or kernel call)
are kept as records and written out when the run ends; hot spans (one
per route built) are only summed, so the trace stays small. Either way
each name gets a call count, a total and a *self* time: the duration
minus the part covered by its direct child spans. Counters are plain
integers and read no clock.

Three installations exist, one per traced child, so that the cost of
one kind of instrument does not land in another's numbers:

* :meth:`Tracer.install_spans` — serial run (``processes=1``): every
  replication runs in the traced process, so calibration, routing,
  kernel and engine spans are all seen;
* :meth:`Tracer.install_counters` — serial run with exact counts only:
  path builds and lookups, event-queue operations (the RNG draw stream
  is recorded alongside by ``repro.analysis.rngsan.trace()``);
* :meth:`Tracer.install_fanout` — run with pool workers: spans around
  calls the parent makes (calibration, publishing, dispatch waits,
  checkpoints), so forked workers run unwrapped compute code.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Callable

_clock = time.monotonic


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: name -> integer count
        self.counts: dict[str, int] = {}
        #: coarse span records: [id, parent id, name, start, end]
        self.records: list[list] = []
        # Open spans: [id, seconds covered by finished direct children].
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans and counters --------------------------------------------
    def wrap(self, name: str, fn: Callable, *, record: bool = False) -> Callable:
        """``fn`` timed as a span called ``name``."""
        stack = self._stack
        ids = self._ids
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        records = self.records

        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                dt = end - start
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if record:
                    parent = stack[-1][0] if stack else None
                    records.append([frame[0], parent, name, start, end])

        return span

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        def call(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    def span_s(self, name: str, field: int = 1) -> float:
        """Total (``field=1``) or self (``field=2``) seconds of a span."""
        stat = self.stats.get(name)
        return 0.0 if stat is None else stat[field]

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return 0 if stat is None else stat[0]

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "stats": self.stats,
            "counts": self.counts,
            "spans": self.records,
        }))

    # -- patching --------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install_sweep(self) -> None:
        """Calibration, network builds and the sweep/replication layers."""
        from repro import scenarios
        from repro.experiments import sweeps
        from repro.sim.replication import ReplicationEngine

        wrap = self.wrap
        self.patch(sweeps, "run_sweep",
                   wrap("experiments.sweeps.run_sweep", sweeps.run_sweep,
                        record=True))
        self.patch(scenarios, "resolve_cell",
                   wrap("scenarios.resolve_cell", scenarios.resolve_cell,
                        record=True))
        self.patch(scenarios, "edge_rates_from_routing",
                   wrap("core.rates.edge_rates_from_routing",
                        scenarios.edge_rates_from_routing, record=True))

        # Every network build goes through get_scenario(name).build:
        # resolve_cell calls it directly, cell_network via build_network.
        get_scenario = scenarios.get_scenario

        def traced_get_scenario(name: str):
            scenario = get_scenario(name)
            return dataclasses.replace(
                scenario,
                build=wrap("scenarios.build_network", scenario.build,
                           record=True),
            )

        self.patch(scenarios, "get_scenario", traced_get_scenario)

        # The sweep's on_result callback is its per-cell checkpoint write.
        run_many = ReplicationEngine.run_many

        def traced_run_many(engine, specs, *, on_result=None):
            if on_result is not None:
                on_result = wrap("experiments.sweeps.checkpoint", on_result,
                                 record=True)
            return run_many(engine, specs, on_result=on_result)

        self.patch(ReplicationEngine, "run_many",
                   wrap("sim.replication.run_many", traced_run_many,
                        record=True))

    def install_spans(self) -> None:
        """Serial run: calibration, routing, kernel and engine spans."""
        from repro.routing.base import BaseRouter
        from repro.routing.pathcache import PathCache
        from repro.sim import replication
        from repro.sim.kernels import numpy_backend, python_backend
        from repro.sim.ps_network import PSNetworkSimulation
        from repro.sim.rushed_network import RushedNetworkSimulation

        wrap = self.wrap
        self._install_sweep()
        for cls in _subclasses(BaseRouter):
            if "path" in cls.__dict__:
                self.patch(cls, "path", wrap("routing.path", cls.path))
        # Batch lookups (numpy kernels) are routing children of a kernel
        # span; the event loops' scalar probes are inlined dict lookups
        # and stay in the kernel's self time.
        self.patch(PathCache, "offlen_batch",
                   wrap("routing.pathcache.offlen_batch",
                        PathCache.offlen_batch))
        for mod, label in ((python_backend, "python"), (numpy_backend, "numpy")):
            for kernel in ("run_fifo", "run_slotted", "run_finite"):
                if kernel in mod.__dict__:  # numpy has no finite kernel
                    self.patch(mod, kernel,
                               wrap(f"sim.kernels.{label}.{kernel}",
                                    getattr(mod, kernel), record=True))
        self.patch(RushedNetworkSimulation, "run",
                   wrap("sim.rushed.run", RushedNetworkSimulation.run,
                        record=True))
        self.patch(PSNetworkSimulation, "run",
                   wrap("sim.ps.run", PSNetworkSimulation.run, record=True))

        get_engine = replication.get_engine

        def traced_get_engine(name: str):
            engine = get_engine(name)
            return dataclasses.replace(
                engine,
                run_cell=wrap("sim.registry.run_cell", engine.run_cell,
                              record=True),
            )

        self.patch(replication, "get_engine", traced_get_engine)

    def install_counters(self) -> None:
        """Serial run: exact path-build, path-lookup and event-queue counts."""
        from repro.routing.pathcache import PathCache
        from repro.sim.eventqueue import CalendarQueue, HeapEventQueue

        counts = self.counts
        self.patch(PathCache, "ensure",
                   self.counted("routing.pathcache.ensure", PathCache.ensure))
        for cls in (CalendarQueue, HeapEventQueue):
            self.patch(cls, "push", self.counted("sim.eventqueue.push", cls.push))
            self.patch(cls, "pop", self.counted("sim.eventqueue.pop", cls.pop))

        # Lookups: scalar probes of PathCache.table (the event loops bind
        # table.get) plus one per pair of a dense batch lookup.
        counts["routing.pathcache.lookups"] = 0

        class CountingTable(dict):
            __slots__ = ()

            def get(self, key, default=None):
                counts["routing.pathcache.lookups"] += 1
                return dict.get(self, key, default)

        init = PathCache.__init__

        def counting_init(cache, *args: Any, **kwargs: Any) -> None:
            init(cache, *args, **kwargs)
            cache.table = CountingTable(cache.table)

        offlen_batch = PathCache.offlen_batch

        def counting_offlen_batch(cache, srcs, dsts):
            probes = counts["routing.pathcache.lookups"]
            out = offlen_batch(cache, srcs, dsts)
            if counts["routing.pathcache.lookups"] == probes:
                # Dense gather: no get() probes, one lookup per pair.
                counts["routing.pathcache.lookups"] += len(srcs)
            return out

        self.patch(PathCache, "__init__", counting_init)
        self.patch(PathCache, "offlen_batch", counting_offlen_batch)

    def install_fanout(self) -> None:
        """Pool run: parent-side publish, precompute and dispatch spans."""
        from repro.routing.pathcache import PathCache
        from repro.sim import replication

        wrap = self.wrap
        count = self.count
        self._install_sweep()
        self.patch(PathCache, "precompute_all",
                   wrap("routing.pathcache.precompute",
                        PathCache.precompute_all, record=True))

        publish_cells = replication.publish_cells
        enter = wrap("sim.sharedcells.publish",
                     lambda stack, cm: stack.enter_context(cm), record=True)

        @contextmanager
        def traced_publish(entries):
            with ExitStack() as stack:
                batch = enter(stack, publish_cells(entries))
                _name, reg_off, reg_len = batch.token
                count("sim.sharedcells.published_bytes", reg_off + reg_len)
                yield batch

        self.patch(replication, "publish_cells", traced_publish)

        get_pool = replication.get_pool

        def traced_get_pool(processes=None):
            return _TimedPool(get_pool(processes), wrap, count)

        self.patch(replication, "get_pool", traced_get_pool)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class _TimedPool:
    """A worker pool whose chunks report their busy time to the parent.

    Each job is sent as ``(func, job)`` to :func:`_timed_call`, which runs
    in the worker and tags the result list with the seconds it took; the
    parent times each wait for the next chunk as a span.
    """

    def __init__(self, pool: Any, wrap: Callable, count: Callable) -> None:
        self._pool = pool
        self._start = wrap("util.workerpool.imap_unordered",
                           pool.imap_unordered, record=True)
        self._next = wrap("sim.replication.dispatch_wait", next)
        self._count = count

    def imap_unordered(self, func: Callable, items: Any):
        jobs = [(func, item) for item in items]
        results = iter(self._start(_timed_call, jobs))
        while True:
            try:
                idx, pos, reps = self._next(results)
            except StopIteration:
                return
            self._count("util.workerpool.busy_s", reps.busy_s)
            yield idx, pos, reps


class _BusyList(list):
    """A chunk's replication list, tagged with the worker's busy seconds."""

    busy_s = 0.0


def _timed_call(call: tuple) -> tuple:
    """Worker side: run one ``run_seed_chunk`` job and time it."""
    func, job = call
    start = _clock()
    idx, pos, reps = func(job)
    reps = _BusyList(reps)
    reps.busy_s = _clock() - start
    return idx, pos, reps
