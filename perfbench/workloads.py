"""The four workloads, each one path a core designer waits on.

Every workload measures passes over its inputs until the run's time is
up.  A *pass* is one trip over the input set (one sweep for
``explore``, one client's trip for ``serve``); the workload's
*operation* — the unit its latency samples time — is named in
:data:`OPERATION`.  Times are wall clock.  Output checks run outside
every timed region; a failed operation or a wrong output counts
against ``failed``.

In a traced run the passes alternate untraced and traced (``serve``
runs an untraced half, then a traced half on a second server with a
cache directory of its own), so the
per-layer figures and the tracing overhead come from one process.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro import Toolchain, run_reference
from repro.arch import (
    ExploreCache,
    explore,
    intermediate_architecture,
    pareto_front,
    simulate_points,
)
from repro.encode.image import program_to_dict
from repro.errors import ReproError
from repro.obs import Telemetry
from repro.serve import ServeClient, ServeClientError, ServerConfig, \
    start_in_thread

from .inputs import explore_set, input_set, stimulus
from .layers import Tracer, by_source, layer_metrics

#: What one latency sample times, per workload.
OPERATION = {
    "recompile": "re-compile of a source whose prefix is cached "
                 "(disk-warm reload, then changed budget)",
    "compile-run": "compile with cache=None",
    "explore": "one cold serial sweep over every candidate",
    "serve": "submit -> result round trip",
}

#: Stimulus of the compile-run workload: lanes x frames per source.
LANES, FRAMES = 64, 32

#: Workloads that run the numpy batch engine.
NEEDS_NUMPY = {"compile-run"}


@dataclass
class Tally:
    """What one mode (traced or untraced) of a run measured."""

    #: Seconds per operation and per pass.
    latencies: list[float] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)
    #: Work items completed per second, per pass (``work_per_s``).
    rates: list[float] = field(default_factory=list)
    #: Schedule lengths and microcode words emitted, per pass.
    cycles: list[int] = field(default_factory=list)
    words: list[int] = field(default_factory=list)


@dataclass
class Checks:
    """Operations attempted and failed (errors or wrong outputs)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


@dataclass
class Measurement:
    plain: Tally
    traced: Tally | None = None
    #: Per-layer figures of the traced passes.
    layers: dict[str, float] = field(default_factory=dict)
    #: ``{source: {layer: ms per pass}}`` of the traced passes.
    sources: dict[str, dict[str, float]] = field(default_factory=dict)
    telemetry: Telemetry | None = None


def image(compiled) -> dict[str, Any]:
    """The wire form of a binary: what bit-identity is checked on."""
    return json.loads(json.dumps(program_to_dict(compiled.binary)))


def stop_children(timeout: float = 30.0) -> None:
    """Join every child process (serve's worker pool), killing any
    that outlive ``timeout``."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join(timeout)


def _compiling(tracer: Tracer | None, source: str):
    return tracer.compiling(source) if tracer is not None \
        else nullcontext()


class Workload:
    """A workload: set up in the constructor (timed as ``setup_s``),
    then :meth:`prepare_checks`, :meth:`measure`, :meth:`finish`,
    :meth:`close`."""

    name = "?"

    def __init__(self, seed: int, size: str, workdir: Path):
        """Build the inputs of ``seed`` at ``size``; write only under
        ``workdir``."""
        self.workdir = workdir
        self.checks = Checks()

    def prepare_checks(self) -> None:
        """Compute the expected outputs (untimed)."""

    def measure(self, seconds: float, trace: bool) -> Measurement:
        """Run passes for ``seconds``; alternate traced passes in."""
        plain, traced = Tally(), Tally()
        tracer, telemetry = Tracer(), Telemetry()
        deadline = time.perf_counter() + seconds
        n_passes = 0
        while True:
            # Start every pass from a collected heap, so where the
            # cyclic collector strikes depends on the pass, not on the
            # garbage the one before left behind.
            gc.collect()
            if trace and n_passes % 2:
                with tracer.active(telemetry):
                    self.run_pass(traced, tracer)
            else:
                self.run_pass(plain, None)
            n_passes += 1
            if time.perf_counter() >= deadline and (
                    not trace or n_passes >= 2):
                break
        if not trace:
            return Measurement(plain)
        passes = max(1, len(traced.passes))
        layers = layer_metrics(telemetry.counters, passes)
        layers.update(self.traced_layers())
        return Measurement(plain, traced, layers,
                           by_source(telemetry.counters, passes), telemetry)

    def run_pass(self, tally: Tally, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def traced_layers(self) -> dict[str, float]:
        """Workload-specific per-layer figures."""
        return {}

    def finish(self, measurement: Measurement) -> None:
        """Checks that need the whole run (untimed)."""

    def close(self) -> None:
        """Release what the set-up started."""

    def attempt(self, what: str, operation: Callable[[], Any]
                ) -> tuple[Any, float]:
        """Time ``operation`` in seconds; a compiler error is a failed
        operation (result ``None``)."""
        start = time.perf_counter()
        try:
            result = operation()
        except ReproError as exc:
            self.checks.record(False, f"{what}: {type(exc).__name__}: {exc}")
            result = None
        return result, time.perf_counter() - start


class Recompile(Workload):
    """The edit/re-compile loop through a default (disk-backed)
    ``Toolchain`` on a fresh cache directory per pass."""

    name = "recompile"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.sources = input_set(seed, size)
        self.n_passes = 0

    def prepare_checks(self) -> None:
        # Uncached images at both budgets: every cached compile must
        # reproduce them bit for bit.
        self.expected = {}
        for source in self.sources:
            toolchain = Toolchain(source.core, source.options, cache=None)
            self.expected[source.name] = (
                image(toolchain.compile(source.text,
                                        io_binding=source.io_binding)),
                image(toolchain.replace(budget=source.rebudget).compile(
                    source.text, io_binding=source.io_binding)))

    def run_pass(self, tally, tracer):
        directory = self.workdir / f"recompile-{self.n_passes}"
        self.n_passes += 1
        spent = 0.0
        cycles = words = compiles = 0
        for source in self.sources:
            options = source.options.replace(cache_dir=str(directory))
            binding = source.io_binding
            reader = None

            def cold():
                return Toolchain(source.core, options).compile(
                    source.text, io_binding=binding)

            def reload():
                nonlocal reader
                # A new toolchain on the same directory: an empty memory
                # tier, so every stage comes from disk, as in a second
                # process.
                reader = Toolchain(source.core, options)
                return reader.compile(source.text, io_binding=binding)

            def rebudget():
                return reader.replace(budget=source.rebudget).compile(
                    source.text, io_binding=binding)

            base_image, rebudget_image = self.expected[source.name]
            with _compiling(tracer, source.name):
                first, timing = self.attempt(f"{source.name} cold", cold)
            spent += timing
            if first is None:
                continue
            first_image = image(first)
            self.checks.record(first_image == base_image,
                               f"{source.name}: cold cached image differs "
                               f"from the uncached one")
            cycles += first.n_cycles
            words += len(first.binary.words)
            compiles += 1
            for label, operation, expected in (
                    ("reload", reload, first_image),
                    ("rebudget", rebudget, rebudget_image)):
                if label == "rebudget" and reader is None:
                    break               # the reload could not start
                with _compiling(tracer, source.name):
                    compiled, timing = self.attempt(
                        f"{source.name} {label}", operation)
                spent += timing
                if compiled is None:
                    continue
                tally.latencies.append(timing)
                self.checks.record(
                    image(compiled) == expected,
                    f"{source.name}: {label} image differs from its "
                    f"expected image")
                cycles += compiled.n_cycles
                words += len(compiled.binary.words)
                compiles += 1
        tally.passes.append(spent)
        tally.rates.append(compiles / spent)
        tally.cycles.append(cycles)
        tally.words.append(words)
        shutil.rmtree(directory, ignore_errors=True)


class CompileRun(Workload):
    """Uncached compiles, each binary run on seeded stimulus lanes by
    the numpy batch engine."""

    name = "compile-run"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.sources = input_set(seed, size)
        self.lanes = {source.name: stimulus(source.dfg, seed * 7919 + k,
                                            LANES, FRAMES)
                      for k, source in enumerate(self.sources)}

    def prepare_checks(self) -> None:
        self.expected = {
            source.name: [run_reference(source.dfg, lane)
                          for lane in self.lanes[source.name]]
            for source in self.sources}

    def run_pass(self, tally, tracer):
        spent = simulating = 0.0
        cycles = words = simulated = 0
        for source in self.sources:
            with _compiling(tracer, source.name):
                compiled, timing = self.attempt(
                    f"{source.name} compile",
                    lambda: Toolchain(source.core, source.options,
                                      cache=None).compile(
                        source.text, io_binding=source.io_binding))
            spent += timing
            if compiled is None:
                continue
            tally.latencies.append(timing)
            cycles += compiled.n_cycles
            words += len(compiled.binary.words)
            lanes = self.lanes[source.name]
            with _compiling(tracer, source.name):
                outputs, timing = self.attempt(
                    f"{source.name} run",
                    lambda: compiled.run_batch(lanes, engine="numpy"))
            spent += timing
            if outputs is None:
                continue
            self.checks.record(outputs == self.expected[source.name],
                               f"{source.name}: simulated outputs differ "
                               f"from the reference interpreter")
            # Simulated time-loop cycles: schedule length per frame.
            simulated += compiled.n_cycles * FRAMES * len(lanes)
            simulating += timing
        tally.passes.append(spent)
        if simulating:
            tally.rates.append(simulated / simulating)
        tally.cycles.append(cycles)
        tally.words.append(words)


class Explore(Workload):
    """A cold, serial design-space sweep with a fresh memo."""

    name = "explore"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.dfgs, self.allocations = explore_set(seed, size)
        self.lanes = {dfg.name: stimulus(dfg, seed * 7919 + k, 4, 16)
                      for k, dfg in enumerate(self.dfgs)}
        self.first_points = None
        #: Per-candidate times of the traced sweeps.
        self.candidates_ms: list[float] = []

    def run_pass(self, tally, tracer):
        # A serial sweep reports each candidate as it finishes.
        marks = [time.perf_counter()]
        points, sweep = self.attempt("sweep", lambda: explore(
            self.dfgs, self.allocations, cache=ExploreCache(),
            progress=lambda record: marks.append(time.perf_counter())))
        if points is None:
            return
        if tracer is not None:
            self.candidates_ms.extend((b - a) * 1e3
                                      for a, b in zip(marks, marks[1:]))
        tally.latencies.append(sweep)
        tally.passes.append(sweep)
        tally.rates.append(len(points) / sweep)
        tally.cycles.append(sum(sum(point.schedule_lengths.values())
                                for point in points))
        for point in points:
            self.checks.record(point.feasible,
                               f"candidate {point.allocation.astuple()} "
                               f"infeasible: {point.failures}")
        if self.first_points is None:
            self.first_points = points
        else:
            self.checks.record(
                [p.schedule_lengths for p in points]
                == [p.schedule_lengths for p in self.first_points],
                "a repeated sweep gave different schedule lengths")

    def traced_layers(self):
        return {"arch.candidate_ms": statistics.median(self.candidates_ms)
                if self.candidates_ms else 0.0}

    def finish(self, measurement):
        if self.first_points is None:
            return
        front = pareto_front(self.first_points)
        # The front's binaries, compiled on the candidate cores as
        # swept, give the sweep's code size ...
        words = 0
        for point in front:
            core = intermediate_architecture(self.dfgs, point.allocation)
            for dfg in self.dfgs:
                compiled, _ = self.attempt(
                    f"{dfg.name} on {point.allocation.astuple()}",
                    lambda: Toolchain(core, cache=None).compile(dfg))
                if compiled is not None:
                    self.checks.record(True, "front compile")
                    words += len(compiled.binary.words)
        # ... and simulate_points runs them against the reference.
        for dfg in self.dfgs:
            lanes = self.lanes[dfg.name]
            expected = [run_reference(dfg, lane) for lane in lanes]
            for simulation in simulate_points(dfg, front, lanes):
                self.checks.record(
                    simulation.ok and simulation.outputs == expected,
                    f"{dfg.name} on {simulation.point.allocation.astuple()}:"
                    f" {simulation.failure or 'outputs differ'}")
        for tally in (measurement.plain, measurement.traced):
            if tally is not None:
                tally.words[:] = [words] * len(tally.passes)


class Serve(Workload):
    """An in-process compile server under a closed loop of two clients
    sharing one per-run cache directory."""

    name = "serve"
    CLIENTS = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.sources = input_set(seed, size)
        self.handle = self._start(workdir / "serve-cache")

    def _start(self, cache: Path, telemetry: Telemetry | None = None):
        return start_in_thread(ServerConfig(port=0, cache=str(cache)),
                               telemetry=telemetry)

    def _stop(self) -> None:
        if self.handle is not None:
            handle, self.handle = self.handle, None
            handle.stop()
        stop_children()

    def prepare_checks(self) -> None:
        self.expected = {
            source.name: image(Toolchain(source.core, source.options,
                                         cache=None).compile(
                source.text, io_binding=source.io_binding))
            for source in self.sources}

    def measure(self, seconds, trace):
        if not trace:
            return Measurement(self._run_clients(seconds)[0])
        plain, _ = self._run_clients(seconds / 2)
        # The traced half needs workers forked with the wrappers in
        # place, so it gets a second server.  Its cache directory is
        # fresh, so both halves start cold and its first submissions
        # write, as the untraced half's did.
        self._stop()
        tracer, telemetry = Tracer(), Telemetry()
        with tracer.installed():
            self.handle = self._start(self.workdir / "serve-cache-traced",
                                      telemetry)
            try:
                traced, jobs = self._run_clients(seconds / 2)
            finally:
                self._stop()
        layers = layer_metrics(telemetry.counters,
                               max(1, len(traced.passes)))

        def p50(values):
            return statistics.median(values) if values else 0.0

        done = [(job, trip) for job, trip in jobs
                if job.get("state") == "done"]
        layers.update({
            "serve.queue_wait_ms": p50([
                (job["started"] - job["submitted"]) * 1e3
                for job, _ in done]),
            "serve.worker_ms": p50([job["seconds"] * 1e3
                                    for job, _ in done]),
            "serve.overhead_ms": p50([
                (trip - (job["finished"] - job["submitted"])) * 1e3
                for job, trip in done]),
            "serve.rejections": telemetry.counters.get("serve.rejections",
                                                       0),
            "serve.jobs_failed": len(jobs) - len(done),
        })
        return Measurement(plain, traced, layers, {}, telemetry)

    def _run_clients(self, seconds: float):
        """The closed loop: each client submits the input set in turn,
        waiting for every result before the next submission."""
        client_url = self.handle.url
        gc.collect()
        deadline = time.perf_counter() + seconds
        results: list[list] = [[] for _ in range(self.CLIENTS)]
        failures: list[BaseException] = []

        def client(slot: int) -> None:
            connection = ServeClient(client_url, timeout=60)
            try:
                while not results[slot] or time.perf_counter() < deadline:
                    trip = []
                    for source in self.sources:
                        start = time.perf_counter()
                        try:
                            job = connection.submit(
                                source.text, source.core,
                                options=source.options,
                                io_binding=source.io_binding,
                                name=source.name)
                            job = connection.wait(job["id"], timeout=120)
                        except ServeClientError as exc:
                            job = {"state": "refused", "error": str(exc)}
                        trip.append((source, job,
                                     time.perf_counter() - start))
                    results[slot].append(trip)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                failures.append(exc)

        started = time.perf_counter()
        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if failures:
            raise failures[0]
        tally = Tally()
        completed = 0
        jobs = []
        for trips in results:
            for trip in trips:
                cycles = words = 0
                trip_time = 0.0
                for source, job, timing in trip:
                    trip_time += timing
                    jobs.append((job, timing))
                    ok = job.get("state") == "done"
                    if ok:
                        result = job["result"]
                        ok = result["program"] == self.expected[source.name]
                        cycles += result["n_cycles"]
                        words += len(result["program"]["words"])
                        tally.latencies.append(timing)
                        completed += 1
                    self.checks.record(
                        ok, f"{source.name}: job {job.get('state')} "
                            f"{job.get('error') or 'image differs'}")
                tally.passes.append(trip_time)
                tally.cycles.append(cycles)
                tally.words.append(words)
        # The clients run side by side, so the loop's throughput is one
        # figure over its whole wall-clock time.
        tally.rates.append(completed / wall)
        return tally, jobs

    def close(self) -> None:
        self._stop()


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (Recompile, CompileRun, Explore, Serve)
}
