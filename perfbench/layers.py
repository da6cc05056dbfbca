"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each ``repro`` module
(the names the pipeline stages, the explorer and the simulator call
through) so that every call records two counters into whatever
:class:`repro.obs.Telemetry` registry is current, the layer's
nanoseconds and its call count, and (but for :data:`UNSPANNED`) a
span.  Counters rather than spans carry the
numbers because they survive the process boundary: a serve worker
ships its registry's counters home with each job report, and the
server merges them, so a forked worker traces with the same wrappers.

Nothing here edits ``src/repro``; :meth:`Tracer.uninstall` restores
every attribute it replaced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

from repro.obs import Telemetry, current_telemetry, use_telemetry

PREFIX = "perfbench."

#: (module, owner attribute or None, function, layer): each timed entry
#: point, patched where its caller looks it up.
TIMED = (
    ("repro.pipeline.stages", None, "parse_source", "lang.parse"),
    ("repro.pipeline.stages", None, "optimize", "opt.optimize"),
    ("repro.arch.explore", None, "optimize_machine_independent",
     "opt.optimize"),
    ("repro.arch.explore", None, "specialize_for_core", "opt.optimize"),
    ("repro.pipeline.stages", None, "generate_rts", "rtgen.generate"),
    ("repro.pipeline.stages", None, "assemble", "encode.assemble"),
    ("repro.pipeline.stages", None, "impose_instruction_set", "core.impose"),
    ("repro.core.rtclass", "ClassTable", "from_core", "core.instruction_set"),
    ("repro.core.instruction_set", "InstructionSet", "from_desired",
     "core.instruction_set"),
    ("repro.core.instruction_set", "InstructionSet", "validate",
     "core.validate"),
    ("repro.core.conflict_graph", "ConflictGraph", "from_instruction_set",
     "core.conflict_graph"),
    ("repro.core.artificial", None, "greedy_cover", "core.cover"),
    ("repro.core.artificial", None, "exact_cover", "core.cover"),
    ("repro.pipeline.stages", None, "build_dependence_graph",
     "sched.dependence"),
    ("repro.pipeline.stages", None, "list_schedule", "sched.list"),
    ("repro.pipeline.stages", None, "allocate_registers", "sched.regalloc"),
    ("repro.pipeline.session", "StageCache", "put", "pipeline.store"),
    ("repro.pipeline.diskcache", "DiskCache", "get", "pipeline.backend_read"),
    ("repro.pipeline.diskcache", "DiskCache", "put",
     "pipeline.backend_write"),
    ("repro.pipeline.stages", "Stage", "execute", "pipeline.execute"),
    ("repro.toolchain", "Toolchain", "run_pipeline", "toolchain.compile"),
    ("repro.arch.explore", None, "intermediate_architecture",
     "arch.core_synthesis"),
    ("repro.pipeline.program", None, "run_batch", "sim.run"),
    ("repro.sim.batch", None, "decode_program", "sim.decode"),
)


#: Entry points timed without a span of their own.  ``Stage.execute``
#: joins the driver's ``stage:<name>`` span only when that span is the
#: current one; a wrapper span in between would make it nest a second.
UNSPANNED = {"execute"}


def _nodes_removed(args, result) -> dict[str, int]:
    return {"opt.nodes_removed": len(args[0].nodes) - len(result[0].nodes)}


#: Work counts derived from a wrapped call's arguments and result.
COUNTS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "optimize": _nodes_removed,
    "optimize_machine_independent": _nodes_removed,
    "specialize_for_core": _nodes_removed,
    "generate_rts": lambda args, result: {"rtgen.rts": len(result.rts)},
    "assemble": lambda args, result: {"encode.words": len(result.words)},
    "from_core": lambda args, result: {"core.classes": len(result)},
    "from_desired": lambda args, result: {"core.types": len(result)},
    "execute": lambda args, result: {"pipeline.stages_executed": 1},
    "run_pipeline": lambda args, result: {
        "pipeline.stage_slots": len(result.completed)},
}


def registry(args: tuple) -> Telemetry:
    """The registry a wrapped call reports to.  ``Toolchain.run_pipeline``
    installs its bound registry only once inside, so its wrapper asks the
    toolchain (what a serve worker binds); everything else runs inside
    and finds it current."""
    if args and isinstance(getattr(args[0], "telemetry", None), Telemetry):
        return args[0].telemetry
    return current_telemetry()


def counter(name: str) -> str:
    """The registry counter a layer figure is recorded under."""
    return PREFIX + name


class Tracer:
    """Installs and removes the layer wrappers; owns nothing else but
    the name of the source being compiled, for per-source splits."""

    def __init__(self) -> None:
        self.source: str | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _record(self, obs: Telemetry, layer: str, ns: int) -> None:
        # Whole nanoseconds: a serve worker ships only integer counters.
        obs.count(counter(f"{layer}.ns"), ns)
        obs.count(counter(f"{layer}.calls"))
        if self.source is not None:
            obs.count(counter(f"source.{self.source}.{layer}.ns"), ns)

    def _timed(self, layer: str, func: Callable, count: Callable | None,
               spanned: bool) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            obs = registry(args)
            start = time.perf_counter_ns()
            try:
                with obs.span(layer) if spanned else nullcontext():
                    result = func(*args, **kwargs)
            finally:
                self._record(obs, layer, time.perf_counter_ns() - start)
            if count is not None:
                for name, n in count(args, result).items():
                    obs.count(counter(name), n)
            return result
        return wrapper

    def _cache_lookup(self, func: Callable) -> Callable:
        """``StageCache.get_entry``: a hit is a restore, a miss a
        lookup — the two costs the stage cache trades against."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            obs = current_telemetry()
            start = time.perf_counter_ns()
            with obs.span("pipeline.get_entry"):
                snapshot, source = func(*args, **kwargs)
            layer = "pipeline.lookup" if snapshot is None \
                else "pipeline.restore"
            self._record(obs, layer, time.perf_counter_ns() - start)
            obs.count(counter("pipeline.lookups"))
            if snapshot is not None:
                obs.count(counter("pipeline.hits"))
            return snapshot, source
        return wrapper

    def _serialize(self, func: Callable) -> Callable:
        """``diskcache.serialize``: the bytes every backend write puts
        on disk."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            blob = func(*args, **kwargs)
            current_telemetry().count(counter("pipeline.bytes_written"),
                                      len(blob))
            return blob
        return wrapper

    # -- install / uninstall -------------------------------------------

    def _patch(self, module: str, owner: str | None, name: str,
               make: Callable[[Callable], Callable]) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        original = inspect.getattr_static(target, name)
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._undo.append((target, name, original))
        setattr(target, name, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, owner, name, layer in TIMED:
            self._patch(module, owner, name,
                        lambda f, layer=layer, name=name:
                        self._timed(layer, f, COUNTS.get(name),
                                    name not in UNSPANNED))
        self._patch("repro.pipeline.session", "StageCache", "get_entry",
                    self._cache_lookup)
        self._patch("repro.pipeline.diskcache", None, "serialize",
                    self._serialize)

    def uninstall(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def active(self, telemetry: Telemetry):
        """Wrappers on and ``telemetry`` current, for one traced pass."""
        with self.installed(), use_telemetry(telemetry):
            yield

    @contextmanager
    def compiling(self, source: str):
        """Attribute the wrapped calls inside the block to ``source``."""
        self.source = source
        try:
            yield
        finally:
            self.source = None


#: Layer times reported per pass, in ms: metric name -> counter layer.
LAYER_TIMES = {
    "lang.parse_ms": "lang.parse",
    "opt.optimize_ms": "opt.optimize",
    "rtgen.generate_ms": "rtgen.generate",
    "encode.assemble_ms": "encode.assemble",
    "core.impose_ms": "core.impose",
    "core.instruction_set_ms": "core.instruction_set",
    "core.validate_ms": "core.validate",
    "core.conflict_graph_ms": "core.conflict_graph",
    "core.cover_ms": "core.cover",
    "sched.dependence_ms": "sched.dependence",
    "sched.list_ms": "sched.list",
    "sched.regalloc_ms": "sched.regalloc",
    "pipeline.lookup_ms": "pipeline.lookup",
    "pipeline.restore_ms": "pipeline.restore",
    "pipeline.store_ms": "pipeline.store",
    "pipeline.backend_read_ms": "pipeline.backend_read",
    "pipeline.backend_write_ms": "pipeline.backend_write",
    "arch.core_synthesis_ms": "arch.core_synthesis",
    "sim.decode_ms": "sim.decode",
    "sim.run_ms": "sim.run",
    "audio.compile_ms": "source.audio.toolchain.compile",
    "audio.sched.list_ms": "source.audio.sched.list",
}

#: Work counts reported per pass: metric name -> registry counter
#: (the benchmark's own, or one ``repro`` already records).
LAYER_COUNTS = {
    "opt.nodes_removed": counter("opt.nodes_removed"),
    "rtgen.rts": counter("rtgen.rts"),
    "rtgen.copies_inserted": "rtgen.copies_inserted",
    "encode.words": counter("encode.words"),
    "core.classes": counter("core.classes"),
    "core.types": counter("core.types"),
    "sched.list.attempts": "sched.list.attempts",
    "sched.list.tightenings": "sched.list.tightenings",
    "sched.regalloc.overflows": "sched.regalloc.overflows",
    "pipeline.bytes_written": counter("pipeline.bytes_written"),
    "pipeline.lookups": counter("pipeline.lookups"),
    "pipeline.stages_executed": counter("pipeline.stages_executed"),
    "pipeline.stage_slots": counter("pipeline.stage_slots"),
    "arch.candidates": "explore.candidates",
    "arch.memo_hits": "explore.cache_hits",
    "sim.cycles": "sim.cycles",
    "sim.lanes": "sim.batch_width",
}

#: Every per-layer metric and its unit.  Figures a workload does not
#: exercise read 0 (the cache layer under ``cache=None``, say).
PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "pipeline.bytes_written": "bytes",
    "pipeline.hit_ratio": "ratio",
    "toolchain.driver_ms": "ms",
    "arch.candidate_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.worker_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.rejections": "count",
    "serve.jobs_failed": "count",
    "obs.trace_overhead_pct.latency_ms_p50": "%",
    "obs.trace_overhead_pct.latency_ms_p90": "%",
    "obs.trace_overhead_pct.pass_s": "%",
}


def layer_metrics(counters: dict[str, int], passes: int
                  ) -> dict[str, float]:
    """Per-pass layer figures from a traced registry's counters; the
    workload-specific ones start at 0 for the workload to fill in."""
    def ms(layer: str) -> float:
        return counters.get(counter(f"{layer}.ns"), 0) / 1e6 / passes

    figures = dict.fromkeys(PER_LAYER, 0.0)
    figures.update({name: ms(layer) for name, layer in LAYER_TIMES.items()})
    figures.update({name: counters.get(key, 0) / passes
                    for name, key in LAYER_COUNTS.items()})
    lookups = counters.get(counter("pipeline.lookups"), 0)
    if lookups:
        figures["pipeline.hit_ratio"] = \
            counters.get(counter("pipeline.hits"), 0) / lookups
    # The driver's own time: the compile minus everything its stage
    # slots spent (lookups, restores, executions, stores).
    figures["toolchain.driver_ms"] = (
        ms("toolchain.compile") - ms("pipeline.execute")
        - ms("pipeline.lookup") - ms("pipeline.restore")
        - ms("pipeline.store"))
    return figures


def by_source(counters: dict[str, float], passes: int
              ) -> dict[str, dict[str, float]]:
    """``{source: {layer: ms per pass}}`` from the per-source counters."""
    split: dict[str, dict[str, float]] = {}
    head = counter("source.")
    for key, value in counters.items():
        if key.startswith(head) and key.endswith(".ns"):
            source, _, layer = key[len(head):-len(".ns")].partition(".")
            split.setdefault(source, {})[layer] = value / 1e6 / passes
    return split
