"""Execution interval analysis (paper, section 8 / Timmer & Jess [11]).

"A promising technique is being developed using execution interval
analysis to prune the search space of the scheduler."

Given a cycle budget, every RT gets an execution interval
``[ASAP, ALAP]`` from longest-path analysis over the dependence graph.
Empty intervals prove infeasibility outright; tight intervals prune the
exact scheduler's branching and drive the bipartite matching check of
:mod:`repro.sched.bipartite`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SchedulingError
from ..rtgen.rt import RT
from .dependence import DependenceGraph


@dataclass(frozen=True)
class ExecutionInterval:
    asap: int
    alap: int

    @property
    def width(self) -> int:
        return self.alap - self.asap + 1

    def contains(self, cycle: int) -> bool:
        return self.asap <= cycle <= self.alap


def execution_intervals(
    graph: DependenceGraph, budget: int
) -> dict[RT, ExecutionInterval]:
    """ASAP/ALAP windows under ``budget``; raises if already infeasible."""
    if budget < 1:
        raise SchedulingError(f"cycle budget must be >= 1, got {budget}")
    adjacency = graph.adjacency
    if adjacency.order is None:
        raise SchedulingError("dependence cycle within one iteration")
    rts = graph.rts
    asap = [0] * len(rts)
    for i in adjacency.order:
        asap[i] = max(
            (asap[src] + delay for src, delay in adjacency.predecessors[i]),
            default=0,
        )
    alap = [0] * len(rts)
    for i in reversed(adjacency.order):
        latest_finish = budget - max(rts[i].latency, rts[i].max_offset + 1)
        alap[i] = min(
            (alap[dst] - delay for dst, delay in adjacency.successors[i]),
            default=latest_finish,
        )

    intervals: dict[RT, ExecutionInterval] = {}
    for i, rt in enumerate(rts):
        if asap[i] > alap[i]:
            raise SchedulingError(
                f"{rt!r} has an empty execution interval "
                f"[{asap[i]}, {alap[i]}] under budget {budget}: the "
                f"critical path does not fit"
            )
        intervals[rt] = ExecutionInterval(asap[i], alap[i])
    return intervals


def tighten_with_decision(
    intervals: dict[RT, ExecutionInterval],
    graph: DependenceGraph,
    rt: RT,
    cycle: int,
) -> dict[RT, ExecutionInterval] | None:
    """Intervals after fixing ``rt`` at ``cycle`` (None if infeasible).

    One propagation sweep: successors' ASAPs and predecessors' ALAPs
    move; the sweep iterates to a fixpoint (graphs are small).
    """
    if not intervals[rt].contains(cycle):
        return None
    updated = dict(intervals)
    updated[rt] = ExecutionInterval(cycle, cycle)
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.distance != 0:
                continue
            src, dst = updated[edge.src], updated[edge.dst]
            new_asap = max(dst.asap, src.asap + edge.delay)
            new_alap = min(src.alap, dst.alap - edge.delay)
            if new_asap > dst.alap or new_alap < src.asap:
                return None
            if new_asap != dst.asap:
                updated[edge.dst] = ExecutionInterval(new_asap, dst.alap)
                changed = True
            if new_alap != src.alap:
                updated[edge.src] = ExecutionInterval(updated[edge.src].asap, new_alap)
                changed = True
    return updated

