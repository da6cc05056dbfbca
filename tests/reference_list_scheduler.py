"""The list scheduler as it stood before the one-sort-per-cycle rewrite.

A slow oracle, kept for tests only: ``list_schedule`` below re-sorts
the whole ready list every pass and rebuilds the RT-keyed adjacency,
the priorities and the execution intervals on every attempt.  It must
take exactly the decisions :func:`repro.sched.list_schedule` takes
(``tests/test_sched_oracle.py``).  The scheduler module is copied
verbatim; the analyses it called (``compute_priorities``,
``execution_intervals`` and its topological sort) are copied verbatim
too, so the oracle shares no graph analysis with the code under test.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.errors import BudgetExceededError, SchedulingError
from repro.obs import current_telemetry
from repro.rtgen.rt import RT
from repro.sched.dependence import DependenceGraph, Edge
from repro.sched.interval import ExecutionInterval
from repro.sched.schedule import ReservationTable, Schedule


def list_schedule(
    graph: DependenceGraph,
    budget: int | None = None,
    restarts: int = 8,
    seed: int = 0,
    lifetime_compaction: bool = True,
    minimize: bool = True,
) -> Schedule:
    """Schedule one block; raise :class:`BudgetExceededError` if no
    attempt meets ``budget``."""
    best = _best_for_budget(graph, budget, restarts, seed)
    if best is None:
        # Nothing met the budget: report how close the critical-path
        # heuristic gets.
        fallback = _run_critical_path(graph, None)
        raise BudgetExceededError(fallback.length, budget)
    if budget is not None and minimize:
        obs = current_telemetry()
        while best.length > _resource_bound(graph):
            obs.count("sched.list.tightenings")
            tighter = _best_for_budget(graph, best.length - 1, restarts, seed)
            if tighter is None:
                break
            best = tighter
        best.budget = budget
    if lifetime_compaction:
        best = compact_lifetimes(graph, best)
    return best


def _resource_bound(graph: DependenceGraph) -> int:
    counts = Counter(rt.opu for rt in graph.rts)
    return max(counts.values(), default=1)


def _best_for_budget(
    graph: DependenceGraph, budget: int | None, restarts: int, seed: int
) -> Schedule | None:
    """Shortest schedule over the attempt ladder, or None if the budget
    is never met."""
    rng = random.Random(seed)
    attempts: list[Schedule] = []

    def record(schedule: Schedule | None) -> bool:
        current_telemetry().count("sched.list.attempts")
        if schedule is None:
            return False
        attempts.append(schedule)
        return budget is None or schedule.length <= budget

    if budget is None:
        record(_run_critical_path(graph, None))
    else:
        try:
            done = False
            for margin in (0, 1, 2):
                if record(_run_deadline(graph, budget, margin, None)):
                    done = True
                    break
            if not done:
                record(_run_critical_path(graph, budget))
            if not done:
                for attempt in range(restarts):
                    jitter = {rt: rng.random() * 0.9 for rt in graph.rts}
                    if record(_run_deadline(graph, budget, attempt % 3, jitter)):
                        break
        except SchedulingError:
            # Interval analysis proved the budget infeasible outright.
            return None
    if not attempts:
        return None
    best = min(attempts, key=lambda s: s.length)
    if budget is not None and best.length > budget:
        return None
    best.budget = budget
    return best


def _scheduler_loop(
    graph: DependenceGraph,
    key,
    horizon: int,
    deadline: dict[RT, int] | None,
    on_place=None,
) -> Schedule | None:
    """The shared cycle-by-cycle greedy core of both regimes."""
    predecessors: dict[RT, list] = {rt: [] for rt in graph.rts}
    successors: dict[RT, list] = {rt: [] for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        predecessors[edge.dst].append(edge)
        successors[edge.src].append(edge)
    pending = {rt: len(predecessors[rt]) for rt in graph.rts}
    ready = [rt for rt, n in pending.items() if n == 0]
    earliest = {rt: 0 for rt in graph.rts}
    table = ReservationTable()
    cycle_of: dict[RT, int] = {}
    length = 0
    for cycle in range(horizon + 1):
        if len(cycle_of) == len(graph.rts):
            break
        progress = True
        while progress:
            progress = False
            for rt in sorted(ready, key=lambda r: key(r, cycle)):
                if earliest[rt] > cycle:
                    continue
                if deadline is not None and cycle > deadline[rt]:
                    return None
                if not table.fits(rt, cycle):
                    continue
                table.place(rt, cycle)
                cycle_of[rt] = cycle
                length = max(length, cycle + max(rt.latency, rt.max_offset + 1))
                ready.remove(rt)
                if on_place is not None:
                    on_place(rt)
                for edge in successors[rt]:
                    pending[edge.dst] -= 1
                    earliest[edge.dst] = max(earliest[edge.dst], cycle + edge.delay)
                    if pending[edge.dst] == 0:
                        ready.append(edge.dst)
                progress = True
    if len(cycle_of) != len(graph.rts):
        return None
    return Schedule(cycle_of=cycle_of, length=length)


def _run_critical_path(
    graph: DependenceGraph, budget: int | None
) -> Schedule | None:
    priority = compute_priorities(graph)
    horizon = sum(max(1, rt.latency) for rt in graph.rts) + 1

    def key(rt: RT, cycle: int):
        return (-priority[rt], -len(rt.uses), rt.uid)

    schedule = _scheduler_loop(graph, key, horizon, None)
    if schedule is None:
        raise SchedulingError(
            "list scheduler exceeded its horizon; the conflict model is "
            "unsatisfiable"
        )
    return schedule


def _run_deadline(
    graph: DependenceGraph,
    budget: int,
    margin: int,
    jitter: dict[RT, float] | None,
) -> Schedule | None:
    intervals = execution_intervals(graph, budget)  # raises if infeasible
    critical = compute_priorities(graph)
    demand = Counter(rt.opu for rt in graph.rts)

    def key(rt: RT, cycle: int):
        remaining = budget - cycle
        forced = demand[rt.opu] >= remaining - margin
        alap = intervals[rt].alap + (jitter[rt] if jitter else 0)
        return (not forced, alap, -critical[rt], rt.uid)

    def on_place(rt: RT) -> None:
        demand[rt.opu] -= 1

    deadline = {rt: intervals[rt].alap for rt in graph.rts}
    return _scheduler_loop(graph, key, budget - 1, deadline, on_place)


def compact_lifetimes(graph: DependenceGraph, schedule: Schedule) -> Schedule:
    """Push every RT as late as possible without changing the length.

    Walking the transfers in decreasing issue cycle, each is moved to
    the latest conflict-free cycle that still satisfies its outgoing
    dependences.  Producers drift towards their consumers, shortening
    register lifetimes — important for the small distributed register
    files of the paper's cores.
    """
    successors: dict[RT, list] = {rt: [] for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        successors[edge.src].append(edge)

    cycle_of = dict(schedule.cycle_of)
    table = ReservationTable()
    for rt, cycle in cycle_of.items():
        table.place(rt, cycle)

    for rt in sorted(cycle_of, key=lambda r: -cycle_of[r]):
        latest = schedule.length - max(rt.latency, rt.max_offset + 1)
        for edge in successors[rt]:
            latest = min(latest, cycle_of[edge.dst] - edge.delay)
        current = cycle_of[rt]
        if latest <= current:
            continue
        table.remove(rt, current)
        target = current
        for candidate in range(latest, current, -1):
            if table.fits(rt, candidate):
                target = candidate
                break
        table.place(rt, target)
        cycle_of[rt] = target
    return Schedule(cycle_of=cycle_of, length=schedule.length,
                    budget=schedule.budget)


# -- analyses, as they stood in repro.sched.dependence/interval --------


def compute_priorities(graph: DependenceGraph) -> dict[RT, int]:
    """Longest path (in cycles) from each RT to any sink.

    The classic list-scheduling priority: transfers on the critical
    path first.  Computed over distance-0 edges (the block body).
    """
    successors: dict[RT, list[Edge]] = {rt: [] for rt in graph.rts}
    indegree_out: dict[RT, int] = {rt: 0 for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        successors[edge.src].append(edge)
        indegree_out[edge.src] += 1

    priority: dict[RT, int] = {}

    order: list[RT] = []
    # Kahn's algorithm on the reversed graph (process sinks first).
    remaining = {rt: len(successors[rt]) for rt in graph.rts}
    stack = [rt for rt, n in remaining.items() if n == 0]
    predecessors: dict[RT, list[Edge]] = {rt: [] for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        predecessors[edge.dst].append(edge)
    while stack:
        rt = stack.pop()
        order.append(rt)
        priority[rt] = max(
            (priority[e.dst] + e.delay for e in successors[rt]),
            default=rt.latency - 1,
        )
        for edge in predecessors[rt]:
            remaining[edge.src] -= 1
            if remaining[edge.src] == 0:
                stack.append(edge.src)
    if len(order) != len(graph.rts):
        raise SchedulingError(
            "dependence cycle among register transfers within one "
            "iteration (is a state read at delay 0?)"
        )
    return priority


def execution_intervals(
    graph: DependenceGraph, budget: int
) -> dict[RT, ExecutionInterval]:
    """ASAP/ALAP windows under ``budget``; raises if already infeasible."""
    if budget < 1:
        raise SchedulingError(f"cycle budget must be >= 1, got {budget}")
    order = _topological(graph)
    predecessors: dict[RT, list] = {rt: [] for rt in graph.rts}
    successors: dict[RT, list] = {rt: [] for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        predecessors[edge.dst].append(edge)
        successors[edge.src].append(edge)

    asap: dict[RT, int] = {}
    for rt in order:
        asap[rt] = max(
            (asap[e.src] + e.delay for e in predecessors[rt]), default=0
        )
    alap: dict[RT, int] = {}
    for rt in reversed(order):
        latest_finish = budget - max(rt.latency, rt.max_offset + 1)
        alap[rt] = min(
            (alap[e.dst] - e.delay for e in successors[rt]),
            default=latest_finish,
        )

    intervals: dict[RT, ExecutionInterval] = {}
    for rt in graph.rts:
        if asap[rt] > alap[rt]:
            raise SchedulingError(
                f"{rt!r} has an empty execution interval "
                f"[{asap[rt]}, {alap[rt]}] under budget {budget}: the "
                f"critical path does not fit"
            )
        intervals[rt] = ExecutionInterval(asap[rt], alap[rt])
    return intervals


def _topological(graph: DependenceGraph) -> list[RT]:
    indegree: dict[RT, int] = {rt: 0 for rt in graph.rts}
    successors: dict[RT, list] = {rt: [] for rt in graph.rts}
    for edge in graph.edges:
        if edge.distance != 0:
            continue
        indegree[edge.dst] += 1
        successors[edge.src].append(edge)
    stack = [rt for rt, n in indegree.items() if n == 0]
    order: list[RT] = []
    while stack:
        rt = stack.pop()
        order.append(rt)
        for edge in successors[rt]:
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                stack.append(edge.dst)
    if len(order) != len(graph.rts):
        raise SchedulingError("dependence cycle within one iteration")
    return order
