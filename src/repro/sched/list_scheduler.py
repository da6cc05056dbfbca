"""Cycle-budgeted priority list scheduling (paper, step 3 of figure 1b).

"The modifications insure that a scheduler only creates mcode
instructions by combining RTs that are physically possible and allowed
in the instruction set."  After RT modification the scheduler is a
*plain* resource-constrained list scheduler — it knows nothing about
instruction sets; it only respects the usage model.

Two priority regimes:

* **Critical path** (no budget): classic longest-path-to-sink order.
* **Deadline + resource criticality** (budget given): transfers are
  taken earliest-ALAP-first, but a transfer whose OPU has no slack left
  (remaining demand ≥ remaining cycles − margin) jumps the queue — a
  92%-occupied resource must almost never idle, which is exactly the
  regime of the paper's 63-of-64-cycle audio schedule.

With ``restarts > 0`` the scheduler re-runs over a small ladder of
margins and deterministic jitters and keeps the shortest result.  With
``minimize=True`` it then walks the budget down one cycle at a time
until scheduling fails, reporting the tightest feasible schedule (the
paper beats its 64-cycle budget by one).

Every attempt of one compile shares a :class:`_Plan`: the graph's
integer-indexed adjacency, the critical-path priorities (computed once
per compile) and each RT's reservation footprint as integer slot
offsets; the execution intervals are computed once per budget.  Within
a cycle the ready RTs that may issue are sorted once; after that only
the RTs that delay-0 edges made ready in the same cycle are sorted and
examined.  That is exact: bookings only grow within a cycle, so an RT
that did not fit stays unfit, and re-sorting the whole ready list would
change no decision.  ``tests/reference_list_scheduler.py`` keeps the
scheduler that did re-sort, and a property test holds the two to
identical schedules.
"""

from __future__ import annotations

import random
from collections import Counter

from ..errors import BudgetExceededError, SchedulingError
from ..obs import current_telemetry
from .dependence import DependenceGraph, compute_priorities
from .interval import execution_intervals
from .schedule import ReservationTable, Schedule


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
    plan = _Plan(graph)
    best = _best_for_budget(plan, budget, restarts, seed)
    if best is None:
        # Nothing met the budget: report how close the critical-path
        # heuristic gets.
        fallback = _run_critical_path(graph, None, plan)
        raise BudgetExceededError(fallback.length, budget)
    if budget is not None and minimize:
        obs = current_telemetry()
        while best.length > plan.resource_bound:
            obs.count("sched.list.tightenings")
            tighter = _best_for_budget(plan, best.length - 1, restarts, seed)
            if tighter is None:
                break
            best = tighter
        best.budget = budget
    if lifetime_compaction:
        with current_telemetry().span("schedule.compact"):
            best = compact_lifetimes(graph, best)
    return best


def _dense_ranks(keys: list) -> list[int]:
    """Rank of each key in sorted order; equal keys share a rank, so a
    stable sort by rank breaks ties exactly as a stable sort by key."""
    ranks = [0] * len(keys)
    rank = -1
    previous = None
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        if rank < 0 or keys[i] != previous:
            rank += 1
            previous = keys[i]
        ranks[i] = rank
    return ranks


class _Plan:
    """What every attempt on one graph shares.

    RTs are positions in ``graph.rts``.  A booking of ``resource`` at
    absolute cycle ``c`` is the integer slot ``c * width + id``; each
    RT's footprint holds ``(offset * width + id, usage id)`` per use, in
    the order of ``rt.uses``.
    """

    def __init__(self, graph: DependenceGraph):
        self.graph = graph
        rts = self.rts = graph.rts
        adjacency = graph.adjacency
        self.successors = adjacency.successors
        self.n_predecessors = [len(preds) for preds in adjacency.predecessors]
        priority = compute_priorities(graph)  # raises on a dependence cycle
        self.priority = [priority[rt] for rt in rts]
        resources: dict[str, int] = {}
        usages: dict[str, int] = {}
        opus: dict[str, int] = {}
        for rt in rts:
            for use in rt.uses:
                resources.setdefault(use.resource, len(resources))
                usages.setdefault(use.usage, len(usages))
        self.width = width = max(len(resources), 1)
        self.usage_names = list(usages)
        self.footprints = [
            tuple((use.offset * width + resources[use.resource],
                   usages[use.usage]) for use in rt.uses)
            for rt in rts
        ]
        self.spans = [max(rt.latency, rt.max_offset + 1) for rt in rts]
        self.opu = [opus.setdefault(rt.opu, len(opus)) for rt in rts]
        counts = Counter(self.opu)
        self.demand = [counts[k] for k in range(len(opus))]
        self.resource_bound = max(self.demand, default=1)
        self.critical_ranks = _dense_ranks([
            (-self.priority[i], -len(rt.uses), rt.uid)
            for i, rt in enumerate(rts)
        ])


def _best_for_budget(
    plan: _Plan, budget: int | None, restarts: int, seed: int
) -> Schedule | None:
    """Shortest schedule over the attempt ladder, or None if the budget
    is never met."""
    rng = random.Random(seed)
    attempts: list[Schedule] = []
    obs = current_telemetry()

    def attempt(run, *args, margin: int | None = None,
                jittered: bool = False) -> bool:
        with obs.span("schedule.attempt", budget=budget, margin=margin,
                      jittered=jittered) as span:
            schedule = run(*args)
            obs.count("sched.list.attempts")
            ok = schedule is not None and (
                budget is None or schedule.length <= budget)
            span.tag(ok=ok)
        if schedule is not None:
            attempts.append(schedule)
        return ok

    if budget is None:
        attempt(_run_critical_path, plan.graph, None, plan)
    else:
        try:
            # Raises SchedulingError when the budget is infeasible outright.
            alap = [interval.alap for interval in
                    execution_intervals(plan.graph, budget).values()]
            done = False
            for margin in (0, 1, 2):
                if attempt(_run_deadline, plan, budget, margin, alap,
                           margin=margin):
                    done = True
                    break
            if not done:
                attempt(_run_critical_path, plan.graph, budget, plan)
            if not done:
                for restart in range(restarts):
                    jitter = [rng.random() * 0.9 for _ in plan.rts]
                    if attempt(_run_deadline, plan, budget, restart % 3, alap,
                               jitter, margin=restart % 3, jittered=True):
                        break
        except SchedulingError:
            return None
    if not attempts:
        return None
    best = min(attempts, key=lambda s: s.length)
    if budget is not None and best.length > budget:
        return None
    best.budget = budget
    return best


def _scheduler_loop(
    plan: _Plan,
    ranks: list[int],
    horizon: int,
    deadline: list[int] | None = None,
    budget: int = 0,
    margin: int = 0,
) -> Schedule | None:
    """The shared cycle-by-cycle greedy core of both regimes.

    RTs issue in ascending ``ranks``.  With a ``deadline`` (the
    budgeted regime) an RT whose OPU has no slack left (remaining demand
    >= ``budget`` - cycle - ``margin``) goes before every other, and an
    RT still unplaced past its deadline fails the attempt.
    """
    n = len(plan.rts)
    successors = plan.successors
    footprints = plan.footprints
    spans = plan.spans
    opu = plan.opu
    width = plan.width
    pending = list(plan.n_predecessors)
    demand = list(plan.demand)
    earliest = [0] * n
    cycle_of = [-1] * n
    placed: list[int] = []
    ready = [i for i in range(n) if pending[i] == 0]
    booked: dict[int, int] = {}
    length = 0
    checks = 0
    for cycle in range(horizon + 1):
        if len(placed) == n:
            break
        base = cycle * width
        threshold = budget - cycle - margin
        batch = [i for i in ready if earliest[i] <= cycle]
        progress = False
        while batch:
            if deadline is None:
                batch.sort(key=ranks.__getitem__)
            else:
                batch.sort(key=lambda i: ranks[i] if demand[opu[i]] >= threshold
                           else ranks[i] + n)
            fresh: list[int] = []
            for i in batch:
                if deadline is not None and cycle > deadline[i]:
                    current_telemetry().count("sched.list.fit_checks", checks)
                    return None
                checks += 1
                for offset, usage in footprints[i]:
                    held = booked.get(base + offset)
                    if held is not None and held != usage:
                        break
                else:
                    _book(plan, booked, i, cycle)
                    cycle_of[i] = cycle
                    placed.append(i)
                    length = max(length, cycle + spans[i])
                    demand[opu[i]] -= 1
                    for dst, delay in successors[i]:
                        pending[dst] -= 1
                        if cycle + delay > earliest[dst]:
                            earliest[dst] = cycle + delay
                        if pending[dst] == 0:
                            ready.append(dst)
                            if earliest[dst] <= cycle:
                                fresh.append(dst)
                    progress = True
            batch = fresh
        if progress:
            ready = [i for i in ready if cycle_of[i] < 0]
    current_telemetry().count("sched.list.fit_checks", checks)
    if len(placed) != n:
        return None
    rts = plan.rts
    return Schedule(cycle_of={rts[i]: cycle_of[i] for i in placed},
                    length=length)


def _book(plan: _Plan, booked: dict[int, int], i: int, cycle: int) -> None:
    """Book RT ``i`` at ``cycle``.  The fit check compares the footprint
    with earlier bookings only, so an RT whose own uses clash is caught
    here, as :meth:`ReservationTable.place` would."""
    base = cycle * plan.width
    for k, (offset, usage) in enumerate(plan.footprints[i]):
        held = booked.get(base + offset)
        if held is not None and held != usage:
            use = plan.rts[i].uses[k]
            raise SchedulingError(
                f"resource conflict placing {plan.rts[i]!r} at cycle {cycle}: "
                f"{use.resource} already used as {plan.usage_names[held]!r}, "
                f"needs {use.usage!r}"
            )
        booked[base + offset] = usage


def _run_critical_path(
    graph: DependenceGraph, budget: int | None, plan: _Plan | None = None
) -> Schedule:
    """Critical-path order, no deadline (``budget`` does not bound it)."""
    if plan is None:
        plan = _Plan(graph)
    horizon = sum(max(1, rt.latency) for rt in graph.rts) + 1
    schedule = _scheduler_loop(plan, plan.critical_ranks, horizon)
    if schedule is None:
        raise SchedulingError(
            "list scheduler exceeded its horizon; the conflict model is "
            "unsatisfiable"
        )
    return schedule


def _run_deadline(
    plan: _Plan,
    budget: int,
    margin: int,
    alap: list[int],
    jitter: list[float] | None = None,
) -> Schedule | None:
    """Earliest-ALAP-first, resource-critical RTs first, ALAP deadlines."""
    rts = plan.rts
    keys = [
        (alap[i] + (jitter[i] if jitter else 0), -plan.priority[i], rt.uid)
        for i, rt in enumerate(rts)
    ]
    return _scheduler_loop(plan, _dense_ranks(keys), budget - 1, alap,
                           budget, margin)


def compact_lifetimes(graph: DependenceGraph, schedule: Schedule) -> Schedule:
    """Push every RT as late as possible without changing the length.

    Walking the transfers in decreasing issue cycle, each is moved to
    the latest conflict-free cycle that still satisfies its outgoing
    dependences.  Producers drift towards their consumers, shortening
    register lifetimes — important for the small distributed register
    files of the paper's cores.
    """
    adjacency = graph.adjacency
    rts = graph.rts

    cycle_of = dict(schedule.cycle_of)
    table = ReservationTable()
    for rt, cycle in cycle_of.items():
        table.place(rt, cycle)

    for rt in sorted(cycle_of, key=lambda r: -cycle_of[r]):
        latest = schedule.length - max(rt.latency, rt.max_offset + 1)
        for dst, delay in adjacency.successors[adjacency.index[rt]]:
            latest = min(latest, cycle_of[rts[dst]] - delay)
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
