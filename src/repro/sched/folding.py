"""Time-loop folding by iterative modulo scheduling (paper, section 7:
"This could be reduced a few cycles if the time-loop could be folded
which is not supported by the current system").

Folding overlaps consecutive time-loop iterations: the block repeats
every *initiation interval* (II) cycles, with resource bookings taken
modulo II.  The lower bound on II is

* **ResMII** — the busiest resource's operation count, and
* **RecMII** — the longest loop-carried dependence cycle (distance-1
  CARRY edges back into the block).

The scheduler below is a compact iterative modulo scheduler (Rau-style)
sufficient to demonstrate the paper's "a few cycles" claim; it reports
the achieved II next to the unfolded schedule length.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass

from ..errors import SchedulingError
from ..rtgen.rt import RT
from .dependence import DependenceGraph, compute_priorities


@dataclass
class FoldedSchedule:
    """A modulo schedule: issue cycles plus the initiation interval."""

    cycle_of: dict[RT, int]
    initiation_interval: int
    length: int                     # span of one iteration's issue slots

    def validate(self, graph: DependenceGraph) -> None:
        ii = self.initiation_interval
        slots: dict[tuple[str, int], str] = {}
        for rt, cycle in self.cycle_of.items():
            for use in rt.uses:
                key = (use.resource, (cycle + use.offset) % ii)
                existing = slots.get(key)
                if existing is not None and existing != use.usage:
                    raise SchedulingError(
                        f"modulo resource conflict on {use.resource}"
                    )
                slots[key] = use.usage
        for edge in graph.edges:
            src = self.cycle_of[edge.src]
            dst = self.cycle_of[edge.dst]
            if dst < src + edge.delay - ii * edge.distance:
                raise SchedulingError(
                    f"modulo dependence violated: {edge.dst!r} at {dst} "
                    f"before {edge.src!r} + {edge.delay} - {ii}*{edge.distance}"
                )


def resource_mii(rts: list[RT]) -> int:
    """Resource-constrained lower bound: the busiest exclusive resource.

    Counts distinct (resource, usage-instance) bookings; same-usage
    sharing cannot happen twice in one modulo slot for *different*
    transfers of the kinds our generator emits (every result has its
    own bus value), so the per-OPU transfer count is the bound.
    """
    counts: dict[str, int] = {}
    for rt in rts:
        counts[rt.opu] = counts.get(rt.opu, 0) + 1
    return max(counts.values(), default=1)


def recurrence_mii(graph: DependenceGraph) -> int:
    """Recurrence lower bound from loop-carried cycles.

    For every elementary cycle through distance-1 edges, II must be at
    least (sum of delays) / (sum of distances).  Our generator emits
    simple carrier cycles (reader -> writer -> next-iteration reader);
    a longest-path sweep per carry edge suffices.
    """
    adjacency = graph.adjacency
    longest_to: dict[int, dict[int, int]] = {}

    def longest_paths(src: int) -> dict[int, int]:
        if src in longest_to:
            return longest_to[src]
        distances: dict[int, int] = {src: 0}
        order = [src]
        index = 0
        while index < len(order):
            i = order[index]
            index += 1
            for dst, delay in adjacency.successors[i]:
                candidate = distances[i] + delay
                if candidate > distances.get(dst, -1):
                    distances[dst] = candidate
                    order.append(dst)
        longest_to[src] = distances
        return distances

    best = 1
    for edge in graph.edges:
        if edge.distance != 1:
            continue
        distances = longest_paths(adjacency.index[edge.dst])
        src = adjacency.index[edge.src]
        if src in distances:
            cycle_delay = distances[src] + edge.delay
            best = max(best, cycle_delay)  # distance sum is 1
    return best


def modulo_schedule(
    graph: DependenceGraph,
    max_ii: int | None = None,
    budget_hint: int | None = None,
) -> FoldedSchedule:
    """Find the smallest II the iterative modulo scheduler achieves."""
    lower = max(resource_mii(graph.rts), recurrence_mii(graph))
    upper = max_ii if max_ii is not None else (
        budget_hint if budget_hint is not None else lower + len(graph.rts)
    )
    priority = compute_priorities(graph)
    for ii in range(lower, upper + 1):
        folded = _try_ii(graph, ii, priority)
        if folded is not None:
            folded.validate(graph)
            return folded
    raise SchedulingError(
        f"no modulo schedule found with II <= {upper} (lower bound {lower})"
    )


def _try_ii(graph: DependenceGraph, ii: int,
            priority: dict[RT, int]) -> FoldedSchedule | None:
    adjacency = graph.adjacency
    rts = graph.rts

    order = sorted(graph.rts, key=lambda rt: (-priority[rt], rt.uid))
    slots: dict[tuple[str, int], tuple[str, int]] = {}
    cycle_of: dict[RT, int] = {}
    # (resource, slot mod II) -> placed RTs booking it, each mapped to
    # its placement sequence number (cycle_of's insertion order).
    owners: dict[tuple[str, int], dict[RT, int]] = {}
    sequence = itertools.count()

    def fits(rt: RT, cycle: int) -> bool:
        for use in rt.uses:
            key = (use.resource, (cycle + use.offset) % ii)
            existing = slots.get(key)
            if existing is not None and (
                existing[0] != use.usage or existing[1] != cycle + use.offset
            ):
                # Same usage only shares within the same absolute cycle;
                # iterations are distinct instances.
                return False
        return True

    def place(rt: RT, cycle: int) -> None:
        placed = next(sequence)
        for use in rt.uses:
            key = (use.resource, (cycle + use.offset) % ii)
            slots[key] = (use.usage, cycle + use.offset)
            owners.setdefault(key, {})[rt] = placed
        cycle_of[rt] = cycle

    def unplace(rt: RT) -> None:
        cycle = cycle_of.pop(rt)
        for use in rt.uses:
            key = (use.resource, (cycle + use.offset) % ii)
            slots.pop(key, None)
            owners[key].pop(rt, None)

    max_attempts = len(graph.rts) * 16
    attempts = 0
    pending = collections.deque(order)
    while pending:
        attempts += 1
        if attempts > max_attempts:
            return None
        rt = pending.popleft()
        index = adjacency.index[rt]
        earliest = max(
            (cycle_of[rts[src]] + delay
             for src, delay in adjacency.predecessors[index]
             if rts[src] in cycle_of),
            default=0,
        )
        placed = False
        for cycle in range(earliest, earliest + ii):
            if fits(rt, cycle):
                place(rt, cycle)
                placed = True
                break
        if not placed:
            # Evict every transfer booking a slot this one needs
            # (iterative modulo scheduling), oldest placement first.
            cycle = earliest
            victims: dict[RT, int] = {}
            for use in rt.uses:
                victims.update(
                    owners.get((use.resource, (cycle + use.offset) % ii), {}))
            if not victims:
                return None
            for victim in sorted(victims, key=victims.__getitem__):
                unplace(victim)
                pending.append(victim)
            place(rt, cycle)
        # Dependents placed earlier than allowed must be re-scheduled.
        for dst, delay in adjacency.successors[index]:
            successor = rts[dst]
            if successor in cycle_of and cycle_of[successor] < cycle_of[rt] + delay:
                unplace(successor)
                pending.append(successor)
    # Check distance-1 edges; if violated, fail this II.
    for edge in graph.edges:
        if edge.distance == 1:
            if cycle_of[edge.dst] < cycle_of[edge.src] + edge.delay - ii:
                return None
    length = max(
        cycle + max(rt.latency, rt.max_offset + 1)
        for rt, cycle in cycle_of.items()
    )
    return FoldedSchedule(cycle_of=cycle_of, initiation_interval=ii, length=length)
