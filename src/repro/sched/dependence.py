"""Dependence analysis over register transfers.

Edges constrain issue cycles: ``cycle(dst) >= cycle(src) + delay``
(within one iteration; the ``distance`` field marks loop-carried edges
used only by the folding scheduler, where the constraint becomes
``cycle(dst) >= cycle(src) + delay - II * distance``).

Edge kinds
----------
* **RAW** — a value read must have been produced: delay = producer
  latency.
* **WAR (loop carry)** — the next iteration's incarnation of a pinned
  register (e.g. the frame pointer) may be written in the same cycle as
  the last read, but not earlier: delay = 0.  Register files read at
  the start of a cycle and are written at its end.
* **MEM** — conservative ordering of RAM transfers touching the same
  symbolic location (write→read and write→write: delay 1; read→write:
  delay 0).  The frame-interleaved delay-line layout guarantees
  distinct locations within one iteration, so real programs generate
  none of these — the edges exist for safety and for tests.
* **CARRY (distance 1)** — producer of a loop-carried value feeds its
  readers in the *next* iteration; only the folding scheduler uses
  these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import SchedulingError
from ..rtgen.program import RTProgram
from ..rtgen.rt import RT


class EdgeKind(enum.Enum):
    RAW = "raw"
    WAR = "war"
    MEM = "mem"
    CARRY = "carry"


@dataclass(frozen=True)
class Edge:
    src: RT
    dst: RT
    delay: int
    kind: EdgeKind
    distance: int = 0


class Adjacency:
    """The distance-0 edges of a :class:`DependenceGraph`, integer-indexed.

    ``index`` maps each RT to its position in ``graph.rts``;
    ``successors[i]``/``predecessors[i]`` hold ``(other, delay)`` pairs
    in edge order; ``order`` is a topological order of the positions, or
    None when the block body has a dependence cycle (each analysis
    raises its own error then).
    """

    __slots__ = ("index", "successors", "predecessors", "order")

    def __init__(self, graph: "DependenceGraph"):
        self.index: dict[RT, int] = {rt: i for i, rt in enumerate(graph.rts)}
        n = len(graph.rts)
        self.successors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        self.predecessors: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for edge in graph.edges:
            if edge.distance != 0:
                continue
            src, dst = self.index[edge.src], self.index[edge.dst]
            self.successors[src].append((dst, edge.delay))
            self.predecessors[dst].append((src, edge.delay))
        indegree = [len(preds) for preds in self.predecessors]
        stack = [i for i in range(n) if indegree[i] == 0]
        order: list[int] = []
        while stack:
            i = stack.pop()
            order.append(i)
            for dst, _ in self.successors[i]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    stack.append(dst)
        self.order: list[int] | None = order if len(order) == n else None


@dataclass
class DependenceGraph:
    rts: list[RT]
    edges: list[Edge]

    @cached_property
    def adjacency(self) -> Adjacency:
        """The shared integer-indexed adjacency, built on first use.

        Graphs are not mutated after construction.  The index is left
        out of pickles and copies (the stage cache stores graphs), and
        rebuilt on first use after a restore."""
        return Adjacency(self)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("adjacency", None)
        return state


def build_dependence_graph(program: RTProgram,
                           rts: list[RT] | None = None) -> DependenceGraph:
    """Analyse ``rts`` (default: the program's own transfer list).

    Passing modified RTs (after instruction-set imposition / merging)
    is the normal flow — the value and memory annotations survive the
    rewriting, so the analysis is identical.
    """
    if rts is None:
        rts = program.rts
    edges: list[Edge] = []

    producers: dict[int, RT] = {}
    for rt in rts:
        for dest in rt.destinations:
            producers.setdefault(dest.value, rt)

    live_ins = program.live_in_values()
    carry_new = program.loop_new_values()

    # RAW: value producers feed readers.
    readers: dict[int, list[RT]] = {}
    for rt in rts:
        for value in rt.read_values:
            readers.setdefault(value, []).append(rt)
            producer = producers.get(value)
            if producer is not None and producer is not rt:
                edges.append(Edge(producer, rt, producer.latency, EdgeKind.RAW))

    # WAR on loop-carried registers: the new incarnation must not be
    # written before the old one's last read.
    for carry in program.loop_carries:
        writer = producers.get(carry.new)
        if writer is None:
            continue
        for reader in readers.get(carry.old, []):
            if reader is not writer:
                edges.append(Edge(reader, writer, 0, EdgeKind.WAR))
        # CARRY (distance 1): this iteration's writer feeds next
        # iteration's readers — used by the folding scheduler only.
        for reader in readers.get(carry.old, []):
            if reader is not writer:
                edges.append(
                    Edge(writer, reader, writer.latency, EdgeKind.CARRY, distance=1)
                )

    # MEM: program order per symbolic location.
    last_write: dict[str, RT] = {}
    last_reads: dict[str, list[RT]] = {}
    for rt in rts:
        location = rt.memory_location
        if location is None:
            continue
        if rt.memory_effect == "read":
            writer = last_write.get(location)
            if writer is not None:
                edges.append(Edge(writer, rt, 1, EdgeKind.MEM))
            last_reads.setdefault(location, []).append(rt)
        elif rt.memory_effect == "write":
            writer = last_write.get(location)
            if writer is not None:
                edges.append(Edge(writer, rt, 1, EdgeKind.MEM))
            for reader in last_reads.get(location, []):
                edges.append(Edge(reader, rt, 0, EdgeKind.MEM))
            last_reads[location] = []
            last_write[location] = rt

    _ = live_ins, carry_new  # documented above; kept for readability
    return DependenceGraph(rts=list(rts), edges=edges)


def compute_priorities(graph: DependenceGraph) -> dict[RT, int]:
    """Longest path (in cycles) from each RT to any sink.

    The classic list-scheduling priority: transfers on the critical
    path first.  Computed over distance-0 edges (the block body).
    """
    adjacency = graph.adjacency
    if adjacency.order is None:
        raise SchedulingError(
            "dependence cycle among register transfers within one "
            "iteration (is a state read at delay 0?)"
        )
    priority = [0] * len(graph.rts)
    for i in reversed(adjacency.order):
        priority[i] = max(
            (priority[dst] + delay for dst, delay in adjacency.successors[i]),
            default=graph.rts[i].latency - 1,
        )
    return dict(zip(graph.rts, priority))
