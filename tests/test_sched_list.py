"""Tests for dependence analysis and the list scheduler."""

import pickle

import pytest

from repro.arch import audio_core
from repro.core import ClassTable, InstructionSet, impose_instruction_set
from repro.errors import BudgetExceededError
from repro.lang import parse_source
from repro.rtgen import generate_rts
from repro.sched import (
    EdgeKind,
    allocate_registers,
    build_dependence_graph,
    compute_priorities,
    list_schedule,
    vertical_schedule,
)

TREBLE = """
app treble;
param d1 = 0.40, d2 = -0.20, e1 = 0.30;
input IN; output out;
state u(2), v(2);
loop {
  u  = IN;
  x0 := u@2;
  m  := mlt(d2, x0);
  a  := pass(m);
  x2 := v@1;
  m  := mlt(e1, x2);
  a  := add(m, a);
  x1 := u@1;
  m  := mlt(d1, x1);
  rd := add_clip(m, a);
  v  = rd;
  out = rd;
}
"""


def treble_setup(impose=True):
    core = audio_core()
    program = generate_rts(parse_source(TREBLE), core)
    if impose:
        table = ClassTable.from_core(core)
        iset = InstructionSet.from_desired(table.names, core.instruction_types)
        model = impose_instruction_set(program.rts, table, iset)
        program.rts = model.rts
    graph = build_dependence_graph(program)
    return core, program, graph


class TestDependence:
    def test_raw_edges_connect_producers_to_readers(self):
        _, program, graph = treble_setup(impose=False)
        for edge in graph.edges:
            if edge.kind is EdgeKind.RAW:
                produced = {d.value for d in edge.src.destinations}
                assert produced & set(edge.dst.read_values)

    def test_war_edges_point_at_fp_advance(self):
        _, program, graph = treble_setup(impose=False)
        carry = program.loop_carries[0]
        producers = program.producers()
        writer = producers[carry.new]
        war = [e for e in graph.edges if e.kind is EdgeKind.WAR]
        assert war, "frame pointer must generate WAR edges"
        assert all(e.dst is writer for e in war)
        assert all(e.delay == 0 for e in war)

    def test_carry_edges_have_distance_one(self):
        _, program, graph = treble_setup(impose=False)
        carries = [e for e in graph.edges if e.kind is EdgeKind.CARRY]
        assert carries
        assert all(e.distance == 1 for e in carries)

    def test_adjacency_indexes_distance_zero_edges(self):
        _, _, graph = treble_setup(impose=False)
        adjacency = graph.adjacency
        expected = sorted(
            (adjacency.index[e.src], adjacency.index[e.dst], e.delay)
            for e in graph.edges if e.distance == 0)
        assert sorted((src, dst, delay)
                      for src, successors in enumerate(adjacency.successors)
                      for dst, delay in successors) == expected
        position = {i: k for k, i in enumerate(adjacency.order)}
        assert all(position[src] < position[dst] for src, dst, _ in expected)

    def test_adjacency_stays_out_of_pickles(self):
        # The stage cache pickles dependence graphs; the index is
        # rebuilt on demand rather than stored.
        _, _, graph = treble_setup()
        size = len(pickle.dumps(graph))
        built = graph.adjacency
        assert len(pickle.dumps(graph)) == size
        restored = pickle.loads(pickle.dumps(graph))
        assert restored.adjacency.order == built.order

    def test_priorities_decrease_along_edges(self):
        _, _, graph = treble_setup(impose=False)
        priority = compute_priorities(graph)
        for edge in graph.edges:
            if edge.distance == 0:
                assert priority[edge.src] >= priority[edge.dst] + edge.delay


class TestListScheduler:
    def test_treble_schedules_and_validates(self):
        _, _, graph = treble_setup()
        schedule = list_schedule(graph, budget=64)
        schedule.validate(graph)
        assert schedule.length <= 64

    def test_schedule_without_budget(self):
        _, _, graph = treble_setup()
        schedule = list_schedule(graph)
        schedule.validate(graph)

    def test_budget_too_tight_raises(self):
        _, _, graph = treble_setup()
        with pytest.raises(BudgetExceededError) as info:
            list_schedule(graph, budget=3)
        assert info.value.achieved > 3
        assert info.value.budget == 3

    def test_io_exclusivity_is_respected(self):
        # The ABC artificial resource keeps IPB/OPB transfers in
        # different cycles even though they share no physical resource.
        _, program, graph = treble_setup()
        schedule = list_schedule(graph, budget=64)
        io_cycles = [
            cycle for rt, cycle in schedule.cycle_of.items()
            if rt.opu in ("ipb", "opb_1", "opb_2")
        ]
        assert len(io_cycles) == len(set(io_cycles)) == 2

    def test_without_imposition_io_may_share_a_cycle(self):
        # Sanity check of the mechanism: removing the artificial
        # resource admits (physically parallel) IO combinations.
        source = """
        app io2;
        input i;
        output o0, o1;
        loop {
          a := pass_clip(i);
          b := pass(a);
          o0 = a;
          o1 = b;
        }
        """
        core = audio_core()
        program = generate_rts(parse_source(source), core)
        graph = build_dependence_graph(program)
        schedule = list_schedule(graph)
        cycles = {
            rt.opu: cycle for rt, cycle in schedule.cycle_of.items()
            if rt.opu.startswith("opb")
        }
        assert cycles["opb_1"] == cycles["opb_2"]

    def test_compaction_moves_producers_towards_consumers(self):
        _, program, graph = treble_setup()
        eager = list_schedule(graph, budget=64, lifetime_compaction=False)
        compact = list_schedule(graph, budget=64, lifetime_compaction=True)
        assert compact.length == eager.length
        compact.validate(graph)

        def total_lifetime(schedule):
            from repro.sched import compute_intervals
            intervals = compute_intervals(program, schedule)
            return sum(
                i.death - i.birth
                for per_rf in intervals.values() for i in per_rf
            )

        assert total_lifetime(compact) <= total_lifetime(eager)

    def test_restarts_never_worse(self):
        _, _, graph = treble_setup()
        base = list_schedule(graph)
        retried = list_schedule(graph, restarts=3, seed=7)
        assert retried.length <= base.length

    def test_register_allocation_fits_audio_core(self):
        _, program, graph = treble_setup()
        schedule = list_schedule(graph, budget=64)
        allocation = allocate_registers(program, schedule)
        datapath = program.core.datapath
        for rf_name, needed in allocation.pressure.items():
            assert needed <= datapath.register_file(rf_name).size

    def test_allocation_keeps_simultaneous_values_apart(self):
        _, program, graph = treble_setup()
        schedule = list_schedule(graph, budget=64)
        allocation = allocate_registers(program, schedule)
        for rf_name, intervals in allocation.intervals.items():
            for i, a in enumerate(intervals):
                for b in intervals[i + 1:]:
                    if allocation.lookup(rf_name, a.value) != allocation.lookup(
                        rf_name, b.value
                    ):
                        continue
                    # Same register: lifetimes must not overlap (a point
                    # shared between death and birth is fine).
                    assert a.death <= b.birth or b.death <= a.birth

    def test_frame_pointer_pinned(self):
        _, program, graph = treble_setup()
        schedule = list_schedule(graph, budget=64)
        allocation = allocate_registers(program, schedule)
        carry = program.loop_carries[0]
        assert allocation.lookup(carry.register_file, carry.old) == carry.register
        assert allocation.lookup(carry.register_file, carry.new) == carry.register


class TestVerticalBaseline:
    def test_vertical_is_one_rt_per_cycle(self):
        _, _, graph = treble_setup()
        schedule = vertical_schedule(graph)
        schedule.validate(graph)
        per_cycle = {}
        for rt, cycle in schedule.cycle_of.items():
            per_cycle.setdefault(cycle, []).append(rt)
        assert all(len(v) == 1 for v in per_cycle.values())

    def test_vertical_much_longer_than_vliw(self):
        _, _, graph = treble_setup()
        vliw = list_schedule(graph)
        vertical = vertical_schedule(graph)
        assert vertical.length >= len(graph.rts)
        assert vertical.length > 2 * vliw.length
