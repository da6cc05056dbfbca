"""Experiment sec8-folding: time-loop folding.

Paper (section 7): "The total application is scheduled in 63 cycles.
This could be reduced a few cycles if the time-loop could be folded
which is not supported by the current system."

Our folding extension (iterative modulo scheduling over the same
conflict-modelled RTs) quantifies that remark: the initiation interval
must come out below 63 but not below the 59-cycle ACU resource bound.
The saving is an estimate: the folded schedule passes
``FoldedSchedule.validate``, but no folded code is emitted or run.
"""

from __future__ import annotations

from conftest import imposed_graph

from repro.sched import list_schedule, modulo_schedule, resource_mii

UNFOLDED_CYCLES = 63


def test_bench_folding(benchmark):
    program, graph, _ = imposed_graph()
    unfolded = list_schedule(graph, budget=64)
    assert unfolded.length == UNFOLDED_CYCLES

    folded = benchmark(lambda: modulo_schedule(graph, budget_hint=UNFOLDED_CYCLES))
    folded.validate(graph)

    bound = resource_mii(graph.rts)
    assert bound == 59      # the ACU: 58 accesses + the pointer advance
    assert folded.initiation_interval < UNFOLDED_CYCLES
    assert folded.initiation_interval >= bound
    saved = UNFOLDED_CYCLES - folded.initiation_interval
    print(f"\nsec8-folding: unfolded {UNFOLDED_CYCLES} cycles, folded II "
          f"{folded.initiation_interval} (resource bound {bound}) — "
          f"an estimated {saved} cycle(s) saved, the paper's 'a few cycles' "
          f"(checked by the modulo-schedule validator only, never executed)")
