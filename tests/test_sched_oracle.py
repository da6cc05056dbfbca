"""Differential properties that tie the fast schedulers to slow oracles.

* The list scheduler sorts the ready RTs once per cycle and computes its
  graph analyses once per compile.  ``reference_list_scheduler`` is the
  scheduler that re-sorted every pass and re-analysed every attempt;
  both must take exactly the same decisions: the same ``cycle_of`` (in
  the same order), length and budget, the same ``sched.list.attempts``
  and ``sched.list.tightenings`` counts, and the same exception.
* The modulo scheduler either returns a schedule that validates or
  reports that no II was found; it never fails its own validation.

``REPRO_ORACLE_EXAMPLES`` (default 25) sets the hypothesis example
count, so CI can run the properties wider than tier-1 does.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Toolchain
from repro.apps import audio_application, audio_io_binding, stress_application
from repro.arch import list_cores
from repro.errors import ReproError, SchedulingError
from repro.gen import GenSpec, generate_dfg
from repro.obs import Telemetry, use_telemetry
from repro.sched import (
    DependenceGraph,
    Edge,
    EdgeKind,
    build_dependence_graph,
    compute_priorities,
    list_schedule,
    modulo_schedule,
)

from reference_list_scheduler import list_schedule as reference_list_schedule

EXAMPLES = int(os.environ.get("REPRO_ORACLE_EXAMPLES", "25"))

SPECS = (GenSpec(), GenSpec(min_ops=14, max_ops=40))

cores = st.sampled_from(list_cores())
generated = st.tuples(st.just("gen"), cores, st.sampled_from(range(len(SPECS))),
                      st.integers(min_value=0, max_value=10**6))
stressed = st.tuples(st.just("stress"), cores, st.integers(min_value=1, max_value=8),
                     st.integers(min_value=0, max_value=10**6))


def imposed_graph(case):
    """Dependence graph of the case's imposed RTs, or None when the core
    cannot route the application."""
    kind, core, size, seed = case
    if kind == "gen":
        dfg = generate_dfg(SPECS[size], seed, core=core)
    else:
        dfg = stress_application(size, seed=seed)
    toolchain = Toolchain(core, cache=None, opt=0, stop_after="impose")
    try:
        state = toolchain.run_pipeline(dfg)
    except ReproError:
        return None
    return build_dependence_graph(state.artifacts["program"])


def budgets(graph):
    """None, the resource bound, the bound + 16, and one cycle below the
    critical path (infeasible)."""
    opu_counts: dict[str, int] = {}
    for rt in graph.rts:
        opu_counts[rt.opu] = opu_counts.get(rt.opu, 0) + 1
    bound = max(opu_counts.values(), default=1)
    critical_path = max(compute_priorities(graph).values(), default=0) + 1
    return (None, bound, bound + 16, critical_path - 1)


def outcome(schedule_fn, graph, budget, restarts, seed):
    obs = Telemetry()
    with use_telemetry(obs):
        try:
            schedule = schedule_fn(graph, budget=budget, restarts=restarts,
                                   seed=seed)
            result = ("ok", list(schedule.cycle_of.items()), schedule.length,
                      schedule.budget)
        except Exception as exc:  # the exception itself is compared
            result = ("raised", type(exc), str(exc))
    counts = (obs.counters["sched.list.attempts"],
              obs.counters["sched.list.tightenings"])
    return result, counts


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=st.one_of(generated, stressed), seed=st.integers(min_value=0, max_value=7))
def test_list_scheduler_matches_reference(case, seed):
    graph = imposed_graph(case)
    if graph is None:
        return
    for budget in budgets(graph):
        for restarts in (0, 8):
            fast = outcome(list_schedule, graph, budget, restarts, seed)
            slow = outcome(reference_list_schedule, graph, budget, restarts, seed)
            assert fast == slow, (case, seed, budget, restarts)


def audio_graph():
    """The section-7 audio program's imposed RTs at -O0."""
    toolchain = Toolchain("audio", cache=None, opt=0, stop_after="impose")
    state = toolchain.run_pipeline(audio_application(),
                                   io_binding=audio_io_binding())
    return build_dependence_graph(state.artifacts["program"])


def test_reference_agrees_on_the_audio_program():
    """The paper's 63-of-64-cycle schedule, decision for decision."""
    graph = audio_graph()
    for budget in (64, None):
        assert (outcome(list_schedule, graph, budget, 8, 0)
                == outcome(reference_list_schedule, graph, budget, 8, 0))


@settings(max_examples=EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(case=st.one_of(generated, stressed))
def test_modulo_schedule_validates_or_reports_no_ii(case):
    graph = imposed_graph(case)
    if graph is None:
        return
    try:
        folded = modulo_schedule(graph)
    except SchedulingError as exc:
        assert str(exc).startswith("no modulo schedule found"), str(exc)
        return
    folded.validate(graph)


def test_cyclic_block_raises_the_same_error():
    graph = imposed_graph(("gen", "fir", 0, 1))
    a, b = graph.rts[0], graph.rts[1]
    cyclic = DependenceGraph(rts=graph.rts, edges=graph.edges + [
        Edge(a, b, 0, EdgeKind.MEM), Edge(b, a, 0, EdgeKind.MEM)])
    for budget in (None, 40):
        fast = outcome(list_schedule, cyclic, budget, 8, 0)
        assert fast == outcome(reference_list_schedule, cyclic, budget, 8, 0)
        assert fast[0][1] is SchedulingError


@pytest.mark.parametrize("budget", [0, 1])
def test_degenerate_budgets_match(budget):
    graph = imposed_graph(("stress", "audio", 1, 0))
    assert (outcome(list_schedule, graph, budget, 8, 0)
            == outcome(reference_list_schedule, graph, budget, 8, 0))


#: Reservation-table probes of the audio compile at budget 64 (-O0) once
#: each cycle sorts its ready RTs once.  A change that brings back a
#: re-scan of the ready list shows here as a count, not as a timing.
AUDIO_FIT_CHECKS = 27736


def test_fit_checks_on_the_audio_program_stay_pinned():
    obs = Telemetry()
    compiled = Toolchain("audio", cache=None, opt=0, budget=64,
                         telemetry=obs).compile(audio_application(),
                                                io_binding=audio_io_binding())
    assert compiled.n_cycles == 63
    assert obs.counters["sched.list.attempts"] == 7
    assert obs.counters["sched.list.tightenings"] == 2
    assert 0 < obs.counters["sched.list.fit_checks"] <= AUDIO_FIT_CHECKS
    attempts = obs.spans("schedule.attempt")
    assert len(attempts) == 7
    assert [span.tags["ok"] for span in attempts].count(True) == 2
    assert len(obs.spans("schedule.dependence")) == 1
    assert len(obs.spans("schedule.compact")) == 1
