"""The benchmark's own tests: tiny runs through the real command.

Each run is a subprocess, as the benchmark is meant to be driven: the
command isolates its writes and bytecode by mutating process-wide
state, which a test process must not inherit.  Only the span-tree test
installs the tracer in this process, and it puts back what it replaced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.inputs import input_set
from perfbench.layers import PER_LAYER, Tracer
from perfbench.metrics import END_TO_END
from perfbench.workloads import NEEDS_NUMPY, WORKLOADS
from repro import Telemetry, Toolchain, use_telemetry
from repro.sim import NUMPY_AVAILABLE

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

needs_numpy = pytest.mark.skipif(not NUMPY_AVAILABLE,
                                 reason="the benchmark needs numpy")


def each_workload():
    """Every workload, those that need numpy skipped without it."""
    return [pytest.param(name, marks=needs_numpy) if name in NEEDS_NUMPY
            else name for name in WORKLOADS]


def run(*arguments: str, cwd: Path = ROOT, code: str | None = None):
    command = [sys.executable]
    command += ["-c", code] if code is not None \
        else [str(cwd / "perfbench" / "run.py")]
    done = subprocess.run(command + list(arguments), cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    return done, lines


def tiny(workload: str, trace: int, code: str | None = None):
    return run("--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--size", "tiny", "--trace", str(trace), code=code)


def test_benchmark_json_names_what_the_command_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == PER_LAYER


@pytest.fixture(scope="module")
def untraced():
    """One ``--workload all`` run, split into each workload's lines."""
    if not NUMPY_AVAILABLE:
        pytest.skip("--workload all runs compile-run, which needs numpy")
    done, lines = tiny("all", 0)
    assert done.returncode == 0, done.stdout + done.stderr
    blocks: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("perfbench "):
            current = blocks.setdefault(line.split()[1].rstrip(":"), [])
        current.append(line)
    return blocks


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_carry_unit_and_sample_count(untraced, workload):
    lines = untraced[workload]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == END_TO_END
    for name, unit in END_TO_END.items():
        value = result["metrics"][name]["value"]
        assert value > 0, name
        # The printed line states the unit and what the figure is a
        # statistic of (its sample count).
        line = next(line for line in lines
                    if line.split()[:1] == [name])
        assert re.search(rf"\s{re.escape(unit)}\s+\((.*\d.*)\)$", line), line


@pytest.mark.parametrize("workload", each_workload())
def test_traced_run_reports_every_layer(workload):
    done, lines = tiny(workload, 1)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == PER_LAYER
    figures = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    assert figures["arch.memo_hits"] == 0
    exercised = {
        "recompile": ("pipeline.restore_ms", "pipeline.store_ms",
                      "sched.list_ms"),
        "compile-run": ("sched.list_ms", "sim.run_ms", "lang.parse_ms"),
        "explore": ("core.impose_ms", "arch.candidate_ms",
                    "arch.core_synthesis_ms"),
        "serve": ("serve.worker_ms", "pipeline.backend_read_ms"),
    }[workload]
    for name in exercised:
        assert figures[name] > 0, name


def stage_spans(telemetry: Telemetry) -> list[tuple]:
    """Each ``stage:*`` span with its cache source and nested stages."""
    return [(span.name, span.tags.get("cache_source"),
             [child.name for child in span.walk()
              if child is not span and child.name.startswith("stage:")])
            for span in telemetry.spans() if span.name.startswith("stage:")]


def test_tracing_keeps_the_stage_span_tree(tmp_path):
    source = input_set(3, "tiny")[0]
    trees = []
    for traced in (False, True):
        options = source.options.replace(cache_dir=str(tmp_path / str(traced)))
        telemetry = Telemetry()
        with Tracer().active(telemetry) if traced \
                else use_telemetry(telemetry):
            toolchain = Toolchain(source.core, options)
            for compiling in (toolchain, Toolchain(source.core, options),
                              toolchain.replace(budget=source.rebudget)):
                compiling.compile(source.text, io_binding=source.io_binding)
        trees.append(stage_spans(telemetry))
    assert trees[0] == trees[1]


#: Flip one sample of one lane of every simulated batch, then run the
#: benchmark: the defect lives only in this test's process.
DEFECT = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
import repro.pipeline.program as program
real = program.run_batch

def defective(*args, **kwargs):
    outputs = real(*args, **kwargs)
    port = sorted(outputs[0])[0]
    outputs[0][port][0] ^= 1
    return outputs

program.run_batch = defective
from perfbench import run
sys.exit(run.main(sys.argv[1:]))
"""


@needs_numpy
def test_defect_in_one_output_is_counted():
    code = DEFECT.format(src=str(ROOT / "src"), root=str(ROOT))
    done, lines = tiny("compile-run", 0, code=code)
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done, lines = run("--workload", "recompile", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)


#: Run the benchmark as if numpy were not installed.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
sys.path[:0] = [{src!r}, {root!r}]
from perfbench import run
sys.exit(run.main(sys.argv[1:]))
"""


def test_compile_run_without_numpy_is_refused_up_front():
    code = WITHOUT_NUMPY.format(src=str(ROOT / "src"), root=str(ROOT))
    done, lines = tiny("compile-run", 0, code=code)
    assert done.returncode != 0
    assert "numpy is required" in done.stderr
    assert not any(line.startswith("{") for line in lines)
