"""The seeded input set every workload draws from.

The seed fixes coefficient values, the ``repro.gen`` draw and the
stimulus; it never changes an application's *structure* beyond the
generated draw, so compile cost stays comparable from seed to seed
while the program still sees inputs it has not been tuned on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import CompileOptions
from repro.apps import (
    audio_application,
    audio_io_binding,
    biquad_cascade_application,
    fir_application,
    lms_application,
    stress_application,
)
from repro.arch import Allocation
from repro.fixed import Q15
from repro.gen import GenSpec, generate_corpus
from repro.lang.dfg import Dfg
from repro.lang.emit import emit_source


@dataclass(frozen=True)
class Source:
    """One application of the input set, as the user would submit it."""

    name: str
    #: The builder's graph: what the reference interpreter runs, so the
    #: oracle never goes through the compiler's own front-end.
    dfg: Dfg
    core: str
    budget: int | None = None
    io_binding: dict[str, str] | None = None
    #: The emitted source text the compiler is handed.
    text: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "text", emit_source(self.dfg))

    @property
    def options(self) -> CompileOptions:
        return CompileOptions(budget=self.budget)

    @property
    def rebudget(self) -> int:
        """The "edited" budget of the re-compile loop: looser than the
        original, so every source still schedules."""
        return self.budget + 16 if self.budget is not None else 64


def _magnitude(rng: random.Random, low: float, high: float) -> float:
    """A coefficient away from 0 and 1, where the optimizer would fold
    it and change the program's structure."""
    return round(rng.uniform(low, high), 4) * rng.choice((1, -1))


def input_set(seed: int, size: str = "full") -> list[Source]:
    """The shared input set: the paper's audio application, FIR, biquad
    cascade and LMS on their library cores, and one ``repro.gen`` draw.

    ``tiny`` drops the audio application (most of the compile time) for
    the benchmark's own tests.
    """
    rng = random.Random(seed)
    sources = []
    if size == "full":
        sources.append(Source("audio", audio_application(), "audio",
                              budget=64, io_binding=audio_io_binding()))
    fir_taps = [round(rng.uniform(0.02, 0.12), 4) for _ in range(8)]
    sources.append(Source("fir8", fir_application(fir_taps, name="fir8"),
                          "fir"))
    sections = [
        (round(rng.uniform(0.2, 0.5), 4), _magnitude(rng, 0.05, 0.2),
         _magnitude(rng, 0.05, 0.2), _magnitude(rng, 0.05, 0.25),
         _magnitude(rng, 0.05, 0.2))
        for _ in range(2)
    ]
    sources.append(Source("biquad2", biquad_cascade_application(
        sections, name="biquad2"), "audio", budget=64))
    mu = round(rng.uniform(0.05, 0.3), 4)
    sources.append(Source("lms4", lms_application(n_taps=4, mu=mu,
                                                  name="lms4"), "adaptive"))
    [generated] = generate_corpus(GenSpec(), 1, seed=rng.randrange(1 << 30),
                                  core="fir", levels=(1,))
    sources.append(Source("gen", generated.dfg, "fir"))
    return sources


def explore_set(seed: int, size: str = "full"
                ) -> tuple[list[Dfg], list[Allocation]]:
    """The ``BENCH_explore`` application set and allocation sweep.

    The stress networks keep their pinned seeds: their structure sets
    the RT-class count, and with it the cost of every candidate.  The
    workload seed draws the FIR coefficients.
    """
    rng = random.Random(seed)
    fir6 = fir_application([round(rng.uniform(0.02, 0.15), 4)
                            for _ in range(6)], name="fir6")
    if size == "tiny":
        return ([stress_application(6, seed=2), fir6],
                [Allocation(), Allocation(n_mult=2)])
    return ([stress_application(6, seed=2), stress_application(8, seed=3),
             fir6],
            [Allocation(n_mult=m, n_alu=a, n_ram=r)
             for m in (1, 2) for a in (1, 2) for r in (1, 2)])


def stimulus(dfg: Dfg, seed: int, lanes: int, frames: int
             ) -> list[dict[str, list[int]]]:
    """Full-range Q15 stimulus, one stream dict per lane."""
    rng = random.Random(seed)
    return [{port: [rng.randint(Q15.min_value, Q15.max_value)
                    for _ in range(frames)] for port in dfg.inputs}
            for _ in range(lanes)]
