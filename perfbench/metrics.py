"""End-to-end figures of a run, and the tracing overhead."""

from __future__ import annotations

import resource
import statistics

#: Every end-to-end metric and its unit.  Each workload reports all of
#: them for its own operation and pass (NOTES.md has the table).
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "pass_s": "s",
    "work_per_s": "1/s",
    "cycles_total": "cycles",
    "code_words_total": "words",
    "peak_rss_mb": "MB",
}


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def p90(samples: list[float]) -> float:
    return percentile(samples, 90)


def end_to_end(tally, setups: list[float]) -> dict[str, tuple[float, str]]:
    """``{name: (value, sample note)}`` from the untraced passes."""
    latencies = [seconds * 1e3 for seconds in tally.latencies]
    passes = tally.passes
    beyond = sum(1 for x in latencies if x > p90(latencies))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} set-ups: "
                    + ", ".join(f"{s:.3f}" for s in setups)),
        "latency_ms_p50": (statistics.median(latencies),
                           f"n={len(latencies)}"),
        "latency_ms_p90": (p90(latencies),
                           f"n={len(latencies)}, {beyond} beyond"),
        "pass_s": (statistics.median(passes),
                   f"median of {len(passes)} passes"),
        "work_per_s": (statistics.median(tally.rates),
                       f"median of {len(tally.rates)} per-pass rates"
                       if len(tally.rates) > 1 else "over 1 whole run"),
        "cycles_total": (statistics.median(tally.cycles),
                         f"per pass, median of {len(tally.cycles)}"),
        "code_words_total": (statistics.median(tally.words),
                             f"per pass, median of {len(tally.words)}"),
        "peak_rss_mb": (peak_kib / 1024, "peak of 1 process"),
    }


def overheads(plain, traced) -> dict[str, float]:
    """Traced minus untraced, as a percentage of untraced, per timing."""
    pairs = {
        "latency_ms_p50": (statistics.median, "latencies"),
        "latency_ms_p90": (p90, "latencies"),
        "pass_s": (statistics.median, "passes"),
    }
    shares = {}
    for name, (statistic, attribute) in pairs.items():
        base, samples = getattr(plain, attribute), getattr(traced, attribute)
        shares[f"obs.trace_overhead_pct.{name}"] = (
            (statistic(samples) - statistic(base)) / statistic(base) * 100
            if base and samples else 0.0)
    return shares
