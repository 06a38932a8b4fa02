"""Latency statistics and the report core shared by both harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LatencyStats", "summarize", "RunReport"]


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of latency samples (seconds).

    Every field is required: ``p99`` used to default to ``0.0``, which let
    any call site constructing the dataclass directly (rather than via
    :func:`summarize`) silently report a zero tail. Construct through
    :func:`summarize` unless you genuinely have all the moments in hand.
    """

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    stddev: float

    def mean_ms(self) -> float:
        """Mean in milliseconds (what the paper's Table 3 reports)."""
        return self.mean * 1000.0

    def p95_ms(self) -> float:
        """95th percentile in milliseconds (what the scenario reports quote)."""
        return self.p95 * 1000.0

    def p99_ms(self) -> float:
        """99th percentile in milliseconds (the tail the load reports quote)."""
        return self.p99 * 1000.0

    def overhead_vs(self, baseline: "LatencyStats") -> float | None:
        """Percentage increase of this mean over a baseline mean.

        A zero-mean baseline makes the ratio undefined; ``None`` is returned
        rather than ``float("inf")`` because reports embed this value in JSON,
        and ``json.dumps`` renders infinity as the bare word ``Infinity`` —
        which is not valid JSON and breaks every strict parser downstream.
        """
        if baseline.mean == 0:
            return None
        return (self.mean - baseline.mean) / baseline.mean * 100.0

    def to_dict(self) -> dict:
        """Plain-data form for scenario reports and experiment write-ups."""
        return {
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p95": self.p95,
            "p99": self.p99,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "stddev": self.stddev,
        }


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile over an already sorted sample list.

    With ``n`` samples, the ``fraction`` percentile is the value at rank
    ``ceil(fraction * n)`` (1-based), clamped into the list — so a single
    sample is every percentile, and small samples report an actual observed
    value rather than an interpolation.
    """
    if not ordered:
        raise ValueError("no samples")
    index = min(len(ordered) - 1, max(0, int(math.ceil(fraction * len(ordered))) - 1))
    return ordered[index]


def summarize(samples: list[float]) -> LatencyStats:
    """Compute summary statistics over latency samples."""
    if not samples:
        raise ValueError("cannot summarize zero samples")
    ordered = sorted(samples)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((s - mean) ** 2 for s in ordered) / count
    return LatencyStats(
        count=count,
        mean=mean,
        median=_percentile(ordered, 0.5),
        p95=_percentile(ordered, 0.95),
        p99=_percentile(ordered, 0.99),
        minimum=ordered[0],
        maximum=ordered[-1],
        stddev=math.sqrt(variance),
    )


@dataclass(kw_only=True)
class RunReport:
    """What every run reports, load run and scenario alike.

    :meth:`repro.sim.harness.OpLoop.close` fills these fields;
    :class:`~repro.sim.workload.WorkloadReport` and
    :class:`~repro.sim.scenarios.spec.ScenarioReport` add their own on top
    (each defines ``ops``) and print the shared lines with the helpers below.
    """

    succeeded: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # (op index, error type name)
    retries: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    latency: LatencyStats | None = None
    max_in_flight: int = 0  # concurrent runs only
    in_flight_at_reshard: int = 0
    # Per-shard high-water mark of requests queued behind the serial service
    # queues (max over the shard's domains).
    shard_queue_depth: dict = field(default_factory=dict)  # shard -> depth
    autoscale_decisions: list = field(default_factory=list)  # decision dicts
    final_shards: int = 0

    @property
    def success_rate(self) -> float:
        """Fraction of operations that completed end to end."""
        if self.ops == 0:
            return 0.0
        return self.succeeded / self.ops

    def _network_line(self) -> str:
        return (f"  network: sent={self.messages_sent} "
                f"delivered={self.messages_delivered} "
                f"dropped={self.messages_dropped} "
                f"duplicated={self.messages_duplicated}")

    def _in_flight_line(self, resharded: bool) -> str:
        at_reshard = (f" (at reshard: {self.in_flight_at_reshard})"
                      if resharded else "")
        return f"  in-flight: max={self.max_in_flight}{at_reshard}"

    def _queue_depth_lines(self) -> list[str]:
        if not any(self.shard_queue_depth.values()):
            return []
        depths = " ".join(f"s{shard}:{depth}" for shard, depth
                          in sorted(self.shard_queue_depth.items()))
        return [f"  max queue depth: {depths}"]
