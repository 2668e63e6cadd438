"""Percentiles as the benchmark reports them."""

from __future__ import annotations


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def latency_summary(latencies) -> dict:
    """Nearest-rank p50 and p99, and the mean, of latencies."""
    ordered = sorted(latencies)
    return {"latency_p50_ns": percentile(ordered, 50),
            "latency_p99_ns": percentile(ordered, 99),
            "latency_mean_ns": sum(ordered) / max(1, len(ordered))}
