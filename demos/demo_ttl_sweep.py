"""Registry footprint vs validity window, on workload timestamps.

Peak occupancy grows linearly with the window until the window exceeds the
workload duration, then plateaus at one entry per request.
"""

from ztrv import ttl_sweep

RATE = 2_000  # requests per second
DURATION = 10  # seconds


def main() -> None:
    print(f"{RATE}/s for {DURATION}s, one consumed nonce per request")
    print(f"{'window':>8}  {'peak entries':>12}  {'est. memory':>12}")
    for point in ttl_sweep([2, 5, 10, 30, 60], rate=RATE, duration=DURATION,
                           seed=7):
        print(f"{point.window:>7.0f}s  {point.peak_entries:>12,}  "
              f"{point.bytes_estimate / 1e6:>9.2f} MB")
    print(f"plateau = rate x duration = {RATE * DURATION:,} entries; "
          "beyond that a longer window costs nothing more")


if __name__ == "__main__":
    main()
