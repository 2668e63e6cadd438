"""Registry footprint vs validity window, on workload timestamps.

The workload runs 900 s, many windows long, so every window's nonces expire
and are evicted while it runs.  Each window's peak occupancy is rate x
window, far below the history: the registry holds the nonces that are still
live, not every nonce it has seen.
"""

from ztrv import ttl_sweep

RATE = 20  # requests per second
DURATION = 900  # seconds


def main() -> None:
    history = RATE * DURATION
    print(f"{RATE}/s for {DURATION}s: a history of {history:,} mandates, "
          "one consumed nonce each")
    print(f"{'window':>8}  {'peak entries':>12}  {'history':>8}  "
          f"{'est. memory':>11}")
    for point in ttl_sweep([5, 30, 60, 300], rate=RATE, duration=DURATION,
                           seed=7):
        print(f"{point.window:>7.0f}s  {point.peak_entries:>12,}  "
              f"{history:>8,}  {point.bytes_estimate / 1e3:>8.1f} kB")
    print("peak = rate x window (+1 for the TTL's extra millisecond), "
          "whatever the history")


if __name__ == "__main__":
    main()
