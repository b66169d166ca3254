"""Scaling probe: solve time on a ladder of random regular graphs.

Doubling n on a d-regular host doubles m as well, so if the solver's cost
grows like k * m * n the time per rung should rise by roughly 4x, with
plenty of slack for caches and constant factors. This is a library-level
walkthrough; the measured, answer-checked timings live in perfbench:

    python3 perfbench/run.py --workload regular --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import random
import time

from kfactor import compute_k_factor, random_regular


def main() -> None:
    d, k, seed, repeat = 6, 2, 3, 3
    sizes = [250, 500, 1000, 2000]
    print(f"{'n':>6} {'m':>7} {'augment':>8} {'best_ms':>9} {'ratio':>6}")
    previous = None
    for n in sizes:
        g = random_regular(n, d, random.Random(seed))
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            out = compute_k_factor(g, k)
            best = min(best, time.perf_counter() - t0)
        assert out.status == "factor_found"
        ratio = "" if previous is None else f"{best / previous:.2f}"
        print(f"{n:>6} {g.m:>7} {out.stats.augmentations:>8} {best * 1000:>9.2f} {ratio:>6}")
        previous = best


if __name__ == "__main__":
    main()
