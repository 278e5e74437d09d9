"""Highest truncation order that class_gf(check=True) reaches in fixed time.

    python3 tools/order_ceiling.py SECONDS [--family NAME ...]

For each family's slowest length-3 pattern, the order is raised by half
until one call takes longer than SECONDS, then bisected to within 5%.
Each line gives the highest order that finished within the limit, its
time, and that time split between the grammar DP for the bases
(``system_for``), the level iteration (``iterate_system``) and the
quadratic route (``moebius_coeffs`` and ``solve_quadratic``).  Imports
latpath from the ``src`` of this checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from latpath import gf  # noqa: E402
from latpath.paths import FAMILIES  # noqa: E402

# The slowest length-3 pattern of each family, from timing class_gf on
# every length-3 pattern at order 80 (and 200 for the semilength families).
SLOWEST = {"dyck": "UUU", "motzkin": "FFF", "skew-dyck": "DDD", "skew-motzkin": "FFF"}

PHASES = {
    "system_for": "grammar",
    "iterate_system": "iteration",
    "moebius_coeffs": "quadratic",
    "solve_quadratic": "quadratic",
}


def timed_class_gf(family, pattern: str, order: int) -> tuple[float, dict]:
    """Wall time of one class_gf(check=True) call and its split by phase."""
    split = dict.fromkeys(PHASES.values(), 0.0)
    originals = {name: getattr(gf, name) for name in PHASES}

    def timer(name, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                split[PHASES[name]] += time.perf_counter() - start

        return call

    for name, fn in originals.items():
        setattr(gf, name, timer(name, fn))
    try:
        start = time.perf_counter()
        gf.class_gf(family, pattern, order, check=True)
        return time.perf_counter() - start, split
    finally:
        for name, fn in originals.items():
            setattr(gf, name, fn)


def ceiling(family, pattern: str, seconds: float) -> tuple[int, float, dict] | None:
    """The highest order found within the limit, with its time and split."""
    best = None
    lo, hi = 0, None
    order = 20
    while hi is None or hi - lo > max(1, lo // 20):
        elapsed, split = timed_class_gf(family, pattern, order)
        if elapsed <= seconds:
            lo, best = order, (order, elapsed, split)
        else:
            hi = order
        order = lo + (hi - lo) // 2 if hi is not None else order * 3 // 2
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seconds", type=float, help="time limit of one class_gf call")
    parser.add_argument("--family", action="append", choices=sorted(SLOWEST))
    args = parser.parse_args(argv)
    print("family        pattern  order  total_s  grammar_s  iteration_s  quadratic_s")
    for name in args.family or SLOWEST:
        pattern = SLOWEST[name]
        found = ceiling(FAMILIES[name], pattern, args.seconds)
        if found is None:
            print(f"{name:<13} {pattern:<8} no order within {args.seconds} s")
            continue
        order, elapsed, split = found
        print(
            f"{name:<13} {pattern:<8} {order:>5}  {elapsed:7.2f}  {split['grammar']:9.2f}"
            f"  {split['iteration']:11.2f}  {split['quadratic']:11.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
