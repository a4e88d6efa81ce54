"""Fixed reference work, timed beside the workload to follow the host's speed.

``run.py`` calls ``reference_seconds()`` before every command it spawns and
after the last one, so that the reference samples the host at the same
moments as the program. The work is of the kinds a stylegroup command does,
with code of the benchmark's own and fixed inputs: CSV parsing into
per-(learner, variable) totals and trapezoid memberships and centroids in
pure Python. Its time moves with the host's speed and never with the
program's code.
"""

from __future__ import annotations

import csv
import io
import random
import time

ROWS = 10_000
LEARNERS = 100
VARIABLES = 14
TERMS = ((0.0, 0.0, 2.0, 4.0), (2.0, 4.0, 6.0, 8.0), (6.0, 8.0, 11.0, 11.0))
GRID = 32


def trapezoid(x: float, a: float, b: float, c: float, d: float) -> float:
    if x < a or x > d:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x <= c:
        return 1.0
    return (d - x) / (d - c)


def _work() -> float:
    rng = random.Random(20240823)
    text = "\n".join(
        f"L{rng.randrange(LEARNERS):05d},v{rng.randrange(VARIABLES)},{rng.uniform(0.0, 1.0)!r}"
        for _ in range(ROWS)
    )
    totals: dict[tuple[str, str], float] = {}
    for learner, variable, value in csv.reader(io.StringIO(text)):
        key = (learner, variable)
        totals[key] = totals.get(key, 0.0) + float(value)

    grid = [11.0 * i / (GRID - 1) for i in range(GRID)]
    checksum = 0.0
    for value in totals.values():
        degrees = [trapezoid(value, *term) for term in TERMS]
        envelope = [max(min(deg, trapezoid(x, *term)) for deg, term in zip(degrees, TERMS)) for x in grid]
        area = sum(envelope)
        checksum += sum(x * y for x, y in zip(grid, envelope)) / area if area else 0.0
    return checksum


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
