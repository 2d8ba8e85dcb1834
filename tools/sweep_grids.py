"""The sha256 of ``sweep_rows`` over seeded random edge grids.

Usage, from the root of a checkout::

    python3 tools/sweep_grids.py [--seed 0]

It draws ``GRIDS`` (900) grids.  Each grid draws up to four values per
axis, sorted where the sweep needs it: theta0 from {0, 1e-9, pi/4,
pi/2 - 1e-9, pi/2, pi/2 + 1e-9} or uniform in [0, pi]; theta1 uniform in
[0, 2 pi] or from {0, 1e-9, pi/6, pi/2}; beta on or inside the unit
circle, or 0, 1 or -1; p log-uniform down to 1.5e-154, or 0 or 1.  Any p
in [0, 1] runs now, but the p draws keep 1.5e-154, the smallest p that
earlier checkouts accepted, so the hashes stay comparable with theirs.
The case is drawn per grid, and then a whole number from 2 to 4 that is
dropped: earlier checkouts swept each grid at that cutoff, and drawing it
keeps the random stream, and so the hashes, comparable with theirs.  It
prints the sha256 of the newline join of ``repr(rows)`` over the grids.
Run it in two checkouts with the same seed and compare: equal hashes mean
equal rows, to the byte.  The package comes from the checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from photonherald import CaseId, SweepSpec, sweep_rows  # noqa: E402  (needs the path above)

THETA0_EDGES = (0.0, 1e-9, math.pi / 4, math.pi / 2 - 1e-9, math.pi / 2, math.pi / 2 + 1e-9)
THETA1_EDGES = (0.0, 1e-9, math.pi / 6, math.pi / 2)
P_EDGES = (0.0, 1.5e-154, 1.0)
GRIDS = 900


def axis(rng: random.Random, draw, edges=()) -> list:
    """One to four values, each an edge value half the time when there are edges."""
    return [rng.choice(edges) if edges and rng.random() < 0.5 else draw() for _ in range(rng.randint(1, 4))]


def grid(rng: random.Random) -> SweepSpec:
    spec = SweepSpec(
        theta0=tuple(sorted(axis(rng, lambda: rng.uniform(0.0, math.pi), THETA0_EDGES))),
        theta1=tuple(sorted(axis(rng, lambda: rng.uniform(0.0, 2.0 * math.pi), THETA1_EDGES))),
        beta=tuple(axis(rng, lambda: rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)), (0j, 1 + 0j, -1 + 0j))),
        p=tuple(sorted(axis(rng, lambda: 10.0 ** rng.uniform(math.log10(1.5e-154), 0.0), P_EDGES))),
        case=rng.choice(tuple(CaseId)),
    )
    rng.randint(2, 4)  # the dropped cutoff draw
    return spec


def digest(seed: int) -> str:
    """The sha256 of the newline join of ``repr(rows)`` over the grids of ``seed``."""
    rng = random.Random(seed)
    rows = (sweep_rows(grid(rng)) for _ in range(GRIDS))
    return hashlib.sha256("\n".join(repr(r) for r in rows).encode("utf-8")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(f"seed {args.seed}, {GRIDS} grids: {digest(args.seed)}")


if __name__ == "__main__":
    main()
