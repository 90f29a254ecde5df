"""Seeded query streams for the three benchmark workloads.

Every workload is an endless catalogue of ``Query`` records in blocks, built
from plain integers by ``random.Random(DESIGN_SEED)``.  A block holds a fixed
mix of the properties that set a query's cost (matrix size n, length of the
last diagonal run, ladder size).  ``stream`` replays the catalogue block by
block and shuffles each block with ``random.Random(seed)``: the same seed
always yields the same queries in the same order, and every seed asks the
same questions.  Drawing the ladders themselves per seed made the run's p90
latency differ by 11% between seeds with the host held equal: within one mix
class, the random details of a ladder change a query's cost up to tenfold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

# Seed of the query catalogue; reference.json pins its answers.
DESIGN_SEED = 0


@dataclass(frozen=True)
class Query:
    """One Hilbert-series request: a ladder boundary, a minor, a method.

    ``terms`` is the number of Hilbert-function values requested through
    ``series_expand`` (0 for none).  ``both`` asks for the direct and the
    recursive engine and a comparison of their results.
    """

    a: int
    b: int
    values: tuple[int, ...]
    u: tuple[int, ...]
    v: tuple[int, ...]
    terms: int = 0
    both: bool = False
    block: int = 0  # index of the catalogue block the query belongs to
    key: int = 0  # index of the query in the unshuffled catalogue

    @property
    def n(self) -> int:
        return len(self.u)

    @property
    def denom_exponent(self) -> int:
        return (self.a + self.b + 3) * self.n - sum(self.u) - sum(self.v)


def _minor(rng: random.Random, n: int, rows: int, cols: int):
    """A bivector [u | v] with u inside the first column (u_n <= rows) and
    v inside the flat top-right block (v_n <= cols)."""
    u = tuple(sorted(rng.sample(range(1, rows + 1), n)))
    v = tuple(sorted(rng.sample(range(1, cols + 1), n)))
    return u, v


def _climb(rng: random.Random, start: int, columns: int) -> list[int]:
    """A weakly increasing run of ``columns`` boundary values from ``start``.

    Diagonal runs of 1..5 increments alternate with a flat column or a jump
    of 2..3, so no diagonal run here is longer than 6 columns.
    """
    vals = [start] * rng.randint(1, 3)
    cur = start
    while len(vals) < columns:
        if rng.random() < 0.7:
            for _ in range(rng.randint(1, 5)):
                cur += 1
                vals.append(cur)
            vals.append(cur)
        else:
            cur += rng.randint(2, 3)
            vals.append(cur)
    return vals[:columns]


# Length, in columns, of the diagonal run that ends just below the top of a
# fresh_ladders boundary, one entry per query of a block.  Runs of 8 columns
# ending 2-3 rows under b+1 make the recursive engine fall back to the
# multi-sum on part of their sub-problems; they are the p90 tail.  Runs of
# 9 or more columns can cost seconds per query (up to 12 s seen at 11
# columns): a cliff, not a tail, left out on purpose.
FRESH_FINAL_RUNS = (3, 4, 5, 5, 6, 6, 7, 7, 8, 8)


def fresh_ladders(scale: float = 1.0) -> Iterator[list[Query]]:
    """Every query a new ladder, a = b in 24..36, mostly diagonal boundary.

    The boundary climbs by short diagonal runs from f(0) = h0, then one
    final diagonal run of a length drawn from FRESH_FINAL_RUNS ends 2-3 rows
    under b + 1 and jumps to the flat top block.  n = 2..4, recursive
    method, no series terms.  ``scale`` < 1 shrinks the ladders for tests.
    """
    rng = random.Random(DESIGN_SEED)
    lo, hi = max(8, round(24 * scale)), max(10, round(36 * scale))
    block = [(final, n) for final in FRESH_FINAL_RUNS for n in (2, 3, 4)]
    sizes = _spread(lo, hi, len(block))
    while True:
        rng.shuffle(block)
        rng.shuffle(sizes)
        yield [_fresh_query(rng, a, min(final, lo // 3), n)
               for (final, n), a in zip(block, sizes)]


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over lo..hi.  The ladder size sets a
    query's cost as much as its class does, so every block gets the same
    sizes, paired with the classes at random."""
    return [lo + (hi - lo + 1) * k // count for k in range(count)]


def _fresh_query(rng: random.Random, a: int, final: int, n: int) -> Query:
    b = a
    while True:
        tail = rng.randint(n, n + 3)
        h0 = rng.randint(n, n + 3)
        gap = rng.randint(2, 3)
        first = a + 1 - tail - final  # first column of the final run
        top = b + 1 - gap  # value of the final run's last column
        prefix = _climb(rng, h0, first)
        # the final run must start level with or at least 2 above the
        # prefix, or it would merge into the prefix's last diagonal
        step = (top - final + 1) - prefix[-1]
        if step == 0 or step >= 2:
            values = prefix + list(range(top - final + 1, top + 1)) + [b + 1] * tail
            return Query(a, b, tuple(values), *_minor(rng, n, h0, tail))


# Matrix sizes asked for in one minor_sweep block; the determinant costs
# n * 2^(n-1) polynomial products, so the large-n queries make the tail.
# Sizes n <= 4 fill 40% of a block, n = 5 the next 25%, n = 8 15% and
# n = 9 the top 5%, so the median and p90 each fall inside one size class,
# not on the step between two.  Few n = 9 queries keep a pass short enough
# to be answered about twice in a run.
SWEEP_SIZES = (1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 5, 5, 6, 7, 7, 8, 8, 8, 9)
SWEEP_TERMS = 100
# The minor_sweep ladder, a = b = 26: f(0) = 11, a flat top block 11
# columns wide, and between them diagonal runs of 1-4 increments, flat
# columns and jumps.  It is the same for every seed: with a ladder drawn per
# seed, the median latency moved by up to 30% from seed to seed.
SWEEP_LADDER = (11, 12, 13, 14, 14, 15, 16, 18, 19, 20, 21, 22, 22, 22, 23, 25) + (27,) * 11
# The smoke-test ladder, a = b = 13.
SWEEP_LADDER_SMALL = (6, 7, 8, 9, 9, 10, 12, 12) + (14,) * 6


def minor_sweep(scale: float = 1.0) -> Iterator[list[Query]]:
    """One fixed ladder; bivectors with n = 1..9, 100 series terms.

    f(0) and the top block are both 11 columns wide (6 at ``scale`` < 1),
    so every minor with n <= 9 fits.
    """
    rng = random.Random(DESIGN_SEED)
    values = SWEEP_LADDER if scale >= 1.0 else SWEEP_LADDER_SMALL
    a = b = len(values) - 1
    h0, tail = values[0], values.count(b + 1)
    sizes = [n for n in SWEEP_SIZES if n <= min(h0, tail)]
    while True:
        rng.shuffle(sizes)
        yield [Query(a, b, values, *_minor(rng, n, h0, tail), terms=SWEEP_TERMS)
               for n in sizes]


def crosscheck(scale: float = 1.0) -> Iterator[list[Query]]:
    """Small ladders, a, b in 9..13, 2-4 boundary steps, n = 2..4, both
    engines.  A step is a column where f rises; the last one reaches b + 1.
    Every block holds each (n, steps, a) once and each b nine times.  These
    ladders are small already, so ``scale`` leaves them as they are.
    """
    rng = random.Random(DESIGN_SEED)
    block = [(n, steps, a) for n in (2, 3, 4) for steps in (2, 3, 4) for a in range(9, 14)]
    heights = _spread(9, 13, len(block))
    while True:
        rng.shuffle(block)
        rng.shuffle(heights)
        yield [_crosscheck_query(rng, a, b, n, steps)
               for (n, steps, a), b in zip(block, heights)]


def _crosscheck_query(rng: random.Random, a: int, b: int, n: int, steps: int) -> Query:
    h0 = rng.randint(n, min(n + 3, b + 1 - steps))
    tail = rng.randint(n, n + 2)
    cols = sorted(rng.sample(range(1, a + 2 - tail), steps))
    cuts = sorted(rng.sample(range(1, b + 1 - h0), steps - 1))
    rises = [y - x for x, y in zip([0] + cuts, cuts + [b + 1 - h0])]
    values, cur = [], h0
    for x in range(a + 1):
        if cols and x == cols[0]:
            cols.pop(0)
            cur += rises.pop(0)
        values.append(cur)
    return Query(a, b, tuple(values), *_minor(rng, n, h0, tail), both=True)


WORKLOADS = {
    "fresh_ladders": fresh_ladders,
    "minor_sweep": minor_sweep,
    "crosscheck": crosscheck,
}


def stream(workload: str, seed: int, scale: float = 1.0) -> Iterator[list[Query]]:
    """The workload's catalogue, block by block, each block shuffled by
    ``seed``; every query is tagged with its block and catalogue index."""
    order = random.Random(seed)
    key = 0
    for number, block in enumerate(WORKLOADS[workload](scale)):
        tagged = [replace(q, block=number, key=key + i) for i, q in enumerate(block)]
        key += len(block)
        order.shuffle(tagged)
        yield tagged
