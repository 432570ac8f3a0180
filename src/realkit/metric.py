"""Finite metric spaces, packing numbers and close-pair combinatorics.

Distances are exact rationals so that the strict comparison in "pairwise
distances exceeding t" (packing) and the closed one in "distance at most t"
(close pairs) are decided without rounding: in integers, on the distances
over one common denominator s (`FiniteMetricSpace.scaled`), with both
sides of a comparison multiplied by the same positive integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from .errors import CapExceeded, InvalidInstance
from .numbers import field, parse_list, parse_rational, parse_square

GAMMA_MASS_CAP = 8


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Labeled points with a validated rational distance matrix."""

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_json(obj: dict) -> "FiniteMetricSpace":
        labels = parse_list(field(obj, "labels", "space"), "/labels")
        return _validated(parse_square(field(obj, "dist", "space"), "/dist", len(labels)), labels)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(s, D) with dist[i][j] == D[i][j] / s: the distances over their
        least common denominator s > 0, built on first use."""
        s = lcm(*(v.denominator for row in self.dist for v in row))
        return s, tuple(tuple(v.numerator * (s // v.denominator) for v in row) for row in self.dist)

    def distance_values(self) -> list[Fraction]:
        """Sorted distinct positive pairwise distances."""
        vals = {self.dist[i][j] for i in range(self.n) for j in range(i + 1, self.n)}
        return sorted(vals)


def make_space(dist_rows: Sequence[Sequence], labels: Sequence[str] | None = None) -> FiniteMetricSpace:
    """Build and validate a space from rational-like entries."""
    if labels is None:
        labels = [f"x{i}" for i in range(len(dist_rows))]
    return _validated(tuple(tuple(parse_rational(v) for v in row) for row in dist_rows), labels)


def _validated(dist: tuple[tuple[Fraction, ...], ...], labels: Sequence) -> FiniteMetricSpace:
    """The space of a parsed distance matrix, if it is a metric."""
    space = FiniteMetricSpace(tuple(str(x) for x in labels), dist)
    report = validate_metric(space)
    if not report.ok:
        raise InvalidInstance("space: " + "; ".join(report.messages()))
    return space


@dataclass(frozen=True)
class Configuration:
    """Counting measure on the space as a vector of multiplicities."""

    multiplicity: tuple[int, ...]

    @property
    def total_mass(self) -> int:
        return sum(self.multiplicity)


@dataclass(frozen=True)
class MetricReport:
    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]

    def messages(self) -> list[str]:
        return [f"{kind} violated at {idx}" for kind, idx in self.violations]


def validate_metric(space: FiniteMetricSpace, tol: Fraction = Fraction(1, 10**12)) -> MetricReport:
    """Check the metric axioms, reporting every offending index tuple.

    The triangle inequality is tested with slack `tol` so that spaces keyed
    in with rounded decimals are not rejected for dust. d_ij > d_ik + d_kj
    + tol is tested exactly, multiplied through by s * tol.denominator:
    (D_ij - D_ik - D_kj) * tol.denominator > tol.numerator * s.
    """
    n = len(space.labels)
    if len(space.dist) != n or any(len(row) != n for row in space.dist):
        raise InvalidInstance("distance matrix dimensions do not match label count")
    if n < 1:
        raise InvalidInstance("a space needs at least one point")
    bad: list[tuple[str, tuple[int, ...]]] = []
    s, d = space.scaled
    for i in range(n):
        if d[i][i] != 0:
            bad.append(("zero-diagonal", (i,)))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                bad.append(("symmetry", (i, j)))
            if d[i][j] <= 0:
                bad.append(("positivity", (i, j)))
    slack = tol.numerator * s
    for i, j, k in itertools.permutations(range(n), 3):
        if i < j and (d[i][j] - d[i][k] - d[k][j]) * tol.denominator > slack:
            bad.append(("triangle", (i, j, k)))
    return MetricReport(ok=not bad, violations=tuple(bad))


def _close_masks(space: FiniteMetricSpace, t: Fraction) -> list[int]:
    """Adjacency bitmasks of the graph with edges {d(i,j) <= t}, i != j,
    tested exactly as D[i][j] * t.denominator <= t.numerator * s. Every
    threshold passes here, so a negative t is invalid input everywhere."""
    if t < 0:
        raise InvalidInstance("t must be non-negative")
    s, d = space.scaled
    bound = t.numerator * s
    return [
        sum(1 << j for j, v in enumerate(row) if j != i and v * t.denominator <= bound)
        for i, row in enumerate(d)
    ]


def packing_set(space: FiniteMetricSpace, t) -> frozenset[int]:
    """A maximum set of points with pairwise distances strictly exceeding t.

    Exact branch and bound on the conflict graph (edges at distance <= t):
    greedy gives the initial incumbent, branching follows descending conflict
    degree with index tie-breaks, so the result is deterministic.
    """
    n = space.n
    adj = _close_masks(space, parse_rational(t, "t"))
    order = sorted(range(n), key=lambda v: (-bin(adj[v]).count("1"), v))
    pos = {v: k for k, v in enumerate(order)}

    # greedy incumbent: take vertices in ascending degree when compatible
    best = 0
    best_set = 0
    taken = 0
    blocked = 0
    for v in sorted(range(n), key=lambda v: (bin(adj[v]).count("1"), v)):
        if not blocked & (1 << v):
            taken |= 1 << v
            blocked |= adj[v] | (1 << v)
    best = bin(taken).count("1")
    best_set = taken

    def grow(chosen: int, size: int, candidates: int) -> None:
        nonlocal best, best_set
        if size + bin(candidates).count("1") <= best:
            return
        if not candidates:
            if size > best:
                best, best_set = size, chosen
            return
        # branch on the candidate earliest in the static order
        v = min((w for w in range(n) if candidates & (1 << w)), key=lambda w: pos[w])
        grow(chosen | (1 << v), size + 1, candidates & ~(adj[v] | (1 << v)))
        grow(chosen, size, candidates & ~(1 << v))

    grow(0, 0, (1 << n) - 1)
    return frozenset(i for i in range(n) if best_set & (1 << i))


def packing_number(space: FiniteMetricSpace, t) -> int:
    """Maximum number of points with pairwise distances exceeding t.

    At t = 0 this is the cardinality of the space (all off-diagonal
    distances are positive); the infinite-space convention has no finite
    analogue here.
    """
    return len(packing_set(space, t))


def close_pair_count(space: FiniteMetricSpace, config: Configuration, t) -> int:
    """Ordered pairs of distinct particles at distance at most t.

    Particles sharing a point are at distance 0 and always count.
    """
    t = parse_rational(t, "t")
    if len(config.multiplicity) != space.n:
        raise InvalidInstance("configuration length does not match the space")
    return _pair_count(config.multiplicity, _close_masks(space, t))


def _pair_count(m: Sequence[int], masks: Sequence[int]) -> int:
    """`close_pair_count` of the multiplicities m on the graph `masks`."""
    total = 0
    for i, mi in enumerate(m):
        if mi:
            total += mi * (mi - 1 + sum(mj for j, mj in enumerate(m) if masks[i] >> j & 1))
    return total


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All multiplicity vectors of given total mass, lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def gamma_min_pairs(space: FiniteMetricSpace, n: int, t) -> int:
    """Minimum ordered close-pair count over configurations of total mass n.

    Exhaustive over all multiplicity vectors, which grows as compositions of
    n; above the mass cap only the closed-form bounds are offered.
    """
    if n < 0:
        raise InvalidInstance("total mass must be non-negative")
    masks = _close_masks(space, parse_rational(t, "t"))
    if n > GAMMA_MASS_CAP:
        raise CapExceeded(
            f"total mass {n} above the enumeration cap {GAMMA_MASS_CAP}; "
            "use close_pair_envelope instead"
        )
    return min(_pair_count(m, masks) for m in _compositions(n, space.n))


def close_pair_envelope(space: FiniteMetricSpace, n: int, t) -> tuple[Fraction, Fraction]:
    """Closed-form envelope (n(n/q - 1), n(n/q + 1)) with q the packing number.

    The minimum close-pair count always lies in [max(0, lower), upper].
    """
    if n < 0:
        raise InvalidInstance("total mass must be non-negative")
    if n == 0:
        return Fraction(0), Fraction(0)
    q = packing_number(space, t)
    return Fraction(n) * (Fraction(n, q) - 1), Fraction(n) * (Fraction(n, q) + 1)


def spread_configuration(space: FiniteMetricSpace, n: int, t) -> Configuration:
    """Mass n spread over a maximum packing, masses within floor/ceil of n/q.

    Witness for the upper envelope of `close_pair_envelope`: its close-pair count
    is at most n(n/q + 1).
    """
    pack = sorted(packing_set(space, t))
    q = len(pack)
    base, extra = divmod(n, q)
    m = [0] * space.n
    for rank, point in enumerate(pack):
        m[point] = base + (1 if rank < extra else 0)
    return Configuration(tuple(m))
