"""Shared generators and independent brute-force oracles for the tests.

The oracles deliberately avoid the production code paths: packing numbers
by raw subset enumeration, close-pair counts and sums straight from the
definition, pp LPs over configurations enumerated here, and feasible
targets built by pushing a random mixture through the forward moment map
by hand.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from realkit.lp import Certificate, exact_simplex
from realkit.metric import Configuration, FiniteMetricSpace, make_space
from realkit.setrealize import TwoPointTarget


class ColumnList:
    """A column oracle for `lp.column_generation` over an explicit
    {key: exact column} dict. The first master must hold every key, since
    nothing is priced; the exact maximum is a scan, ties to the first key."""

    zero_rows = ()

    def __init__(self, columns: dict):
        self.columns = columns
        self.size = len(columns)

    def matrix(self, keys: list) -> np.ndarray:
        return np.array([self.columns[key] for key in keys], dtype=float).T

    def column(self, key) -> list:
        return self.columns[key]

    def best(self, y: list[int]):
        return max(
            ((key, sum(u * v for u, v in zip(y, col))) for key, col in self.columns.items()),
            key=lambda kv: kv[1],
        )


def rebuilt(cert: Certificate, **changes) -> Certificate:
    """`cert` with some of c, a, blin, gap and minimizer replaced, built
    again by `Certificate.from_functional`."""
    parts = dict(
        kind=cert.kind, n=cert.n, c=cert.c, a=cert.a, blin=cert.blin, gap=cert.gap,
        minimizer=cert.minimizer,
    )
    return Certificate.from_functional(**{**parts, **changes})


def brute_force_packing(space: FiniteMetricSpace, t: Fraction) -> int:
    """Maximum subset with pairwise distances > t, by full enumeration."""
    n = space.n
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if (mask >> i) & 1]
        if all(
            space.dist[i][j] > t
            for i, j in itertools.combinations(members, 2)
        ):
            best = max(best, len(members))
    return best


def brute_force_close_pairs(space: FiniteMetricSpace, config: Configuration, t) -> int:
    """Ordered close-pair count straight from the particle-list definition."""
    particles = []
    for i, m in enumerate(config.multiplicity):
        particles.extend([i] * m)
    count = 0
    for a in range(len(particles)):
        for b in range(len(particles)):
            if a != b and space.dist[particles[a]][particles[b]] <= t:
                count += 1
    return count


def g_h(m, h):
    """g_h of the multiplicity vector m: h summed over ordered pairs of
    distinct particles, sum_{i != j} h_ij m_i m_j + sum_i h_ii m_i (m_i - 1).
    A pair count of 0 adds nothing, also where h is infinite."""
    total = Fraction(0)
    for i, j in itertools.product(range(len(m)), repeat=2):
        count = m[i] * (m[j] - (i == j))
        if count == 0:
            continue
        if h[i][j] == math.inf:
            return math.inf
        total += count * h[i][j]
    return total


def pp_oracle(target, objective=None):
    """(verdict, optimum) of `exact_simplex` over every admissible
    configuration of a pp target without a hard-core distance, enumerated
    and turned into moment columns here. The optimum minimises
    `objective` over the configurations where it is finite, and is +inf
    when those cannot realise the target."""
    n, per_point = target.n, 1 if target.simple else target.cap
    configs = [
        Configuration(m)
        for m in itertools.product(range(per_point + 1), repeat=n)
        if sum(m) <= target.cap
    ]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]

    def column(m):
        col = [Fraction(m[i] * (m[j] - (i == j))) for i, j in pairs]
        return col + ([Fraction(v) for v in m] if target.rho1 is not None else []) + [Fraction(1)]

    b = [target.rho_value(i, j) for i, j in pairs] + list(target.rho1 or []) + [Fraction(1)]
    cols = [column(c.multiplicity) for c in configs]
    if exact_simplex(cols, b).status == "infeasible":
        return "infeasible", None
    if objective is None:
        return "feasible", None
    finite = [(col, objective(c)) for col, c in zip(cols, configs) if objective(c) != math.inf]
    res = exact_simplex([col for col, _ in finite], b, obj=[v for _, v in finite])
    return "feasible", res.objective if res.status == "optimal" else math.inf


def random_metric_space(rng: random.Random, n: int, denominator: int = 4) -> FiniteMetricSpace:
    """Random rational metric via shortest-path closure of a positive matrix."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 4 * denominator), denominator)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return make_space(d)


def random_two_point_target(rng: random.Random, n: int) -> TwoPointTarget:
    """Either the exact moments of a random mixture (feasible) or a random
    symmetric matrix from a coarse grid (frequently infeasible)."""
    if rng.random() < 0.5:
        return mixture_moments_target(rng, n)
    denom = rng.choice([4, 8])
    p = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = Fraction(rng.randint(0, denom), denom)
        for j in range(i + 1, n):
            p[i][j] = p[j][i] = Fraction(rng.randint(0, denom), denom)
    return TwoPointTarget.from_matrix(p)


def mixture_moments_target(rng: random.Random, n: int) -> TwoPointTarget:
    """Moments of a random subset mixture, computed here by hand."""
    k = rng.randint(1, 8)
    masks = [rng.randrange(1 << n) for _ in range(k)]
    weights = [Fraction(rng.randint(1, 9)) for _ in range(k)]
    total = sum(weights)
    weights = [w / total for w in weights]
    p = [[Fraction(0)] * n for _ in range(n)]
    for mask, w in zip(masks, weights):
        members = [i for i in range(n) if (mask >> i) & 1]
        for i in members:
            for j in members:
                if i <= j:
                    p[i][j] += w
    for i in range(n):
        for j in range(i + 1, n):
            p[j][i] = p[i][j]
    return TwoPointTarget.from_matrix(p, validate_range=False)


def random_simple_config_mixture(rng: random.Random, n: int, cap: int):
    """A random law on simple configurations: (atoms, weights)."""
    k = rng.randint(1, 6)
    atoms = []
    for _ in range(k):
        size = rng.randint(0, min(cap, n))
        support = rng.sample(range(n), size)
        m = [0] * n
        for i in support:
            m[i] = 1
        atoms.append(Configuration(tuple(m)))
    weights = [Fraction(rng.randint(1, 9)) for _ in atoms]
    total = sum(weights)
    weights = [w / total for w in weights]
    merged: dict[tuple, Fraction] = {}
    for cfg, w in zip(atoms, weights):
        merged[cfg.multiplicity] = merged.get(cfg.multiplicity, Fraction(0)) + w
    return [(Configuration(m), w) for m, w in sorted(merged.items())]
