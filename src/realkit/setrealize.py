"""Realisability of two-point covering probabilities on a finite carrier.

A target is an n x n symmetric matrix p with p[i][j] = P{x_i, x_j in xi}
and the diagonal holding the one-point probabilities. The decision problem
is linear-programming feasibility over the 2^n deterministic subsets:

    q >= 0,  sum_F q_F = 1,  sum_F q_F 1{i,j in F} = p_ij  (i <= j).

Feasible targets come back with an explicit mixture whose moments are
reproduced exactly in rational arithmetic; infeasible ones come back with
an `lp.Certificate` (c, a) whose induced set functional is non-negative on
every subset while its pairing with p is negative. `realize_subsets` does
not re-verify a certificate before returning it; its construction is the
proof. Every certificate, from a screen or from the LP, is an exact
vector whose constant c is set by `lp.exact_farkas` to minus the exact
maximum of the pair part, which `qubo_min` computes over all 2^n subsets,
so the functional's minimum is exactly 0. A negative pairing is what each
path establishes in rationals: a screen from a violated Fréchet bound,
triangle facet or square, whose own constant is never below c; the LP
from an exact Farkas vector, whose pairing with the target is checked.
`verify_certificate` re-checks any certificate from scratch through
`lp.check_certificate`, and the tests do so for every path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CapExceeded, InvalidGroup, InvalidInstance
from .lp import (
    FLOAT_TOL, Certificate, RealizeResult, certificate, check_certificate, column_generation,
    negative_direction, screen, verdict,
)
from .numbers import field, parse_square, validate_mixture
from .qubo import MAX_N, _mask_to_subset, pair_list, pair_matrix, qubo_min, qubo_topk_float

FINITE_CARRIER_NOTE = (
    "verdict is for random subsets of the finite carrier; closedness or "
    "upper semicontinuity on a continuum is not assessed"
)


@dataclass(frozen=True)
class TwoPointTarget:
    """Symmetric covering-probability matrix; diagonal = one-point probabilities."""

    p: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return len(self.p)

    @staticmethod
    def from_matrix(rows: Sequence[Sequence], validate_range: bool = True) -> "TwoPointTarget":
        """The target of a square matrix of rational-like entries."""
        return TwoPointTarget._checked(parse_square([list(r) for r in rows], "/p"), validate_range)

    @staticmethod
    def from_json(obj: dict) -> "TwoPointTarget":
        return TwoPointTarget._checked(parse_square(field(obj, "p", "target"), "/p"))

    @staticmethod
    def _checked(p: tuple[tuple[Fraction, ...], ...], validate_range: bool = True):
        # the upper triangle holds the first failure: a lower entry equals its checked mirror
        in_range = set()  # ids of the entries found in [0,1]
        for i, row in enumerate(p):
            for j in range(i, len(row)):
                v, w = row[j], p[j][i]
                if validate_range and id(v) not in in_range:
                    if not (0 <= v <= 1):
                        raise InvalidInstance(f"/p/{i}/{j}: probability {v} outside [0,1]")
                    in_range.add(id(v))
                if v is not w and v != w:
                    raise InvalidInstance(f"p not symmetric at ({i},{j})")
        return TwoPointTarget(p)

    @cached_property
    def p_float(self) -> np.ndarray:
        """p in floats, built on first use, for the screens to read."""
        return np.array(self.p, dtype=float)

    def rhs(self) -> list[Fraction]:
        """The LP's right-hand side: p_ij on the pairs i <= j, then 1."""
        return [self.p[i][j] for i, j in pair_list(self.n)] + [Fraction(1)]

    def frechet_violations(self) -> list[tuple[str, int, int]]:
        """The pairs i < j, in row order, that break a necessary bound
        max(0, p_i+p_j-1) <= p_ij <= min(p_i, p_j). Candidates are located
        in floats and each is confirmed in rationals."""
        P = self.p_float
        d = np.diag(P)
        near = (P - np.minimum.outer(d, d) > -FLOAT_TOL) | (np.add.outer(d, d) - 1 - P > -FLOAT_TOL)
        out = []
        for i, j in zip(*np.nonzero(np.triu(near, 1))):
            i, j = int(i), int(j)
            pij = self.p[i][j]
            if pij > min(self.p[i][i], self.p[j][j]):
                out.append(("upper", i, j))
            elif pij < self.p[i][i] + self.p[j][j] - 1:
                out.append(("lower", i, j))
        return out


@dataclass(frozen=True)
class SubsetMixture:
    """Finitely supported distribution over subsets of the carrier."""

    n: int
    atoms: tuple[tuple[frozenset[int], object], ...]  # (subset, weight)

    def validate(self) -> None:
        validate_mixture(self.atoms, "subsets")


class _SubsetOracle:
    """The columns of the set LP of `target` for `lp.column_generation`,
    keyed by subset bitmask: one row per pair (i <= j), then the total-mass
    row. Float pricing by `qubo_topk_float`, exact by `qubo_min`, whose
    ties go to the lexicographically smallest sorted subset."""

    def __init__(self, target: TwoPointTarget):
        self.target = target
        self.n = target.n
        self.size = 1 << target.n

    def matrix(self, masks: list[int]) -> np.ndarray:
        i, j = np.array(pair_list(self.n)).T
        # bits[i, F] = 1{i in F}, one whole-array operation per step
        bits = ((np.asarray(masks, dtype=np.int64) >> np.arange(self.n)[:, None]) & 1).astype(bool)
        out = np.ones((len(i) + 1, len(masks)))
        out[:-1] = bits[i] & bits[j]
        return out

    def column(self, mask: int) -> list[int]:
        return [(mask >> i) & (mask >> j) & 1 for i, j in pair_list(self.n)] + [1]

    def price(self, y: np.ndarray, k: int) -> list[int]:
        # y.A_F = -(functional with c = -y_norm, a = -y_pairs) at F
        a = pair_matrix(self.n, [-float(v) for v in y[:-1]])
        priced = qubo_topk_float(-float(y[-1]), a, self.n, k)
        return [mask for mask, val in priced if -val > FLOAT_TOL]

    def best(self, y: list[int]) -> tuple[int, int]:
        # integer input makes qubo_min's minimum an integer
        subset, low = qubo_min(-y[-1], pair_matrix(self.n, [-v for v in y[:-1]]), self.n)
        return sum(1 << i for i in subset), -int(low)

    def certify(self, y: list[int], mask: int) -> Certificate:
        return certificate_from_dual(y, mask, self.target)

    def mixture(self, masks: list[int], weights: list[Fraction]) -> SubsetMixture:
        atoms = [(_mask_to_subset(mask), w) for mask, w in zip(masks, weights) if w > 0]
        atoms.sort(key=lambda kv: _subset_sort_key(kv[0]))
        return SubsetMixture(n=self.n, atoms=tuple(atoms))

    def key(self, members: tuple[int, ...]) -> int | None:
        """The bitmask of distinct indices in range(n), else None."""
        if len(set(members)) < len(members) or not all(0 <= i < self.n for i in members):
            return None
        return sum(1 << i for i in members)

    def name(self, mask: int) -> str:
        return f"subset {sorted(_mask_to_subset(mask))}"


def _subset_sort_key(subset: frozenset[int]):
    return tuple(sorted(subset))


def moments_of_mixture(mix: SubsetMixture) -> TwoPointTarget:
    """Forward map: p_hat[i][j] = sum of weights of subsets containing both."""
    n = mix.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    for subset, w in mix.atoms:
        for i in subset:
            for j in subset:
                if i <= j:
                    acc[i][j] += w
    for i in range(n):
        for j in range(i + 1, n):
            acc[j][i] = acc[i][j]
    return TwoPointTarget.from_matrix(acc, validate_range=False)


def certificate_from_dual(y: Sequence[int], witness: int, target: TwoPointTarget) -> Certificate:
    """`lp.certificate` of an exact Farkas vector, minimal at the subset
    with bitmask `witness`."""
    return certificate("set", y, tuple(i for i in range(target.n) if witness >> i & 1), target)


def verify_certificate(cert: Certificate, target: TwoPointTarget) -> tuple[bool, str]:
    """`lp.check_certificate` over subsets: the minimum comes from `qubo_min`."""
    return check_certificate(cert, _SubsetOracle(target))


def _frechet_functional(target: TwoPointTarget):
    """(a, ()) of the first violated Fréchet bound, p_ij <= p_k (constant 0) or
    p_i + p_j - p_ij <= 1 (constant 1), or None."""
    violations = target.frechet_violations()
    if not violations:
        return None
    kind, i, j = violations[0]
    if kind == "upper":
        k = i if target.p[i][i] <= target.p[j][j] else j
        return {(k, k): 1, (i, j): -1}, ()
    return {(i, i): -1, (j, j): -1, (i, j): 1}, ()


def _triangle_functional(target: TwoPointTarget):
    """(a, ()) of a violated triangle facet of the correlation polytope, or
    None: p_i + p_j + p_k - p_ij - p_ik - p_jk <= 1, and p_ij + p_ik - p_jk
    <= p_i with apex i (Deza & Laurent, Geometry of Cuts and Metrics,
    1997). Violations are located in floats, largest first, and each is
    confirmed in rationals."""
    n = target.n
    if n < 3:
        return None
    P = target.p_float
    d = np.diag(P)
    r = np.arange(n)
    i, j, k = r[:, None, None], r[None, :, None], r[None, None, :]
    # excess[0, i, j, k] of the first facet over i < j < k, excess[1, i, j, k]
    # of the second with apex i over j < k
    excess = np.stack([
        d[i] + d[j] + d[k] - P[i, j] - P[i, k] - P[j, k] - 1,
        P[i, j] + P[i, k] - P[j, k] - d[i],
    ])
    excess[0][~((i < j) & (j < k))] = -np.inf
    excess[1][~((j < k) & (i != j) & (i != k))] = -np.inf
    if excess.max() <= FLOAT_TOL:
        return None
    for pos in np.argsort(-excess, axis=None, kind="stable"):
        facet, x, y, z = (int(v) for v in np.unravel_index(pos, excess.shape))
        if excess[facet, x, y, z] <= FLOAT_TOL:
            return None
        if facet == 0:
            c = 1
            a = {(x, x): -1, (y, y): -1, (z, z): -1, (x, y): 1, (x, z): 1, (y, z): 1}
        else:
            c = 0
            a = {(x, x): 1, (min(x, y), max(x, y)): -1, (min(x, z), max(x, z)): -1, (y, z): 1}
        if c + sum(v * target.p[e][f] for (e, f), v in a.items()) < 0:
            return a, ()
    return None


def _psd_functional(target: TwoPointTarget):
    """(a, ()) of a square G(F) = (v_0 + sum_{i in F} v_i)^2, whose constant is
    v_0^2, with a negative pairing v.M.v, M = [[1, p_i], [p_i, p_ij]] being
    the second-moment matrix of (1, 1{i in F}), or None."""
    n = target.n
    M = [[Fraction(1), *(target.p[i][i] for i in range(n))]]
    M += [[target.p[i][i], *target.p[i]] for i in range(n)]
    v = negative_direction(M)
    if v is None:
        return None
    v0, v = v[0], v[1:]
    a = {(i, i): 2 * v0 * v[i] + v[i] * v[i] for i in range(n)}
    a.update({(i, j): 2 * v[i] * v[j] for i, j in itertools.combinations(range(n), 2)})
    return a, ()


# (method, functional, note): each screen proves infeasibility without an LP
SCREENS = (
    ("frechet-screen", _frechet_functional,
     "necessary two-point bound violated; no LP solve needed"),
    ("triangle-screen", _triangle_functional,
     "triangle inequality of the correlation polytope violated; no LP solve needed"),
    ("psd-screen", _psd_functional,
     "moment matrix not positive semidefinite; no LP solve needed"),
)


def _screen(target: TwoPointTarget) -> RealizeResult | None:
    """The verdict of the first of SCREENS that fires, or None, by
    `lp.screen`: the constant is minus the exact minimum of the pair part
    from `qubo_min`, and `certificate_from_dual` scales to max |a| = 1."""
    return screen(SCREENS, _SubsetOracle(target))


def realize_subsets(target: TwoPointTarget, max_exact: int = 12) -> RealizeResult:
    """Decide realisability of a two-point covering target.

    Exact screens run first, in this order, and the first that fires
    returns its certificate without an LP: a violated Fréchet bound
    ("frechet-screen"), a violated triangle facet ("triangle-screen") and
    a moment matrix [[1, p_i], [p_i, p_ij]] that is not positive
    semidefinite ("psd-screen"). A screen only fires on an exactly
    confirmed violation, so it never answers a feasible target.

    One column-generation driver decides every target that passes them:
    for n <= max_exact its first master holds all 2^n subsets (one
    HiGHS solve, "enumeration"), larger carriers start from the empty set,
    the full set and the singletons ("column-generation"). Either way the
    verdict is exact; a float answer that rational arithmetic cannot
    confirm is finished by exact masters and exact pricing
    ("exact-column-generation").
    """
    n = target.n
    if n > MAX_N:  # every certificate and every priced column needs qubo_min
        raise CapExceeded(f"carrier too large for the exact pricing oracle (n > {MAX_N})")
    screened = _screen(target)
    if screened is not None:
        return screened
    if n == 1:
        p1 = target.p[0][0]
        atoms = []
        if 1 - p1 > 0:
            atoms.append((frozenset(), 1 - p1))
        if p1 > 0:
            atoms.append((frozenset({0}), p1))
        return RealizeResult(
            status="feasible",
            mixture=SubsetMixture(n=1, atoms=tuple(atoms)),
            note=FINITE_CARRIER_NOTE,
            method="degenerate",
        )
    if n > max_exact:
        method = "column-generation"
        seed = sorted({0, (1 << n) - 1} | {1 << i for i in range(n)})
    else:
        method = "enumeration"
        seed = list(range(1 << n))
    oracle = _SubsetOracle(target)
    res = column_generation(oracle, target.rhs(), seed)
    return verdict(res, method, oracle, FINITE_CARRIER_NOTE)


def validate_group(perms: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Check a permutation list is a group acting on range(n)."""
    group = []
    for k, perm in enumerate(perms):
        t = tuple(perm)
        if sorted(t) != list(range(n)):
            raise InvalidGroup(f"entry {k} is not a permutation of range({n})")
        group.append(t)
    gset = set(group)
    if len(gset) != len(group):
        raise InvalidGroup("duplicate group elements")
    ident = tuple(range(n))
    if ident not in gset:
        raise InvalidGroup("identity permutation missing")
    for g in group:
        inv = tuple(sorted(range(n), key=lambda i: g[i]))
        if inv not in gset:
            raise InvalidGroup(f"inverse of {g} missing")
        for h in group:
            comp = tuple(g[h[i]] for i in range(n))
            if comp not in gset:
                raise InvalidGroup(f"composition of {g} and {h} missing")
    return group


def symmetrize(mix: SubsetMixture, perms: Sequence[Sequence[int]]) -> SubsetMixture:
    """Average the mixture over a finite permutation group.

    The output is a fixed point of every group element; when the target
    moments are invariant under the group, the moments are preserved.
    """
    group = validate_group(perms, mix.n)
    size = len(group)
    acc: dict[frozenset[int], Fraction] = {}
    for g in group:
        for subset, w in mix.atoms:
            image = frozenset(g[i] for i in subset)
            acc[image] = acc.get(image, Fraction(0)) + Fraction(w) / size
    atoms = sorted(acc.items(), key=lambda kv: _subset_sort_key(kv[0]))
    return SubsetMixture(n=mix.n, atoms=tuple((s, w) for s, w in atoms if w > 0))
