"""Realisability of two-point covering probabilities on a finite carrier.

A target is an n x n symmetric matrix p with p[i][j] = P{x_i, x_j in xi}
and the diagonal holding the one-point probabilities. The decision problem
is linear-programming feasibility over the 2^n deterministic subsets:

    q >= 0,  sum_F q_F = 1,  sum_F q_F 1{i,j in F} = p_ij  (i <= j).

Feasible targets come back with an explicit mixture whose moments are
reproduced exactly in rational arithmetic; infeasible ones come back with
a certificate (c, a) whose induced set functional is non-negative on every
subset while its pairing with p is negative — re-verified exactly before
being returned, whatever path produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InvalidGroup, InvalidInstance
from .lp import exact_simplex, float_phase1, solve_nonneg_exact
from .numbers import parse_rational, validate_mixture
from .qubo import MAX_N, _mask_to_subset, evaluate_g, pair_list, qubo_min, qubo_topk_float

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
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise InvalidInstance("p must be a non-empty square matrix")
        p = []
        for i, row in enumerate(rows):
            conv = []
            for j, v in enumerate(row):
                fr = v if isinstance(v, Fraction) else parse_rational(v, f"/p/{i}/{j}")
                if validate_range and not (0 <= fr <= 1):
                    raise InvalidInstance(f"/p/{i}/{j}: probability {fr} outside [0,1]")
                conv.append(fr)
            p.append(tuple(conv))
        for i in range(n):
            for j in range(i + 1, n):
                if p[i][j] != p[j][i]:
                    raise InvalidInstance(f"p not symmetric at ({i},{j})")
        return TwoPointTarget(tuple(p))

    @staticmethod
    def from_json(obj: dict) -> "TwoPointTarget":
        if not isinstance(obj, dict) or "p" not in obj:
            raise InvalidInstance("target: expected key 'p'")
        return TwoPointTarget.from_matrix(obj["p"])

    def frechet_violations(self) -> list[tuple[str, int, int]]:
        """Necessary bounds max(0, p_i+p_j-1) <= p_ij <= min(p_i, p_j)."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
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

    def validate(self, tol: float = 1e-12) -> None:
        validate_mixture(self.atoms, "subsets", tol)

    def is_exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for _, w in self.atoms)


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Witness (c, a): min_F [c + sum_{i<=j} a_ij 1{i,j in F}] >= 0 yet the
    pairing with the target is -gap < 0. Normalised so max |a_ij| = 1."""

    n: int
    c: Fraction
    a: tuple[tuple[Fraction, ...], ...]
    gap: Fraction
    minimizer: frozenset[int]

    def pairing(self, target: TwoPointTarget) -> Fraction:
        total = self.c
        for i in range(self.n):
            for j in range(i, self.n):
                total += self.a[i][j] * target.p[i][j]
        return total


@dataclass
class RealizeResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    mixture: SubsetMixture | None = None
    certificate: InfeasibilityCertificate | None = None
    residual: object | None = None
    gap: object | None = None
    note: str | None = None
    method: str = ""


@dataclass(frozen=True)
class RealizeOptions:
    max_exact: int = 15
    tol: float = 1e-9
    force_column_generation: bool = False
    max_iterations: int = 2000


def _column_matrix(masks: Sequence[int], n: int) -> np.ndarray:
    """Float constraint matrix: one row per pair (i <= j), then the total-mass row."""
    masks_arr = np.asarray(masks, dtype=np.int64)
    rows = []
    for i, j in pair_list(n):
        rows.append((((masks_arr >> i) & 1) & ((masks_arr >> j) & 1)).astype(float))
    rows.append(np.ones(len(masks)))
    return np.vstack(rows)


def _exact_column(mask: int, n: int) -> list[Fraction]:
    col = []
    for i, j in pair_list(n):
        col.append(Fraction(1) if (mask >> i) & 1 and (mask >> j) & 1 else Fraction(0))
    col.append(Fraction(1))
    return col


def _rhs(target: TwoPointTarget) -> list[Fraction]:
    return [target.p[i][j] for i, j in pair_list(target.n)] + [Fraction(1)]


def _subset_sort_key(subset: frozenset[int]):
    return tuple(sorted(subset))


def _mixture_from_weights(masks: Sequence[int], weights, n: int) -> SubsetMixture:
    atoms = [(_mask_to_subset(mask), w) for mask, w in zip(masks, weights) if w > 0]
    atoms.sort(key=lambda kv: _subset_sort_key(kv[0]))
    return SubsetMixture(n=n, atoms=tuple(atoms))


def moments_of_mixture(mix: SubsetMixture) -> TwoPointTarget:
    """Forward map: p_hat[i][j] = sum of weights of subsets containing both.

    Float weights are promoted to exact fractions (binary floats are
    rationals), so the output is always an exact matrix.
    """
    n = mix.n
    acc = [[Fraction(0)] * n for _ in range(n)]
    for subset, w in mix.atoms:
        wf = w if isinstance(w, Fraction) else Fraction(w)
        for i in subset:
            for j in subset:
                if i <= j:
                    acc[i][j] += wf
    for i in range(n):
        for j in range(i + 1, n):
            acc[j][i] = acc[i][j]
    return TwoPointTarget.from_matrix(acc, validate_range=False)


def certificate_from_dual(
    y: Sequence, target: TwoPointTarget
) -> InfeasibilityCertificate | None:
    """Exact certificate out of a (possibly float) Farkas dual.

    The quadratic coefficients are negated dual prices, normalised to
    max |a| = 1; the constant is re-derived as minus the exact minimum of
    the quadratic part, which makes the non-negativity half hold by
    construction. Returns None when the pairing fails to be negative.
    """
    n = target.n
    pairs = pair_list(n)
    a = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), yv in zip(pairs, y):
        val = yv if isinstance(yv, Fraction) else Fraction(float(yv))
        a[i][j] = -val
        a[j][i] = -val
    scale = max(abs(a[i][j]) for i, j in pairs)
    if scale == 0:
        return None
    for i, j in pairs:
        a[i][j] = a[i][j] / scale
        a[j][i] = a[i][j]
    minimizer, mval = qubo_min(Fraction(0), a, n)
    c = -mval
    pairing = c + sum((a[i][j] * target.p[i][j] for i, j in pairs), Fraction(0))
    if pairing >= 0:
        return None
    a_t = tuple(tuple(row) for row in a)
    return InfeasibilityCertificate(n=n, c=c, a=a_t, gap=-pairing, minimizer=minimizer)


def verify_certificate(
    cert: InfeasibilityCertificate, target: TwoPointTarget
) -> tuple[bool, str]:
    """Independent exact re-verification of every certificate invariant."""
    n = cert.n
    if n != target.n:
        return False, "certificate size does not match target"
    if len(cert.a) != n or any(len(row) != n for row in cert.a):
        return False, "coefficient matrix has wrong shape"
    for i in range(n):
        for j in range(i + 1, n):
            if cert.a[i][j] != cert.a[j][i]:
                return False, f"coefficient matrix not symmetric at ({i},{j})"
    pairs = pair_list(n)
    if max(abs(cert.a[i][j]) for i, j in pairs) != 1:
        return False, "normalisation violated: max |a_ij| must equal 1"
    minimizer, mval = qubo_min(cert.c, cert.a, n)
    if mval < 0:
        return False, f"functional attains {mval} < 0 at subset {sorted(minimizer)}"
    stored = evaluate_g(cert.c, cert.a, cert.minimizer)
    if stored != mval:
        return False, "stored minimizer does not attain the global minimum"
    pairing = cert.pairing(target)
    if pairing >= 0:
        return False, f"pairing with the target is {pairing} >= 0"
    if -pairing != cert.gap:
        return False, "stored gap does not match the recomputed pairing"
    return True, "certificate valid"


def _frechet_certificate(target: TwoPointTarget) -> InfeasibilityCertificate:
    kind, i, j = target.frechet_violations()[0]
    n = target.n
    a = [[Fraction(0)] * n for _ in range(n)]
    if kind == "upper":
        k = i if target.p[i][i] <= target.p[j][j] else j
        other = j if k == i else i
        lo, hi = min(k, other), max(k, other)
        a[k][k] = Fraction(1)
        a[lo][hi] = Fraction(-1)
        a[hi][lo] = Fraction(-1)
        c = Fraction(0)
    else:
        a[i][i] = Fraction(-1)
        a[j][j] = Fraction(-1)
        a[i][j] = Fraction(1)
        a[j][i] = Fraction(1)
        c = Fraction(1)
    a_t = tuple(tuple(row) for row in a)
    minimizer, mval = qubo_min(c, a_t, n)
    assert mval == 0
    cert = InfeasibilityCertificate(
        n=n, c=c, a=a_t, gap=Fraction(0), minimizer=minimizer
    )
    return replace(cert, gap=-cert.pairing(target))


def _reconstruct_exact_mixture(
    masks: Sequence[int], q_float: np.ndarray, target: TwoPointTarget
) -> SubsetMixture | None:
    """Exact non-negative solution on the float support (heaviest first)."""
    b = _rhs(target)
    order = np.argsort(-q_float, kind="stable")
    support = [int(k) for k in order if q_float[k] > 1e-11]
    if not support:
        support = [0]
    chosen = set(support)
    wider = support + [
        int(k) for k in order if q_float[k] > 1e-13 and int(k) not in chosen
    ]
    for attempt in (support, wider):
        cols = [_exact_column(masks[k], target.n) for k in attempt]
        q = solve_nonneg_exact(cols, b)
        if q is not None:
            sel_masks = [masks[k] for k in attempt]
            return _mixture_from_weights(sel_masks, q, target.n)
    return None


def _exact_column_generation(target: TwoPointTarget, seed_masks: Iterable[int]) -> RealizeResult:
    """Fully rational column generation: exact masters, exact pricing.

    Feasibility of a restricted master proves global feasibility; an exact
    Farkas dual priced out over all 2^n subsets proves global infeasibility,
    and every iteration strictly enlarges the master, so this terminates
    with a definite verdict.
    """
    n = target.n
    b = _rhs(target)
    masks = sorted(set(seed_masks) | {0, (1 << n) - 1} | {1 << i for i in range(n)})
    known = set(masks)
    while True:
        cols = [_exact_column(mask, n) for mask in masks]
        res = exact_simplex(cols, b)
        if res.status == "optimal":
            mix = _mixture_from_weights(masks, res.x, n)
            return RealizeResult(
                status="feasible",
                mixture=mix,
                residual=Fraction(0),
                note=FINITE_CARRIER_NOTE,
                method="exact-column-generation",
            )
        y = res.farkas
        # price y over all subsets: max_F y.A_F = -min_F (-y).A_F
        a = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), yv in zip(pair_list(n), y):
            a[i][j] = -yv
            a[j][i] = -yv
        best_subset, best_val = qubo_min(-y[-1], a, n)
        if -best_val <= 0:
            cert = certificate_from_dual(y, target)
            if cert is None:
                raise RuntimeError("exact Farkas vector failed certification")
            return RealizeResult(
                status="infeasible",
                certificate=cert,
                gap=cert.gap,
                method="exact-column-generation",
            )
        new_mask = sum(1 << i for i in best_subset)
        if new_mask in known:
            raise RuntimeError("pricing returned a known column; dual was not optimal")
        known.add(new_mask)
        masks.append(new_mask)


def _realize_exact(target: TwoPointTarget, opts: RealizeOptions) -> RealizeResult:
    n = target.n
    masks = list(range(1 << n))
    A = _column_matrix(masks, n)
    b = np.array([float(v) for v in _rhs(target)])
    obj, q, y = float_phase1(A, b)
    if obj < 1e-7:
        mix = _reconstruct_exact_mixture(masks, q, target)
        if mix is not None:
            return RealizeResult(
                status="feasible",
                mixture=mix,
                residual=Fraction(0),
                note=FINITE_CARRIER_NOTE,
                method="enumeration",
            )
    else:
        cert = certificate_from_dual(y[:-1], target)
        if cert is not None:
            return RealizeResult(
                status="infeasible", certificate=cert, gap=cert.gap, method="enumeration"
            )
    # float presolve was inconclusive; fall back to the always-exact engine
    support = [masks[k] for k in np.flatnonzero(q > 1e-11)] if obj < 1e-7 else []
    return _exact_column_generation(target, support)


def _realize_cg_float(target: TwoPointTarget, opts: RealizeOptions) -> RealizeResult:
    """Restricted master + pricing in floats, verdicts re-verified exactly.

    The master is degenerate on these instances (new columns often enter at
    weight zero), so columns accumulate and are only evicted above a
    watermark, never the ones added in the latest round; pricing adds a
    batch of the most violated subsets per round.
    """
    n = target.n
    if n > MAX_N:
        raise CapExceeded(f"carrier too large for the exact pricing oracle (n > {MAX_N})")
    b_exact = _rhs(target)
    b = np.array([float(v) for v in b_exact])
    m_rows = len(b_exact)
    seeds = frozenset({0, (1 << n) - 1} | {1 << i for i in range(n)})
    masks = sorted(seeds)
    fresh: set[int] = set()
    best_gap: float | None = None
    batch = 8 if n <= 20 else 1
    for _ in range(opts.max_iterations):
        A = _column_matrix(masks, n)
        obj, q, y = float_phase1(A, b)
        if obj < max(opts.tol, 1e-9):
            mix = _reconstruct_exact_mixture(masks, q, target)
            if mix is not None:
                return RealizeResult(
                    status="feasible",
                    mixture=mix,
                    residual=Fraction(0),
                    note=FINITE_CARRIER_NOTE,
                    method="column-generation",
                )
            # no exact solution on the float support; fall back to the always-exact engine
            return _exact_column_generation(target, [masks[k] for k in np.flatnonzero(q > 1e-11)])
        # pricing: the most violated subsets under the current dual prices
        a = [[0.0] * n for _ in range(n)]
        for (i, j), yv in zip(pair_list(n), y[:-1]):
            a[i][j] = -float(yv)
            a[j][i] = -float(yv)
        priced = qubo_topk_float(-float(y[-1]), a, n, batch)
        known = set(masks)
        new_masks = [
            mask for mask, val in priced if -val > opts.tol and mask not in known
        ]
        if not new_masks:
            cert = certificate_from_dual(y[:-1], target)
            if cert is not None:
                return RealizeResult(
                    status="infeasible",
                    certificate=cert,
                    gap=cert.gap,
                    method="column-generation",
                )
            best_gap = float(y @ b)
            break
        if len(masks) > 4 * m_rows:
            masks = [
                mask
                for k, mask in enumerate(masks)
                if mask in seeds or mask in fresh or q[k] > 1e-12
            ]
        fresh = set(new_masks)
        masks.extend(new_masks)
    return RealizeResult(
        status="indeterminate",
        gap=best_gap,
        note="could not classify within tolerance",
        method="column-generation",
    )


def realize_subsets(target: TwoPointTarget, opts: RealizeOptions | None = None) -> RealizeResult:
    """Decide realisability of a two-point covering target.

    Exact mode (n <= opts.max_exact) enumerates all subsets and never
    returns indeterminate on rational input; larger carriers go through
    column generation with exact post-verification of whichever verdict
    the float machinery produces.
    """
    opts = opts or RealizeOptions()
    n = target.n
    if target.frechet_violations():
        cert = _frechet_certificate(target)
        return RealizeResult(
            status="infeasible",
            certificate=cert,
            gap=cert.gap,
            note="necessary two-point bound violated; no LP solve needed",
            method="frechet-screen",
        )
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
            residual=Fraction(0),
            note=FINITE_CARRIER_NOTE,
            method="degenerate",
        )
    if opts.force_column_generation or n > opts.max_exact:
        return _realize_cg_float(target, opts)
    return _realize_exact(target, opts)


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
    acc: dict[frozenset[int], object] = {}
    exact = mix.is_exact()
    for g in group:
        for subset, w in mix.atoms:
            image = frozenset(g[i] for i in subset)
            share = (Fraction(w) / size) if exact else (w / size)
            acc[image] = acc.get(image, Fraction(0) if exact else 0.0) + share
    atoms = sorted(acc.items(), key=lambda kv: _subset_sort_key(kv[0]))
    return SubsetMixture(n=mix.n, atoms=tuple((s, w) for s, w in atoms if w > 0))


def product_form_mixture(p_vec: Sequence) -> SubsetMixture:
    """Independent-coordinates distribution with given one-point probabilities."""
    probs = [v if isinstance(v, Fraction) else parse_rational(v) for v in p_vec]
    n = len(probs)
    if n > 15:
        raise CapExceeded("explicit product support is capped at 15 points")
    for k, v in enumerate(probs):
        if not (0 <= v <= 1):
            raise InvalidInstance(f"one-point probability {v} at {k} outside [0,1]")
    atoms = []
    for mask in range(1 << n):
        w = Fraction(1)
        for i in range(n):
            w *= probs[i] if (mask >> i) & 1 else (1 - probs[i])
            if w == 0:
                break
        if w > 0:
            atoms.append((_mask_to_subset(mask), w))
    atoms.sort(key=lambda kv: _subset_sort_key(kv[0]))
    return SubsetMixture(n=n, atoms=tuple(atoms))
