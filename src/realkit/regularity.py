"""Numeric checkers for the integrability side of realisability.

Everything here is a weighted sum over the atoms of a measure: distance
weights psi(d), packing numbers, inverse-power norms over growing balls, and
the split verdict that pairs an integral bound with the positivity LP.
+inf is a plain value, `math.inf` (psi may be infinite near zero): it
compares exactly with a Fraction, so the checks compare with it like any
other number. Arithmetic is the exception: a Fraction added to or
multiplied by inf is first converted to a float, which overflows above the
largest float and gives 0.0 (so nan) below the smallest. A sum that can
meet inf therefore stops at its first infinite term or goes through
`_enc_add_scaled`, where an infinite end absorbs; every scale is positive
(zero weights are dropped at ingestion, beta is checked positive), so
absorbing is exact. Odd-dimensional norms are irrational, so those sums come
back as enclosures [lo, hi] and a verdict is only drawn when the whole
enclosure sits on one side of the bound.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InvalidBeta, InvalidInstance, InvalidPsi
from .metric import FiniteMetricSpace, packing_number
from .numbers import (
    INF, field, norm_sq, parse_list, parse_rational, pow_neg_half_d,
)
from .lp import RealizeResult
from .pp import CorrelationTarget, realize_pinned


@dataclass(frozen=True)
class PsiFunction:
    """Non-increasing right-continuous step weight on [0, inf).

    steps[k] = (t_k, v_k) means the function equals v_k on [t_k, t_{k+1});
    the first threshold must be 0 and values may be +inf on an initial
    stretch (the hard-core encoding).
    """

    steps: tuple[tuple[Fraction, object], ...]

    def __post_init__(self):
        if not self.steps:
            raise InvalidPsi("psi needs at least one step")
        if self.steps[0][0] != 0:
            raise InvalidPsi("the first psi threshold must be 0")
        prev_t = None
        prev_v = None
        for t, v in self.steps:
            if t < 0:
                raise InvalidPsi("psi thresholds must be non-negative")
            if v < 0:
                raise InvalidPsi("psi values must be non-negative")
            if prev_t is not None and t <= prev_t:
                raise InvalidPsi("psi thresholds must increase strictly")
            if prev_v is not None and v > prev_v:
                raise InvalidPsi("psi must be non-increasing")
            prev_t, prev_v = t, v

    @staticmethod
    def from_json(obj: dict) -> "PsiFunction":
        steps = []
        for k, pair in enumerate(parse_list(field(obj, "steps", "psi"), "/steps")):
            t, v = parse_list(pair, f"/steps/{k}", 2)
            v = INF if v == "inf" else parse_rational(v, f"/steps/{k}/1")
            steps.append((parse_rational(t, f"/steps/{k}/0"), v))
        return PsiFunction(tuple(steps))

    def thresholds(self) -> list[Fraction]:
        return [t for t, _ in self.steps]

    def value(self, t) -> object:
        """psi(t) for a rational argument."""
        if t < 0:
            raise InvalidInstance("psi evaluated at a negative distance")
        ts = self.thresholds()
        idx = bisect.bisect_right(ts, t) - 1
        return self.steps[idx][1]


def _weight(w) -> Fraction | None:
    """A non-negative atom weight; None for a zero weight, whose atom is dropped."""
    wf = parse_rational(w, "weight")
    if wf < 0:
        raise InvalidInstance("atom weights must be non-negative")
    return wf or None


def _point(x, d: int) -> tuple[Fraction, ...]:
    """A point of R^d: d >= 1 and exactly d rational coordinates."""
    if d < 1:
        raise InvalidInstance("dimension must be at least 1")
    p = tuple(parse_rational(c) for c in x)
    if len(p) != d:
        raise InvalidInstance("atom coordinates do not match the dimension")
    return p


@dataclass(frozen=True)
class AtomicMeasure2D:
    """Atomic measure on pairs: either index pairs of a finite space or
    pairs of rational points in R^d. Atoms are taken literally (an ordered
    list); builders that start from symmetric data emit both orders."""

    ambient: str  # "finite" | "euclidean"
    atoms: tuple  # (a, b, weight) with indices or coordinate tuples
    space: FiniteMetricSpace | None = None
    dim: int | None = None

    @staticmethod
    def on_space(space: FiniteMetricSpace, atoms) -> "AtomicMeasure2D":
        clean = []
        for a, b, w in atoms:
            wf = _weight(w)
            if not (0 <= a < space.n and 0 <= b < space.n):
                raise InvalidInstance(f"atom ({a},{b}) out of range")
            if wf:
                clean.append((a, b, wf))
        return AtomicMeasure2D(ambient="finite", atoms=tuple(clean), space=space)

    @staticmethod
    def euclidean(dim: int, atoms) -> "AtomicMeasure2D":
        clean = []
        for a, b, w in atoms:
            wf = _weight(w)
            pa, pb = _point(a, dim), _point(b, dim)
            if wf:
                clean.append((pa, pb, wf))
        return AtomicMeasure2D(ambient="euclidean", atoms=tuple(clean), dim=dim)

    @staticmethod
    def from_target(target: CorrelationTarget) -> "AtomicMeasure2D":
        """All ordered atoms of a correlation target (off-diagonal twice)."""
        if target.space is None:
            raise InvalidInstance("target has no metric space attached")
        atoms = []
        for i, j, w in target.atoms():
            atoms.append((i, j, w))
            if i != j:
                atoms.append((j, i, w))
        return AtomicMeasure2D.on_space(target.space, atoms)


def chi_hc_integral(rho: AtomicMeasure2D, psi: PsiFunction):
    """Sum of w * psi(distance) over the atoms of a finite-space measure; an
    infinite psi value ends it as +inf, before w * inf would turn w into a
    float."""
    if rho.ambient != "finite":
        raise InvalidInstance("chi integrals need a finite-space measure")
    total = Fraction(0)
    for a, b, w in rho.atoms:
        v = psi.value(rho.space.dist[a][b])
        if v == INF:
            return INF
        total = total + w * v
    return total


def packing_integral(rho: AtomicMeasure2D, space: FiniteMetricSpace) -> Fraction:
    """Sum of w * packing_number(d(a,b)) over the atoms."""
    if rho.ambient != "finite":
        raise InvalidInstance("packing integrals need a finite-space measure")
    total = Fraction(0)
    cache: dict[Fraction, int] = {}
    for a, b, w in rho.atoms:
        d = space.dist[a][b]
        if d not in cache:
            cache[d] = packing_number(space, d)
        total += w * cache[d]
    return total


@dataclass
class PsiAdmissibilityReport:
    profile: list  # (t, psi(t), packing(t), ratio)
    smallest_distance: Fraction | None
    ratio_at_smallest: object | None
    passes: bool


def psi_admissibility(
    psi: PsiFunction, space: FiniteMetricSpace, threshold
) -> PsiAdmissibilityReport:
    """Profile psi(t) / packing(t) over the distances that exist in the
    space and the psi breakpoints.

    The growth condition is a limit statement as t drops to 0 and cannot be
    decided from finite data; the verdict is the stated proxy: the ratio at
    the smallest positive pairwise distance must exceed the threshold.
    """
    threshold = parse_rational(threshold)
    dists = space.distance_values()
    abscissae = sorted(set(dists) | {t for t in psi.thresholds() if t > 0})
    profile = []
    for t in abscissae:
        pv = psi.value(t)
        pk = packing_number(space, t)
        profile.append((t, pv, pk, pv / pk))
    smallest = dists[0] if dists else None
    # every distance is an abscissa, so the profile holds its row
    ratio_small = next((ratio for t, _, _, ratio in profile if t == smallest), None)
    passes = ratio_small is not None and ratio_small > threshold
    return PsiAdmissibilityReport(
        profile=profile,
        smallest_distance=smallest,
        ratio_at_smallest=ratio_small,
        passes=passes,
    )


Enclosure = tuple  # (lo, hi) with Fractions or INF


def _enc_add_scaled(acc: Enclosure, s: Fraction, x: Enclosure) -> Enclosure:
    """acc + s x for s > 0, an atom weight or a beta value. An infinite end
    absorbs before any arithmetic, which would convert a Fraction to a float."""
    return tuple(INF if INF in (a, v) else a + s * v for a, v in zip(acc, x))


@dataclass
class ShellSeriesResult:
    r_values: list  # enclosures per radius
    series: Enclosure
    infinite: bool


def shell_series(
    rho: AtomicMeasure2D, radii: Sequence, beta: Sequence
) -> ShellSeriesResult:
    """Inverse-power mass over growing balls and its weighted difference series.

    r_k sums w * |x-y|^(-d) over atoms with both endpoints in the open ball
    of radius radii[k]; the series is sum_k beta[k] * (r_{k+1} - r_k). A
    diagonal atom inside some ball makes everything +inf.
    """
    if rho.ambient != "euclidean":
        raise InvalidInstance("shell series need a euclidean measure")
    radii_f = [parse_rational(r, "radius") for r in radii]
    if any(r <= 0 for r in radii_f) or any(
        radii_f[k] >= radii_f[k + 1] for k in range(len(radii_f) - 1)
    ):
        raise InvalidInstance("radii must be positive and strictly increasing")
    beta_f = [parse_rational(v, "beta") for v in beta]
    if any(v <= 0 for v in beta_f):
        raise InvalidBeta("beta must be positive")
    if any(beta_f[k] < beta_f[k + 1] for k in range(len(beta_f) - 1)):
        raise InvalidBeta("beta must be non-increasing")
    if len(beta_f) < len(radii_f) - 1:
        raise InvalidInstance("need a beta value per consecutive radius pair")

    d = rho.dim
    prepared = []
    for a, b, w in rho.atoms:
        sq_a = norm_sq(a)
        sq_b = norm_sq(b)
        val = pow_neg_half_d(norm_sq(a, b), d)
        prepared.append((sq_a, sq_b, w, val))
    r_values: list[Enclosure] = []
    for R in radii_f:
        acc: Enclosure = (Fraction(0), Fraction(0))
        R2 = R * R
        for sq_a, sq_b, w, val in prepared:
            if sq_a < R2 and sq_b < R2:
                acc = _enc_add_scaled(acc, w, val)
        r_values.append(acc)
    if any(v[0] == INF for v in r_values):
        return ShellSeriesResult(r_values=r_values, series=(INF, INF), infinite=True)
    series: Enclosure = (Fraction(0), Fraction(0))
    for k in range(len(radii_f) - 1):
        diff = (r_values[k + 1][0] - r_values[k][1], r_values[k + 1][1] - r_values[k][0])
        series = _enc_add_scaled(series, beta_f[k], diff)
    return ShellSeriesResult(r_values=r_values, series=series, infinite=False)


@dataclass
class ReducedCheckResult:
    value: Enclosure
    origin_atom: bool


def reduced_measure_check(
    atoms, ball_radius, d: int
) -> ReducedCheckResult:
    """Sum of w * |y|^(-d) over atoms with |y| < ball_radius.

    An origin atom with positive weight is flagged and gives +inf: a
    translation-averaged pair measure puts mass at the origin only through
    multiplicities.
    """
    R = parse_rational(ball_radius)
    if R <= 0:
        raise InvalidInstance("ball radius must be positive")
    total: Enclosure = (Fraction(0), Fraction(0))
    origin = False
    R2 = R * R
    for y, w in atoms:
        wf = _weight(w)
        sq = norm_sq(_point(y, d))
        if wf and sq < R2:
            origin = origin or sq == 0
            total = _enc_add_scaled(total, wf, pow_neg_half_d(sq, d))
    return ReducedCheckResult(value=total, origin_atom=origin)


@dataclass
class SplitVerdict:
    integral: object
    integral_ok: bool
    positivity: RealizeResult | None
    optimum: object | None


def hardcore_split_check(target: CorrelationTarget, psi: PsiFunction, r) -> SplitVerdict:
    """The headline decomposition: an integral bound plus LP positivity.

    Early exit when the integral exceeds r; otherwise the positivity LP
    decides, and a realisable target's close-pair optimum is the integral
    itself, which the moment rows pin (`pp.realize_pinned`).
    """
    r = parse_rational(r, "r")
    integral = chi_hc_integral(AtomicMeasure2D.from_target(target), psi)
    if integral > r:
        return SplitVerdict(integral=integral, integral_ok=False, positivity=None, optimum=None)
    result = realize_pinned(target, integral)
    return SplitVerdict(
        integral=integral,
        integral_ok=True,
        positivity=result,
        optimum=result.objective_value,
    )
