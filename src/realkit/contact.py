"""Contact distribution functions: the two-point sandwich test, the explicit
two-point construction, a ball-system positivity screen and Monte Carlo
verification of the construction.

Distance cdfs are right-continuous non-decreasing step functions of a
sub-probability (the random set may miss every ball). For step functions
the sandwich inequalities can only change state at a jump abscissa shifted
by 0 or +-l, so checking that finite grid decides them everywhere.
"""

from __future__ import annotations

import bisect
import dataclasses
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import CapExceeded, Infeasible, InvalidInstance
from .numbers import (
    compare_rational_to_sqrt, field, norm_sq, parse_list, parse_rational, parse_rationals,
    sqrt_interval,
)


@dataclass(frozen=True)
class StepCdf:
    """Right-continuous step cdf: value v_k on [R_k, R_{k+1}), 0 before R_0."""

    jumps: tuple[tuple[Fraction, Fraction], ...]
    # the given index of each kept jump, so that messages name the entry as written
    _given_index: tuple[int, ...] = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        prev_r = None
        prev_v = Fraction(0)
        kept = []
        given = []
        for k, (r, v) in enumerate(self.jumps):
            if r < 0:
                raise InvalidInstance("jump abscissae must be non-negative")
            if prev_r is not None and r <= prev_r:
                raise InvalidInstance("jump abscissae must increase strictly")
            if v < prev_v:
                raise InvalidInstance("cdf values must be non-decreasing")
            if v > 1:
                raise InvalidInstance("cdf values must stay within [0, 1]")
            if v != prev_v:  # drop redundant flat jumps for a canonical form
                kept.append((r, v))
                given.append(k)
            prev_r, prev_v = r, v
        object.__setattr__(self, "_given_index", tuple(given))
        if len(kept) != len(self.jumps):
            object.__setattr__(self, "jumps", tuple(kept))

    @staticmethod
    def from_json(obj: dict) -> "StepCdf":
        jumps = parse_list(field(obj, "jumps", "cdf"), "/jumps")
        return StepCdf(tuple(parse_rationals(p, f"/jumps/{k}", 2) for k, p in enumerate(jumps)))

    def total_mass(self) -> Fraction:
        return self.jumps[-1][1] if self.jumps else Fraction(0)

    def value(self, t) -> Fraction:
        if t < 0:
            return Fraction(0)
        idx = bisect.bisect_right(self.jumps, t, key=itemgetter(0)) - 1
        return self.jumps[idx][1] if idx >= 0 else Fraction(0)

    def abscissae(self) -> list[Fraction]:
        return [r for r, _ in self.jumps]


@dataclass
class TwoPointCheck:
    feasible: bool
    violation_at: Fraction | None = None
    side: str | None = None  # "lower": tau1(R-l) > tau2(R); "upper": tau2(R) > tau1(R+l)


def check_two_point(tau1: StepCdf, tau2: StepCdf, l) -> TwoPointCheck:
    """Decide tau1(max(R-l,0)) <= tau2(R) <= tau1(R+l) for every R >= 0.

    Both sides are step functions of R whose jumps lie on the abscissae of
    tau1 and tau2 shifted by 0 or +-l, so the grid of those points (clipped
    at 0) is decisive; the first violating grid point is reported.
    """
    l = parse_rational(l, "l")
    if l < 0:
        raise InvalidInstance("separation l must be non-negative")
    grid = {Fraction(0)}
    for r in tau1.abscissae() + tau2.abscissae():
        for shifted in (r - l, r, r + l):
            if shifted >= 0:
                grid.add(shifted)
    for R in sorted(grid):
        low = tau1.value(max(R - l, Fraction(0)))
        mid = tau2.value(R)
        if low > mid:
            return TwoPointCheck(feasible=False, violation_at=R, side="lower")
        if mid > tau1.value(R + l):
            return TwoPointCheck(feasible=False, violation_at=R, side="upper")
    return TwoPointCheck(feasible=True)


def invert_cdf(tau: StepCdf, u) -> Fraction | None:
    """Generalised inverse inf{R : tau(R) >= u}; None when u exceeds the
    total mass (the set misses every ball). u = 0 maps to 0."""
    uf = u if isinstance(u, Fraction) else Fraction(float(u))
    if uf < 0 or uf > 1:
        raise InvalidInstance("u must lie in [0, 1]")
    if uf == 0:
        return Fraction(0)
    if uf > tau.total_mass():
        return None
    return tau.jumps[bisect.bisect_left(tau.jumps, uf, key=lambda jump: jump[1])][0]


@dataclass
class TwoPointSet:
    """Realisation for one uniform draw: collinear antipodal points (or a
    single point when the reference points coincide). The distances r1, r2
    are exact; the rational points carry the separation l as the midpoint of
    its enclosure when l is irrational."""

    no_point: bool
    r1: Fraction | None = None
    r2: Fraction | None = None
    points: tuple[tuple[Fraction, ...], ...] = ()


def construct_two_point_set(
    tau1: StepCdf, tau2: StepCdf, x1: Sequence, x2: Sequence, u
) -> TwoPointSet:
    """Place a1 behind x1 (away from x2) at distance R1 and a2 behind x2 at
    distance R2, the unique collinear choice.

    d(x1, {a1,a2}) = min(R1, l + R2) = R1 and symmetrically for x2, because
    the sandwich condition forces |R1 - R2| <= l; this is verified exactly
    before returning.
    """
    p1 = tuple(parse_rational(v) for v in x1)
    p2 = tuple(parse_rational(v) for v in x2)
    if len(p1) != len(p2):
        raise InvalidInstance("reference points must share a dimension")
    l_sq = norm_sq(p1, p2)
    l_lo, l_hi = sqrt_interval(l_sq)
    return _place_two_points(tau1, tau2, p1, p2, l_sq, (l_lo + l_hi) / 2, u)


def _place_two_points(tau1, tau2, p1, p2, l_sq: Fraction, l_mid: Fraction, u) -> TwoPointSet:
    """`construct_two_point_set` for parsed points p1, p2 at squared distance
    l_sq, with l_mid the midpoint of the enclosure of l."""
    r1 = invert_cdf(tau1, u)
    r2 = invert_cdf(tau2, u)
    if r1 is None and r2 is None:
        return TwoPointSet(no_point=True)
    if (r1 is None) != (r2 is None):
        raise Infeasible(
            "cdfs have different total mass; the sandwich test cannot have passed"
        )
    if l_sq == 0:
        if tau1.jumps != tau2.jumps:
            raise Infeasible("coinciding reference points require identical cdfs")
        return TwoPointSet(no_point=False, r1=r1, r2=r2, points=((p1[0] + r1, *p1[1:]),))
    # |R1 - R2| <= l, exactly
    if compare_rational_to_sqrt(abs(r1 - r2), l_sq) > 0:
        raise Infeasible(
            f"|R1 - R2| = {abs(r1 - r2)} exceeds the separation; "
            f"the sandwich test cannot have passed at this u"
        )
    # (x1 - x2) / l = (x1 - x2) * l / l^2
    unit = l_mid / l_sq
    a1 = tuple(a + r1 * unit * (a - b) for a, b in zip(p1, p2))
    a2 = tuple(b - r2 * unit * (a - b) for a, b in zip(p1, p2))
    return TwoPointSet(no_point=False, r1=r1, r2=r2, points=(a1, a2))


# reachable ball-hit patterns past which `ball_positivity_screen` samples
HIT_PATTERN_LIMIT = 1 << 20


def _or_closure(signatures: set) -> set | None:
    """Every OR of a subset of `signatures` (0 for the empty one), added
    breadth-first; None past HIT_PATTERN_LIMIT patterns."""
    closure = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for sig in signatures:
                new = mask | sig
                if new not in closure:
                    closure.add(new)
                    nxt.append(new)
                    if len(closure) > HIT_PATTERN_LIMIT:
                        return None
        frontier = nxt
    return closure


@dataclass(frozen=True)
class BallSystem:
    """Finite family of closed balls with signed coefficients."""

    centers: tuple[tuple[Fraction, ...], ...]
    radii: tuple[Fraction, ...]
    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if not (len(self.centers) == len(self.radii) == len(self.coefficients)):
            raise InvalidInstance("centers, radii and coefficients must align")
        if any(r <= 0 for r in self.radii):
            raise InvalidInstance("ball radii must be positive")

    @staticmethod
    def from_json(obj: dict) -> "BallSystem":
        centers = parse_list(field(obj, "centers", "ball system"), "/centers")
        return BallSystem(
            tuple(parse_rationals(c, f"/centers/{k}") for k, c in enumerate(centers)),
            parse_rationals(field(obj, "radii", "ball system"), "/radii"),
            parse_rationals(field(obj, "coefficients", "ball system"), "/coefficients"),
        )


@dataclass
class BallScreenReport:
    label: str  # always "screen": a probe set cannot certify all closed sets
    system_nonnegative: bool
    negative_mask: list[int] | None
    tau_sum: Fraction | None
    passes: bool | None
    method: str


def ball_positivity_screen(
    taus: dict,
    system: BallSystem,
    probe_points: Sequence,
    trials: int = 0,
    seed: int | None = None,
) -> BallScreenReport:
    """Screen one ball system against the necessary positivity inequality.

    First check g(F) = sum a_i 1{F hits ball i} >= 0 over all subsets of the
    probe set: only which balls a subset hits matters, so the OR-closure of
    the probe-point signatures is enumerated, which is exhaustive-equivalent.
    Past HIT_PATTERN_LIMIT patterns, `trials` random probe subsets are
    sampled instead; without trials and a seed that is CapExceeded. Systems
    passing the proxy get the tau-sum inequality evaluated; the verdict is
    labelled a screen because non-negativity over all closed sets is not
    certified by a probe set.
    """
    m = len(system.coefficients)
    probes = [
        tuple(parse_rational(v) for v in p)
        for p in probe_points
    ]
    if not probes:
        raise InvalidInstance("probe set must be non-empty")
    signatures = set()
    for p in probes:
        sig = 0
        for k in range(m):
            if norm_sq(p, system.centers[k]) <= system.radii[k] ** 2:
                sig |= 1 << k
        signatures.add(sig)

    method = "exhaustive"
    closure = _or_closure(signatures)
    if closure is None:
        if seed is None or trials <= 0:
            raise CapExceeded(
                "too many ball-hit patterns for exhaustive screening; "
                "supply trials and a seed for sampling"
            )
        method = "sampled"
        rng = np.random.default_rng(seed)
        closure = {0}
        sigs = sorted(signatures)
        for _ in range(trials):
            pick = rng.integers(0, 2, size=len(sigs))
            mask = 0
            for take, sig in zip(pick, sigs):
                if take:
                    mask |= sig
            closure.add(mask)

    def g(mask: int) -> Fraction:
        return sum((system.coefficients[k] for k in range(m) if mask & (1 << k)), Fraction(0))

    # 0 is in the closure, so the minimum is at most 0; ties go to the first in iteration order
    worst = min(closure, key=g)
    if g(worst) < 0:
        return BallScreenReport(
            label="screen",
            system_nonnegative=False,
            negative_mask=[k for k in range(m) if worst & (1 << k)],
            tau_sum=None,
            passes=None,
            method=method,
        )

    total = Fraction(0)
    for k in range(m):
        center = system.centers[k]
        if center not in taus:
            raise InvalidInstance(f"no cdf supplied for ball center {center}")
        total += system.coefficients[k] * taus[center].value(system.radii[k])
    return BallScreenReport(
        label="screen",
        system_nonnegative=True,
        negative_mask=None,
        tau_sum=total,
        passes=total >= 0,
        method=method,
    )


@dataclass
class MonteCarloReport:
    abscissae: list[float]
    target1: list[float]
    target2: list[float]
    empirical1: list[float]
    empirical2: list[float]
    max_deviation1: float
    max_deviation2: float
    no_point_fraction: float
    samples: int
    seed: int


def monte_carlo_contact(
    tau1: StepCdf, tau2: StepCdf, x1: Sequence, x2: Sequence, samples: int, seed: int
) -> MonteCarloReport:
    """Realise the two-point construction for `samples` uniform draws and
    compare the empirical cdfs of d(x1, set) and d(x2, set) with the
    targets at every jump abscissa.

    One uniform drives both inversions (that coupling is what makes the
    construction work), so a draw's set depends only on where it falls
    among the merged cdf values of tau1 and tau2: the construction runs
    once per class that occurs, on the points, l^2 and enclosure of l
    computed here once, and the draws are counted per class.
    A draw of 0 is at distance 0; a draw past the total mass yields no
    point. The report holds floats, so a jump radius above the largest
    float raises CapExceeded before any sampling.
    """
    p1 = tuple(parse_rational(v) for v in x1)
    p2 = tuple(parse_rational(v) for v in x2)
    l_sq = norm_sq(p1, p2)
    l_lo, l_hi = sqrt_interval(l_sq)
    l_mid = (l_lo + l_hi) / 2
    # the test weakens as l grows, so passing at the lower bound is sound
    check_lo = check_two_point(tau1, tau2, l_lo)
    if not check_lo.feasible:
        if not check_two_point(tau1, tau2, l_hi).feasible:
            raise Infeasible(
                f"sandwich test fails at R = {check_lo.violation_at} ({check_lo.side} side)"
            )
        raise InvalidInstance(
            "the separation is irrational and the sandwich verdict flips "
            "inside its enclosure; perturb the reference points"
        )
    for name, tau in (("tau1", tau1), ("tau2", tau2)):
        for k, r in zip(tau._given_index, tau.abscissae()):
            if r > sys.float_info.max:
                raise CapExceeded(f"{name} /jumps/{k}/0: jump radius above the largest float")
    levels = sorted({v for _, v in tau1.jumps + tau2.jumps})
    u = np.random.default_rng(seed).random(samples)
    # class k holds the draws in (levels[k - 2], levels[k - 1]] (compared in
    # floats), whose exact representative is levels[k - 1]; class 0 holds
    # u = 0 and the last class the draws above every level
    cls = np.searchsorted(np.array([float(v) for v in levels]), u, side="left") + 1
    cls[u == 0.0] = 0
    counts = np.bincount(cls, minlength=len(levels) + 2).tolist()
    reps = [Fraction(0), *levels, Fraction(1)]
    hits = []  # (R1, R2, draws) of the classes whose set has points
    for k, count in enumerate(counts):
        if count:
            drawn = _place_two_points(tau1, tau2, p1, p2, l_sq, l_mid, reps[k])
            if not drawn.no_point:
                hits.append((drawn.r1, drawn.r2, count))
    grid_exact = sorted(set(tau1.abscissae() + tau2.abscissae()))
    emp1 = [sum(c for r1, _, c in hits if r1 <= A) / samples for A in grid_exact]
    emp2 = [sum(c for _, r2, c in hits if r2 <= A) / samples for A in grid_exact]
    t1 = [float(tau1.value(A)) for A in grid_exact]
    t2 = [float(tau2.value(A)) for A in grid_exact]
    dev1 = max((abs(e - t) for e, t in zip(emp1, t1)), default=0.0)
    dev2 = max((abs(e - t) for e, t in zip(emp2, t2)), default=0.0)
    no_point = (samples - sum(c for *_, c in hits)) / samples
    grid = [float(A) for A in grid_exact]
    return MonteCarloReport(
        abscissae=grid,
        target1=t1,
        target2=t2,
        empirical1=emp1,
        empirical2=emp2,
        max_deviation1=dev1,
        max_deviation2=dev2,
        no_point_fraction=no_point,
        samples=samples,
        seed=seed,
    )
