"""Realisability of correlation measures by point processes on a finite carrier.

Configurations are multiplicity vectors with total mass at most a cap,
optionally simple (no multiplicities) and optionally hard-core (support
pairwise at least eps apart). The decision problem is LP feasibility over
the admissible configurations:

    sum_Y q_Y * pair_count_Y(i,j) = rho_ij   for every index pair (i <= j),
    sum_Y q_Y * m_i               = rho1_i   when an intensity is prescribed,
    sum_Y q_Y = 1,  q >= 0,

where pair_count_Y(i,j) is m_i m_j for i != j and m_i (m_i - 1) on the
diagonal. Moment constraints are imposed on ALL pairs, zero right-hand
side where the measure has no atom: omitting them would realise a
different measure. An optional objective minimises the expectation of a
cardinality power. A distance-weighted close-pair sum, and N^2 under an
intensity, need no minimising: the moment rows pin their expectation.
"""

from __future__ import annotations

import itertools
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapExceeded, InvalidInstance
from .lp import (
    FLOAT_TOL, Certificate, RealizeResult, certificate, check_certificate, column_generation,
    negative_direction, screen, verdict,
)
from .metric import Configuration, FiniteMetricSpace
from .numbers import (
    INF, clear_denominators, field, parse_bool, parse_int, parse_list, parse_rational,
    parse_rationals, validate_mixture,
)
from .qubo import pair_list, pair_matrix

ENUM_LIMIT = 2_000_000
# largest carrier a pp target may have: the LP has n (n + 1) / 2 + n + 1 rows,
# and memory grows about as n^4 (cap-2 simple targets at n = 60 / 70 / 80:
# 1.1 / 2.5 / 3.8 s and 222 / 346 / 519 MB peak RSS)
MAX_POINTS = 64


@dataclass(frozen=True)
class CorrelationTarget:
    """Atomic symmetric measure on pairs plus optional intensity and flags."""

    n: int
    rho: dict  # (i, j) with i <= j -> Fraction, the ordered-atom value
    rho1: tuple[Fraction, ...] | None
    cap: int
    simple: bool
    hardcore_eps: Fraction | None
    space: FiniteMetricSpace | None = None
    # admissible supports keep distances >= eps; the strict variant demands > eps
    hardcore_strict: bool = False

    def rho_value(self, i: int, j: int) -> Fraction:
        key = (i, j) if i <= j else (j, i)
        return self.rho.get(key, Fraction(0))

    def atoms(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, w) for (i, j), w in sorted(self.rho.items()) if w != 0]

    @property
    def pair_mass(self) -> Fraction:
        """E[N (N - 1)]: rho summed over ordered pairs, an off-diagonal atom twice."""
        return sum((w if i == j else 2 * w for (i, j), w in self.rho.items()), Fraction(0))

    def rhs(self) -> list[Fraction]:
        """The LP's right-hand side: rho on the pairs i <= j, the
        intensity when there is one, then 1."""
        b = [self.rho_value(i, j) for i, j in pair_list(self.n)]
        if self.rho1 is not None:
            b.extend(self.rho1)
        b.append(Fraction(1))
        return b

    @cached_property
    def rules(self) -> "_Rules":
        """The target's admissible configurations, built on first use."""
        return _Rules.build(
            self.n, self.cap, self.simple, self.hardcore_eps, self.space, self.hardcore_strict
        )

    @staticmethod
    def build(
        n: int | None = None,
        rho_entries: Iterable[tuple[int, int, object]] = (),
        rho1: Sequence | None = None,
        cap: int = 0,
        simple: bool = False,
        hardcore_eps=None,
        space: FiniteMetricSpace | None = None,
        hardcore_strict: bool = False,
    ) -> "CorrelationTarget":
        if space is not None:
            n = space.n
        if n is None or n < 1:
            raise InvalidInstance("target needs a point count or a space")
        if n > MAX_POINTS:
            raise CapExceeded(f"n={n} above the point cap {MAX_POINTS}")
        if cap < 0:
            raise InvalidInstance("cardinality cap must be non-negative")
        ordered: dict[tuple[int, int], Fraction] = {}
        for i, j, w in rho_entries:
            if not (0 <= i < n and 0 <= j < n):
                raise InvalidInstance(f"rho atom ({i},{j}) out of range")
            wf = parse_rational(w, f"rho[{i},{j}]")
            if wf < 0:
                raise InvalidInstance(f"rho atom ({i},{j}) has negative weight")
            ordered[(i, j)] = ordered.get((i, j), Fraction(0)) + wf
        rho: dict[tuple[int, int], Fraction] = {}
        for (i, j), w in ordered.items():
            if i == j:
                rho[(i, j)] = rho.get((i, j), Fraction(0)) + w
                continue
            key = (min(i, j), max(i, j))
            mirror = ordered.get((j, i))
            if mirror is not None and mirror != w:
                raise InvalidInstance(
                    f"rho atoms at ({i},{j}) and ({j},{i}) disagree; "
                    f"the measure must be symmetric"
                )
            rho[key] = w
        rho = {k: v for k, v in rho.items() if v != 0}
        r1 = None
        if rho1 is not None:
            vals = [parse_rational(v, "rho1") for v in rho1]
            if len(vals) != n:
                raise InvalidInstance("rho1 length does not match the point count")
            if any(v < 0 for v in vals):
                raise InvalidInstance("rho1 must be non-negative")
            r1 = tuple(vals)
        eps = None
        if hardcore_eps is not None:
            eps = parse_rational(hardcore_eps, "hardcore_eps")
            if eps <= 0:
                raise InvalidInstance("hardcore_eps must be positive")
            if space is None:
                raise InvalidInstance("hard-core targets need the metric space")
        return CorrelationTarget(
            n=n, rho=rho, rho1=r1, cap=cap, simple=simple, hardcore_eps=eps,
            space=space, hardcore_strict=hardcore_strict,
        )

    @staticmethod
    def from_json(obj: dict) -> "CorrelationTarget":
        space, n, rho1 = (field(obj, key, "target", None) for key in ("space", "n", "rho1"))
        return CorrelationTarget.build(
            n=None if n is None else parse_int(n, "/n"),
            rho_entries=rho_atoms(field(obj, "rho", "target")),
            rho1=None if rho1 is None else parse_rationals(rho1, "/rho1"),
            cap=parse_int(field(obj, "cap", "target"), "/cap"),
            simple=parse_bool(obj.get("simple", False), "/simple"),
            hardcore_eps=obj.get("hardcore_eps"),
            space=FiniteMetricSpace.from_json(space) if space else None,
            hardcore_strict=parse_bool(obj.get("hardcore_strict", False), "/hardcore_strict"),
        )


def rho_atoms(value) -> list[tuple[int, int, Fraction]]:
    """The [i, j, weight] atoms of a JSON "rho" list."""
    atoms = []
    for k, atom in enumerate(parse_list(value, "/rho")):
        i, j, w = parse_list(atom, f"/rho/{k}", 3)
        atoms.append((parse_int(i, f"/rho/{k}/0"), parse_int(j, f"/rho/{k}/1"),
                      parse_rational(w, f"/rho/{k}/2")))
    return atoms


@dataclass(frozen=True)
class ConfigMixture:
    """Finitely supported law on configurations."""

    n: int
    atoms: tuple[tuple[Configuration, object], ...]

    def validate(self) -> None:
        validate_mixture(self.atoms, "configurations")


def check_hardcore_support(
    target: CorrelationTarget,
) -> tuple[bool, list[tuple[int, int, Fraction]]]:
    """True iff every positive-weight atom sits at distance >= the target's
    hardcore_eps (> it when the target uses the strict variant)."""
    eps = target.hardcore_eps
    offenders = []
    for i, j, w in target.atoms():
        d = target.space.dist[i][j]
        if w > 0 and (d <= eps if target.hardcore_strict else d < eps):
            offenders.append((i, j, w))
    return (not offenders), offenders


@dataclass(frozen=True)
class _Rules:
    """Which multiplicity vectors are admissible: total mass at most cap, at
    most per_point at each point (1 for simple and hard-core targets), and
    no two occupied points closer than the hard-core distance. The one
    place that decides it, for enumeration, pricing, seeding and
    certificate checks."""

    n: int
    cap: int
    per_point: int
    conflicts: tuple[tuple[int, ...], ...]  # conflicts[k]: points i < k that k may not join

    @staticmethod
    def build(n, cap, simple, eps, space, strict) -> "_Rules":
        def close(i: int, k: int) -> bool:
            d = space.dist[i][k]
            return d <= eps if strict else d < eps

        return _Rules(
            n=n,
            cap=cap,
            per_point=1 if (simple or eps is not None) else cap,
            conflicts=tuple(
                tuple(i for i in range(k) if eps is not None and close(i, k)) for k in range(n)
            ),
        )

    def choices(self, prefix: Sequence[int], mass_left: int) -> range:
        """Multiplicities point len(prefix) may take after `prefix` with
        `mass_left` still to place."""
        if any(prefix[i] for i in self.conflicts[len(prefix)]):
            return range(1)
        return range(min(self.per_point, mass_left) + 1)

    def admits(self, m: Sequence[int]) -> bool:
        """Whether m is one of the configurations the target's LP ranges over."""
        return len(m) == self.n and all(
            v in self.choices(m[:k], self.cap - sum(m[:k])) for k, v in enumerate(m)
        )


def enumerate_configs(target: CorrelationTarget) -> list[Configuration]:
    """The admissible configurations of `target` (`target.rules`), in
    lexicographic order. Raises CapExceeded past ENUM_LIMIT of them."""
    n, rules = target.n, target.rules
    out: list[Configuration] = []

    def extend(prefix: list[int], mass_left: int) -> None:
        if len(prefix) == n:
            out.append(Configuration(tuple(prefix)))
            if len(out) > ENUM_LIMIT:
                raise CapExceeded(f"configuration count exceeds {ENUM_LIMIT}")
            return
        for m in rules.choices(prefix, mass_left):
            prefix.append(m)
            extend(prefix, mass_left - m)
            prefix.pop()

    extend([], target.cap)
    return out


def _config_column(config: Configuration, n: int, with_intensity: bool) -> list[int]:
    m = config.multiplicity
    col = [m[i] * (m[j] - (i == j)) for i, j in pair_list(n)]
    if with_intensity:
        col.extend(m)
    col.append(1)
    return col


class _ConfigOracle:
    """The columns of the pp LP of `target` for `lp.column_generation`,
    keyed by configuration; `_search` prices them, in floats under the
    master's float duals and in integers under integer prices, with ties
    to the lexicographically smallest multiplicity vector."""

    def __init__(self, target: CorrelationTarget, size: int | None = None):
        self.target = target
        self.size = size  # the configuration count, when they were enumerated

    def matrix(self, configs: list[Configuration]) -> np.ndarray:
        return np.array([self.column(cfg) for cfg in configs], dtype=float).T

    def column(self, config: Configuration) -> list[int]:
        return _config_column(config, self.target.n, self.target.rho1 is not None)

    def price(self, y: np.ndarray, k: int) -> list[Configuration]:
        config, value = _search([float(v) for v in y], self.target)
        return [config] if value > FLOAT_TOL else []

    def best(self, y: list[int]) -> tuple[Configuration, int]:
        return _search(y, self.target)

    def certify(self, y: list[int], config: Configuration) -> Certificate:
        return certificate("pp", y, config.multiplicity, self.target)

    def mixture(self, configs: list[Configuration], weights: list[Fraction]) -> ConfigMixture:
        atoms = [(cfg, w) for cfg, w in zip(configs, weights) if w > 0]
        atoms.sort(key=lambda kv: kv[0].multiplicity)
        return ConfigMixture(n=self.target.n, atoms=tuple(atoms))

    def key(self, m: tuple[int, ...]) -> Configuration | None:
        """The configuration m when it is admissible, else None."""
        return Configuration(m) if self.target.rules.admits(m) else None

    def name(self, config: Configuration) -> str:
        return str(config.multiplicity)


def pp_moments(mix: ConfigMixture) -> tuple[dict, tuple[Fraction, ...]]:
    """Forward map: ordered pair counts (pairs i <= j of non-zero mass) and
    intensities under the mixture, summed over its LP columns."""
    n, pairs = mix.n, pair_list(mix.n)
    moments = [Fraction(0)] * (len(pairs) + n + 1)
    for config, w in mix.atoms:
        moments = [v + w * c for v, c in zip(moments, _config_column(config, n, True))]
    return {p: v for p, v in zip(pairs, moments) if v}, tuple(moments[len(pairs) : -1])


def verify_pp_certificate(cert: Certificate, target: CorrelationTarget) -> tuple[bool, str]:
    """`lp.check_certificate` over admissible configurations: the minimum
    comes from the exact configuration search."""
    return check_certificate(cert, _ConfigOracle(target))


def _psd_functional(target: CorrelationTarget):
    """(a, blin) of a square G = (v_0 + sum_i v_i m_i)^2, whose constant is
    v_0^2, with a negative pairing v.M.v, or None. M = [[1, rho1_i],
    [rho1_i, rho_ij + delta_ij rho1_i]] is the second-moment matrix of
    (1, m); with m_i^2 = m_i (m_i - 1) + m_i, blin_i = 2 v_0 v_i + v_i^2,
    a_ii = v_i^2 and a_ij = 2 v_i v_j. None without an intensity."""
    n, r1 = target.n, target.rho1
    if r1 is None:
        return None
    M = [[Fraction(1), *r1]]
    M += [[r1[i], *(target.rho_value(i, j) for j in range(n))] for i in range(n)]
    for i in range(n):
        M[i + 1][i + 1] += r1[i]
    v = negative_direction(M)
    if v is None:
        return None
    v0, v = v[0], v[1:]
    a = {(i, i): v[i] * v[i] for i in range(n)}
    a.update({(i, j): 2 * v[i] * v[j] for i, j in itertools.combinations(range(n), 2)})
    return a, [2 * v0 * v[i] + v[i] * v[i] for i in range(n)]


def _cap_functional(target: CorrelationTarget):
    """(a, blin) of G = (cap - 1) N - N (N - 1) = N (cap - N) >= 0 when
    its pairing (cap - 1) E[N] - E[N (N - 1)] is negative, or None
    (Kuna, Lebowitz & Speer, Realizability of point processes, J. Stat.
    Phys. 129, 2007). None without an intensity."""
    if target.rho1 is None or (target.cap - 1) * sum(target.rho1) >= target.pair_mass:
        return None
    a = {(i, j): -1 if i == j else -2 for i, j in pair_list(target.n)}
    return a, [target.cap - 1] * target.n


def _diagonal_functional(target: CorrelationTarget):
    """(a, blin) of G = -m_i (m_i - 1) at the first diagonal atom of a
    simple target, or None: G vanishes on every admissible configuration
    and pairs to -rho_ii < 0."""
    atom = next(((i, j) for i, j, _ in target.atoms() if i == j), None) if target.simple else None
    return None if atom is None else ({atom: -1}, [])


def _hardcore_functional(target: CorrelationTarget):
    """(a, blin) of G = -count_ij at the first atom (i, j) inside the
    hard-core distance, or None: no admissible configuration occupies both
    points, or one point twice."""
    offenders = [] if target.hardcore_eps is None else check_hardcore_support(target)[1]
    return ({offenders[0][:2]: -1}, []) if offenders else None


# (method, functional, note): each screen proves infeasibility without an LP;
# VALIDATION runs first, before the float range matters
VALIDATION = (
    ("validation", _diagonal_functional, "simple processes carry no diagonal correlation mass"),
    ("validation", _hardcore_functional, "correlation mass inside the hard-core distance"),
)
SCREENS = (
    ("psd-screen", _psd_functional, "moment matrix not positive semidefinite; no LP solve needed"),
    ("cap-screen", _cap_functional,
     "pair mass exceeds what the cardinality cap allows; no LP solve needed"),
)


def _screen(target: CorrelationTarget) -> RealizeResult | None:
    """The verdict of the first of SCREENS that fires, or None, by
    `lp.screen`: the constant is minus the exact minimum of the rest from
    `_search`, and `lp.certificate` scales to max |(a, blin)| = 1."""
    return screen(SCREENS, _ConfigOracle(target))


CARDINALITY_POWERS = (2, 3, 4)


def objective_cardinality(alpha: int) -> Callable[[Configuration], Fraction]:
    if alpha not in CARDINALITY_POWERS:
        raise InvalidInstance(f"cardinality power must be one of {CARDINALITY_POWERS}")

    def chi(config: Configuration) -> Fraction:
        return Fraction(config.total_mass**alpha)

    return chi


def realize_pp(
    target: CorrelationTarget, objective: Callable[[Configuration], object] | None = None
) -> RealizeResult:
    """Decide realisability of a correlation target; optionally minimise an
    expectation over the realising mixtures and report the optimum.

    `lp.screen` runs the checks that need no LP, VALIDATION first: mass on
    the diagonal of a simple target or inside the hard-core distance. A
    target that the float layers cannot hold (a moment, or the pair count
    cap (cap - 1) of a configuration, above the largest float) then raises
    CapExceeded. SCREENS follow, for targets with an intensity: a moment
    matrix of (1, m) that is not positive semidefinite ("psd-screen") and
    E[N(N-1)] > (cap-1) E[N] ("cap-screen").

    `lp.column_generation` on the target's `_ConfigOracle` decides the
    rest, seeded as `realize_subsets` seeds it: with every configuration up
    to ENUM_LIMIT of them, so nothing is priced ("enumeration"), else with
    the empty and the admissible one-point ones ("column-generation"). A
    verdict from its exact rounds reports "exact-column-generation".

    An objective, whose costs are finite, is the same driver's cost over
    the enumerated configurations, whose ties go to the lexicographically
    smallest; the optimum carries the value of its exact duals. Past
    ENUM_LIMIT the first exact realisation is reported, with an objective
    value that is not certified minimal. An objective that the moment rows
    pin needs no cost: `realize_pinned`.
    """
    validated = screen(VALIDATION, _ConfigOracle(target))
    if validated is not None:
        return validated
    # the PSD screen, HiGHS and the float search cannot hold a value past the float range
    large = [(f"rho atom ({i},{j})", w) for (i, j), w in target.rho.items()]
    large += [(f"rho1[{k}]", v) for k, v in enumerate(target.rho1 or ())]
    for name, v in [*large, ("the pair count cap (cap - 1)", target.cap * (target.cap - 1))]:
        if v > sys.float_info.max:
            raise CapExceeded(f"{name} is above the largest float")
    screened = _screen(target)
    if screened is not None:
        return screened
    b = target.rhs()
    try:
        seed = enumerate_configs(target)
        method, size, note = "enumeration", len(seed), None
        cost = None if objective is None else {cfg: objective(cfg) for cfg in seed}
    except CapExceeded:
        # the empty configuration and the admissible one-point ones
        seed = [
            Configuration(m)
            for m in (tuple(int(i == k) for i in range(target.n)) for k in range(-1, target.n))
            if target.rules.admits(m)
        ]
        method, size, cost = "column-generation", None, None
        note = (
            "column generation stops at the first exact realisation; "
            "the objective value is not certified minimal"
        )
    oracle = _ConfigOracle(target, size)
    res = column_generation(oracle, b, seed, cost)
    result = verdict(res, method, oracle, None if objective is None else note)
    if result.mixture is not None and objective is not None:
        result.objective_value = sum(
            (w * objective(cfg) for cfg, w in result.mixture.atoms), Fraction(0)
        )
    if res.duals is not None:
        result.dual_value = sum((y * v for y, v in zip(res.duals, b)), Fraction(0))
    return result


def realize_pinned(target: CorrelationTarget, value) -> RealizeResult:
    """`realize_pp` under an objective that the moment rows pin to `value`:
    a close-pair weight (`value` is `regularity.chi_hc_integral` of the
    target) or, with an intensity, N^2 (the pair mass plus the total
    intensity). A configuration of positive weight has no pair where rho
    vanishes, so every realising mixture has that expectation, +inf when
    an atom sits where psi is. The objective's coefficients on the moment
    rows are a feasible dual of the same value, so a finite optimum is
    certified, past the enumeration limit too."""
    result = realize_pp(target)
    if result.status == "feasible":
        result.objective_value = value
        if value == INF:
            result.note = "every realising mixture has infinite objective"
        else:
            result.dual_value = value
    return result


def _search(y: Sequence, target: CorrelationTarget) -> tuple[Configuration, object]:
    """maximise y.A_Y over `target.rules` for int or float prices y, by
    prefix search with an interval bound; ties resolve to the
    lexicographically smallest multiplicity vector. y holds the pair
    prices, then n intensity prices if it is long enough (else zeros), then
    the normalisation price. Each node carries its prefix's value; a child
    m at point k adds m (y_int_k + y_kk (m - 1) + sum_{j<k} y_jk m_j)."""
    n = target.n
    pairs = pair_list(n)
    y_pair = dict(zip(pairs, y))
    y_int = y[len(pairs) : len(pairs) + n] if len(y) > len(pairs) + 1 else [0] * n
    rules = target.rules
    # no admissible configuration occupies a conflicting pair, so its price
    # changes no value; left in, the bound counts it and prunes nothing
    for k, close in enumerate(rules.conflicts):
        y_pair.update(((i, k), 0) for i in close)

    best_cfg = [0] * n
    best_val = y[-1]

    def upper_tail(prefix: list[int], mass_left: int):
        # optimistic gain from the remaining coordinates
        k = len(prefix)
        gain = 0
        for i in range(k, n):
            hi = min(rules.per_point, mass_left)
            if y_int[i] > 0:
                gain += y_int[i] * hi
            if y_pair[(i, i)] > 0:
                gain += y_pair[(i, i)] * hi * max(hi - 1, 0)
            for j in range(k):
                if prefix[j] and y_pair[(j, i)] > 0:
                    gain += y_pair[(j, i)] * prefix[j] * hi
            for j in range(i + 1, n):
                if y_pair[(i, j)] > 0:
                    gain += y_pair[(i, j)] * hi * hi
        return gain

    def visit(prefix: list[int], mass_left: int, base) -> None:
        nonlocal best_cfg, best_val
        k = len(prefix)
        if k == n:
            if base > best_val:
                best_val = base
                best_cfg = list(prefix)
            return
        if base + upper_tail(prefix, mass_left) <= best_val:
            return
        cross = sum(y_pair[(j, k)] * mj for j, mj in enumerate(prefix) if mj)
        for m in rules.choices(prefix, mass_left):
            step = y_int[k] + y_pair[(k, k)] * (m - 1) + cross
            prefix.append(m)
            visit(prefix, mass_left - m, base + m * step)
            prefix.pop()

    visit([], target.cap, y[-1])
    return Configuration(tuple(best_cfg)), best_val


@dataclass
class ScreenReport:
    trials: int
    violations: list  # (trial index, h as floats, pairing, infimum)


def positivity_screen(target: CorrelationTarget, trials: int, seed: int) -> ScreenReport:
    """Sample random symmetric test matrices and compare the measure pairing
    against the exact infimum over admissible configurations.

    Entries are uniform in [-1, 1], and both sides are compared exactly,
    in integers: a trial's floats share a denominator 2^K and rho has a
    common one L, so the pairing is an integer over 2^K L, and the infimum
    of g_h is minus the maximum of `_search` under the prices 2^K y with
    y_ii = -h_ii, y_ij = -2 h_ij (i < j) and y_norm = 0. A violation is a
    sound witness of infeasibility; no configuration is enumerated, so no
    carrier is too large.
    """
    rng = random.Random(seed)
    violations = []
    n = target.n
    pairs = pair_list(n)
    # the pairing runs over ordered pairs, so an off-diagonal atom counts twice
    rho = [target.rho_value(i, j) * (1 if i == j else 2) for i, j in pairs]
    weight, scale = clear_denominators(rho)
    for trial in range(trials):
        h = [rng.uniform(-1.0, 1.0) for _ in pairs]
        num, den = clear_denominators(h)
        pairing = sum(a * w for a, w in zip(num, weight))
        # y.A_Y = -g_h(Y) for these prices, so the infimum is minus the maximum
        y = [-a if i == j else -2 * a for (i, j), a in zip(pairs, num)]
        top = _search([*y, 0], target)[1]
        # pairing / (den * scale) < -top / den
        if pairing < -top * scale:
            violations.append(
                (trial, pair_matrix(n, h), Fraction(pairing, den * scale), Fraction(-top, den))
            )
    return ScreenReport(trials=trials, violations=violations)
