"""The exact moment screens against oracles built here.

Screens run before any LP: Fréchet, triangle and PSD for sets; PSD and cap
for point processes with an intensity. A screen may only fire on an
infeasible target, and what it returns must be a full certificate. The
oracles enumerate every subset or configuration by hand and decide
feasibility over those columns, with `exact_simplex` or with the LP driver
over an explicit column list, so no screen or pricing oracle takes part.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as F

from hypothesis import event, given, settings
from hypothesis import strategies as st

from realkit import pp, setrealize
from realkit.lp import column_generation, exact_simplex, screen
from realkit.pp import CorrelationTarget, verify_pp_certificate
from realkit.setrealize import TwoPointTarget, realize_subsets, verify_certificate
from helpers import ColumnList

SET_METHODS = {"frechet-screen", "triangle-screen", "psd-screen"}
PP_METHODS = {"psd-screen", "cap-screen"}


def set_screen(target):
    return screen(setrealize.SCREENS, setrealize._SubsetOracle(target))


def pp_screen(target):
    return screen(pp.SCREENS, pp._ConfigOracle(target))


def set_moments(n, masks, weights):
    total = sum(weights)
    return [
        [sum((F(w, total) for m, w in zip(masks, weights) if m >> i & 1 and m >> j & 1), F(0))
         for j in range(n)]
        for i in range(n)
    ]


def set_verdict(p) -> str:
    """Feasibility over all 2^n subsets by `lp.column_generation` over an
    explicit column list, exact like `exact_simplex` and much faster at 2^6
    columns."""
    n = len(p)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = {m: [F(m >> i & m >> j & 1) for i, j in pairs] + [F(1)] for m in range(1 << n)}
    b = [p[i][j] for i, j in pairs] + [F(1)]
    return column_generation(ColumnList(cols), b, list(cols)).status


def assert_set_certificate(cert, p):
    """Every invariant, rechecked by enumerating the subsets here."""
    n = len(p)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert max(abs(cert.a[i][j]) for i, j in pairs) == 1

    def g(members):
        return cert.c + sum(cert.a[i][j] for i, j in pairs if i in members and j in members)

    values = [g({i for i in range(n) if m >> i & 1}) for m in range(1 << n)]
    assert min(values) == 0 == g(cert.minimizer)
    assert cert.c + sum(cert.a[i][j] * p[i][j] for i, j in pairs) == -cert.gap < 0


@st.composite
def set_mixtures(draw, n=None):
    n = n or draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(masks), max_size=len(masks)))
    return set_moments(n, masks, weights)


@st.composite
def set_targets(draw):
    """n <= 6: a random grid matrix; p_i = 1/2 and p_ij = 1/4 - d_ij, which
    breaks the PSD screen but no triangle for d_ij <= 1/12 and large enough
    n; or a diagonal (from a grid or from a mixture) with off-diagonal
    entries inside the Fréchet bounds, so that the triangle and PSD screens
    see both sides of their boundary."""
    n = draw(st.integers(2, 6))
    grid = st.integers(0, 4).map(lambda v: F(v, 4))
    kind = draw(st.sampled_from(["grid", "box", "mixture", "spread"]))
    if kind == "spread":
        p = [[F(1, 2)] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            p[i][j] = p[j][i] = F(1, 4) - draw(st.sampled_from([0, 1, 2, 3])) / F(32)
        return p
    if kind == "mixture":
        p = draw(set_mixtures(n))
    else:
        p = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p[i][j] = p[j][i] = draw(grid)
        if kind == "grid":
            return p
    for i, j in itertools.combinations(range(n), 2):
        lo, hi = max(F(0), p[i][i] + p[j][j] - 1), min(p[i][i], p[j][j])
        t = draw(st.sampled_from([None, F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]))
        if t is not None:
            p[i][j] = p[j][i] = lo + t * (hi - lo)
    return p


class TestSetScreens:
    @settings(max_examples=150, deadline=None)
    @given(set_mixtures())
    def test_no_screen_fires_on_mixture_moments(self, p):
        assert set_screen(TwoPointTarget.from_matrix(p)) is None

    @settings(max_examples=120, deadline=None)
    @given(set_targets())
    def test_screen_certificates_and_verdicts(self, p):
        target = TwoPointTarget.from_matrix(p)
        result = realize_subsets(target)
        event(result.method)
        assert result.status == set_verdict(p)
        screened = set_screen(target)
        if screened is None:
            assert result.method not in SET_METHODS
            return
        assert screened.method in SET_METHODS and screened.status == "infeasible"
        assert (result.method, result.certificate) == (screened.method, screened.certificate)
        ok, why = verify_certificate(screened.certificate, target)
        assert ok, why
        assert_set_certificate(screened.certificate, p)

    def test_every_screen_is_reached(self):
        half = F(1, 2)
        cases = {
            "frechet-screen": [[half, half + F(1, 8)], [half + F(1, 8), half]],
            "triangle-screen": [[half if i == j else F(0) for j in range(3)] for i in range(3)],
            # p_i = 1/2, p_ij = 1/4 - 1/16: every triangle holds, Var(N) < 0 at n = 6
            "psd-screen": [[half if i == j else F(3, 16) for j in range(6)] for i in range(6)],
        }
        for method, p in cases.items():
            screened = set_screen(TwoPointTarget.from_matrix(p))
            assert screened.method == method
            assert_set_certificate(screened.certificate, p)
            assert set_verdict(p) == "infeasible"


@st.composite
def frechet_matrices(draw):
    """Symmetric matrices whose off-diagonal entries often sit exactly on a
    Fréchet bound, or within 10^-12 of one (closer than the float tolerance)."""
    n = draw(st.integers(2, 6))
    grid = st.integers(0, 8).map(lambda k: F(k, 8))
    p = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = draw(grid)
    for i, j in itertools.combinations(range(n), 2):
        bound = draw(st.sampled_from([min(p[i][i], p[j][j]), p[i][i] + p[j][j] - 1, F(0)]))
        offset = draw(st.sampled_from([F(0), F(1, 10**12), F(-1, 10**12), F(1, 8), F(-1, 8)]))
        p[i][j] = p[j][i] = draw(st.one_of(st.just(bound + offset), grid))
    return p


def frechet_scan(p):
    """Every pair i < j in row order, checked in Fractions, "upper" first."""
    out = []
    for i, j in itertools.combinations(range(len(p)), 2):
        if p[i][j] > min(p[i][i], p[j][j]):
            out.append(("upper", i, j))
        elif p[i][j] < p[i][i] + p[j][j] - 1:
            out.append(("lower", i, j))
    return out


class TestFrechetViolations:
    @settings(max_examples=300, deadline=None)
    @given(frechet_matrices())
    def test_matches_a_fraction_scan(self, p):
        target = TwoPointTarget.from_matrix(p, validate_range=False)
        assert target.frechet_violations() == frechet_scan(p)


def pp_configs(n, cap, simple):
    per_point = 1 if simple else cap
    return [m for m in itertools.product(range(per_point + 1), repeat=n) if sum(m) <= cap]


def pp_moments(atoms, n):
    """(rho keyed i <= j, rho1) of a law on multiplicity vectors."""
    rho = {(i, j): F(0) for i in range(n) for j in range(i, n)}
    rho1 = [F(0)] * n
    for m, w in atoms:
        for i in range(n):
            rho1[i] += w * m[i]
            for j in range(i, n):
                rho[(i, j)] += w * m[i] * (m[j] - (i == j))
    return rho, rho1


def pp_verdict(target) -> str:
    """Feasibility over every admissible configuration by `exact_simplex`."""
    n = target.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cols = [
        [F(m[i] * (m[j] - (i == j))) for i, j in pairs] + [F(v) for v in m] + [F(1)]
        for m in pp_configs(n, target.cap, target.simple)
    ]
    b = [target.rho_value(i, j) for i, j in pairs] + list(target.rho1) + [F(1)]
    return "feasible" if exact_simplex(cols, b).status == "optimal" else "infeasible"


def assert_pp_certificate(cert, target):
    n = target.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    assert max(max(abs(cert.a[i][j]) for i, j in pairs), *map(abs, cert.blin)) == 1

    def g(m):
        return (
            cert.c
            + sum(b * v for b, v in zip(cert.blin, m))
            + sum(cert.a[i][j] * m[i] * (m[j] - (i == j)) for i, j in pairs)
        )

    values = [g(m) for m in pp_configs(n, target.cap, target.simple)]
    assert min(values) == 0 == g(cert.minimizer)
    assert cert.pairing(target) == -cert.gap < 0


@st.composite
def pp_laws(draw):
    """(n, cap, simple, atoms) with n <= 4 and cap <= 4."""
    n = draw(st.integers(1, 4))
    cap = draw(st.integers(1, 4))
    simple = draw(st.booleans())
    picks = draw(st.lists(st.sampled_from(pp_configs(n, cap, simple)), min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(picks), max_size=len(picks)))
    atoms = [(m, F(w, sum(weights))) for m, w in zip(picks, weights)]
    return n, cap, simple, atoms


def pp_target(n, cap, simple, rho, rho1):
    return CorrelationTarget.build(
        n=n, rho_entries=[(i, j, w) for (i, j), w in rho.items()], rho1=rho1, cap=cap,
        simple=simple,
    )


class TestPPScreens:
    @settings(max_examples=150, deadline=None)
    @given(pp_laws())
    def test_no_screen_fires_on_mixture_moments(self, law):
        n, cap, simple, atoms = law
        rho, rho1 = pp_moments(atoms, n)
        assert pp_screen(pp_target(n, cap, simple, rho, rho1)) is None

    @settings(max_examples=100, deadline=None)
    @given(pp_laws(), st.sampled_from([F(1, 2), F(3, 4), F(1), F(5, 4), F(3, 2), F(2), F(3)]))
    def test_screen_certificates_and_verdicts(self, law, factor):
        # the pair part of a law, rescaled: too little pair mass breaks the
        # PSD screen (Var N < 0), too much the cap screen
        n, cap, simple, atoms = law
        rho, rho1 = pp_moments(atoms, n)
        target = pp_target(n, cap, simple, {k: w * factor for k, w in rho.items()}, rho1)
        result = pp.realize_pp(target)
        event(result.method)
        assert result.status == pp_verdict(target)
        screened = pp_screen(target)
        if screened is None:
            assert result.method not in PP_METHODS
            return
        assert screened.method in PP_METHODS and screened.status == "infeasible"
        assert (result.method, result.certificate) == (screened.method, screened.certificate)
        ok, why = verify_pp_certificate(screened.certificate, target)
        assert ok, why
        assert_pp_certificate(screened.certificate, target)

    def test_every_screen_is_reached(self):
        cases = {
            # simple, E[N] = 3/2 and no pairs: Var N = 3/2 - 9/4 < 0
            "psd-screen": (3, 3, True, [F(1, 2)] * 3, {}),
            # E[N (N - 1)] = 3/2 > (cap - 1) E[N] = 1, with Var N = 3/2 >= 0
            "cap-screen": (1, 2, False, [F(1)], {(0, 0): F(3, 2)}),
        }
        for method, (n, cap, simple, rho1, rho) in cases.items():
            target = pp_target(n, cap, simple, rho, rho1)
            screened = pp_screen(target)
            assert screened.method == method
            assert_pp_certificate(screened.certificate, target)
            assert pp_verdict(target) == "infeasible"

    def test_no_intensity_no_screen(self):
        target = CorrelationTarget.build(n=2, rho_entries=[(0, 1, "5")], cap=2, simple=True)
        assert pp_screen(target) is None
        assert pp.realize_pp(target).method == "enumeration"

    def test_pentagonal_twin_passes_both_screens(self):
        d = [F(37, 60), F(37, 60), F(23, 60), F(23, 60)]
        rho = {k: F(37, 120) for k in itertools.combinations(range(4), 2)}
        rho[(2, 3)] = F(2, 15)
        target = pp_target(4, 4, True, rho, d)
        assert pp_screen(target) is None
        assert pp_verdict(target) == "infeasible"
