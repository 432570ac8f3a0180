import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit import cli
from realkit.errors import InvalidBeta, InvalidInstance, InvalidPsi
from realkit.metric import make_space, packing_number
from realkit.numbers import INF, pow_neg_half_d
from realkit.pp import ConfigMixture, CorrelationTarget, pp_moments
from realkit.regularity import (
    AtomicMeasure2D,
    PsiFunction,
    chi_hc_integral,
    hardcore_split_check,
    packing_integral,
    psi_admissibility,
    reduced_measure_check,
    shell_series,
)
from helpers import random_simple_config_mixture

EQ3 = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
TWO_AT_2 = make_space([[0, 2], [2, 0]])

INV_SQUARE = PsiFunction(((F(0), F(1)), (F(2), F(1, 4))))
HARD = PsiFunction(((F(0), INF), (F(1), F(1))))


class TestPsiFunction:
    def test_increasing_segment_rejected(self):
        with pytest.raises(InvalidPsi):
            PsiFunction(((F(0), F(1)), (F(1), F(2))))

    def test_must_start_at_zero(self):
        with pytest.raises(InvalidPsi):
            PsiFunction(((F(1), F(1)),))

    def test_right_continuous_lookup(self):
        psi = PsiFunction(((F(0), F(3)), (F(1), F(2))))
        assert psi.value(F(1)) == 2
        assert psi.value(F(99, 100)) == 3

    def test_infinite_head(self):
        assert HARD.value(F(1, 2)) == INF
        assert HARD.value(F(1)) == 1


class TestChiIntegral:
    def test_single_atom(self):
        m = AtomicMeasure2D.on_space(TWO_AT_2, [(0, 1, "2")])
        assert chi_hc_integral(m, INV_SQUARE) == F(1, 2)

    def test_diagonal_atom_with_infinite_head(self):
        m = AtomicMeasure2D.on_space(TWO_AT_2, [(0, 0, "1")])
        assert chi_hc_integral(m, HARD) == INF

    def test_empty_measure(self):
        m = AtomicMeasure2D.on_space(TWO_AT_2, [])
        assert chi_hc_integral(m, INV_SQUARE) == 0

    def test_additive_in_the_measure(self):
        a = AtomicMeasure2D.on_space(EQ3, [(0, 1, "1")])
        b = AtomicMeasure2D.on_space(EQ3, [(1, 2, "3")])
        both = AtomicMeasure2D.on_space(EQ3, [(0, 1, "1"), (1, 2, "3")])
        assert chi_hc_integral(both, INV_SQUARE) == chi_hc_integral(
            a, INV_SQUARE
        ) + chi_hc_integral(b, INV_SQUARE)

    def test_monotone_in_psi(self):
        small = PsiFunction(((F(0), F(1)),))
        large = PsiFunction(((F(0), F(2)),))
        m = AtomicMeasure2D.on_space(EQ3, [(0, 1, "1"), (0, 2, "2")])
        assert chi_hc_integral(m, small) <= chi_hc_integral(m, large)

    def test_euclidean_measure_is_rejected(self):
        m = AtomicMeasure2D.euclidean(2, [(("0", "0"), ("1", "1"), "1")])
        with pytest.raises(InvalidInstance, match="finite-space measure"):
            chi_hc_integral(m, INV_SQUARE)


class TestPackingIntegral:
    def test_equilateral_atom(self):
        m = AtomicMeasure2D.on_space(EQ3, [(0, 1, "1")])
        assert packing_integral(m, EQ3) == 1  # packing number at distance 1

    def test_empty(self):
        assert packing_integral(AtomicMeasure2D.on_space(EQ3, []), EQ3) == 0

    def test_linear(self):
        m = AtomicMeasure2D.on_space(EQ3, [(0, 1, "1"), (0, 2, "1")])
        assert packing_integral(m, EQ3) == 2


class TestPsiAdmissibility:
    def test_packing_over_t_profile_passes(self):
        # psi(t) = packing(t) / t at the space's distances grows as t drops
        sp = make_space([[0, F(1, 4), F(1, 2)], [F(1, 4), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]])
        steps = []
        for t in reversed(sp.distance_values()):
            steps.append((t, F(packing_number(sp, t)) / t))
        steps.append((F(0), 2 * steps[-1][1]))
        psi = PsiFunction(tuple(sorted(steps)))
        report = psi_admissibility(psi, sp, threshold="1")
        assert report.passes
        assert report.smallest_distance == F(1, 4)

    def test_constant_psi_fails(self):
        psi = PsiFunction(((F(0), F(1)),))
        report = psi_admissibility(psi, EQ3, threshold="2")
        assert not report.passes

    def test_infinite_head_passes(self):
        close = make_space([[0, F(1, 2)], [F(1, 2), 0]])
        report = psi_admissibility(HARD, close, threshold="1000000")
        assert report.ratio_at_smallest == INF
        assert report.passes


class TestShellSeries:
    def test_single_atom_telescopes_to_zero(self):
        m = AtomicMeasure2D.euclidean(1, [(("0",), ("0.5",), "1")])
        res = shell_series(m, ["1", "2", "3"], ["1", "1"])
        assert res.r_values == [(F(2), F(2))] * 3
        assert res.series == (F(0), F(0))

    def test_diagonal_atom_is_infinite(self):
        m = AtomicMeasure2D.euclidean(1, [(("0.5",), ("0.5",), "1")])
        res = shell_series(m, ["1", "2"], ["1"])
        assert res.infinite and res.series == (INF, INF)

    def test_empty_measure(self):
        m = AtomicMeasure2D.euclidean(2, [])
        res = shell_series(m, ["1", "2"], ["1"])
        assert res.series == (F(0), F(0))

    def test_constant_beta_telescopes(self):
        rng = random.Random(55)
        atoms = []
        for _ in range(5):
            x = (F(rng.randint(-3, 3), 8), F(rng.randint(-3, 3), 8))
            y = (F(rng.randint(-3, 3), 8), F(rng.randint(-3, 3), 8))
            if x != y:
                atoms.append((x, y, F(rng.randint(1, 5))))
        m = AtomicMeasure2D.euclidean(2, atoms)
        radii = ["1", "2", "3", "4"]
        res = shell_series(m, radii, ["2", "2", "2"])
        first = res.r_values[0]
        last = res.r_values[-1]
        # sum telescopes to beta * (r_last - r_first); d=2 is exact
        assert res.series == (
            2 * (last[0] - first[0]),
            2 * (last[1] - first[1]),
        )

    def test_increasing_beta_rejected(self):
        m = AtomicMeasure2D.euclidean(1, [(("0",), ("0.5",), "1")])
        with pytest.raises(InvalidBeta):
            shell_series(m, ["1", "2"], ["1", "2", "3"][:1] + ["2"])


class TestReducedMeasure:
    def test_single_atom(self):
        res = reduced_measure_check([(("0.5",), "1")], "1", 1)
        assert res.value == (F(2), F(2)) and not res.origin_atom

    def test_origin_atom_flagged(self):
        res = reduced_measure_check([(("0",), "1")], "1", 1)
        assert res.origin_atom and res.value == (INF, INF)

    def test_atoms_outside_ball_ignored(self):
        res = reduced_measure_check([(("5",), "1")], "1", 1)
        assert res.value == (F(0), F(0))

    @pytest.mark.parametrize(
        "point, d",
        [((), 0), (("1",), 0), (("1",), -1), (("1", "0", "0"), 2), (("1",), 2)],
        ids=[
            "d-zero-empty-point", "d-zero", "d-negative", "three-coordinates-in-the-plane",
            "one-coordinate-in-the-plane",
        ],
    )
    def test_dimension_and_coordinates_checked(self, point, d):
        with pytest.raises(InvalidInstance):
            reduced_measure_check([(point, "1")], "2", d)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInstance, match="^atom weights must be non-negative$"):
            reduced_measure_check([(("1",), "-1")], "2", 1)

    def test_translation_consistency_with_pair_measure(self):
        # pair atoms ((x, x+y)) built from a reduced measure: the inverse-power
        # pair integral restricted to x in A equals mass(A) * lam^2 * reduced sum
        lam = F(3, 2)
        reduced_atoms = [((F(1, 2),), F(1)), ((F(1, 4),), F(2))]
        xs = [(F(0),), (F(1),), (F(2),)]
        pair_sum = F(0)
        for x in xs:
            for y, w in reduced_atoms:
                dist = abs(y[0])  # |(x + y) - x|
                pair_sum += lam * lam * w * dist ** (-1)
        res = reduced_measure_check(reduced_atoms, "1", 1)
        assert pair_sum == len(xs) * lam * lam * res.value[0]


class TestSplit:
    SP = make_space([[0, 1], [1, 0]])

    def target(self):
        return CorrelationTarget.build(
            rho_entries=[(0, 1, "1")], cap=2, simple=True, space=self.SP
        )

    def test_realizable_small_integral(self):
        psi = PsiFunction(((F(0), F(3)), (F(1, 2), F(2))))
        verdict = hardcore_split_check(self.target(), psi, "10")
        assert verdict.integral == 4  # two ordered atoms at psi(1) = 2
        assert verdict.integral_ok
        assert verdict.positivity.status == "feasible"
        assert verdict.optimum == verdict.integral

    def test_large_integral_early_exit(self):
        psi = PsiFunction(((F(0), F(3)), (F(1, 2), F(2))))
        verdict = hardcore_split_check(self.target(), psi, "1")
        assert not verdict.integral_ok and verdict.positivity is None

    def test_positivity_failure_with_small_integral(self):
        bad = CorrelationTarget.build(
            rho_entries=[(0, 0, "1")], cap=2, simple=True, space=self.SP
        )
        psi = PsiFunction(((F(0), F(1)),))
        verdict = hardcore_split_check(bad, psi, "10")
        assert verdict.integral_ok
        assert verdict.positivity.status == "infeasible"
        assert verdict.positivity.certificate is not None

    def test_packing_weight_optimum_equals_packing_integral(self):
        # with the packing number as the step weight, the optimum of the
        # close-pair expectation, by a cost LP over every configuration
        # built here, is the packing integral, and the split check reports it
        rng = random.Random(81)
        from helpers import brute_force_packing, g_h, pp_oracle, random_metric_space

        for _ in range(5):
            n = rng.randint(2, 4)
            space = random_metric_space(rng, n)
            atoms = random_simple_config_mixture(rng, n, cap=n)
            rho, rho1 = pp_moments(ConfigMixture(n=n, atoms=tuple(atoms)))
            target = CorrelationTarget.build(
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=list(rho1),
                cap=n,
                simple=True,
                space=space,
            )
            steps = [(F(0), F(packing_number(space, F(0))))]
            for t in space.distance_values():
                steps.append((t, F(packing_number(space, t))))
            psi = PsiFunction(tuple(steps))
            h = [[F(brute_force_packing(space, d)) for d in row] for row in space.dist]
            verdict, optimum = pp_oracle(target, lambda c: g_h(c.multiplicity, h))
            expected = packing_integral(AtomicMeasure2D.from_target(target), space)
            assert verdict == "feasible" and optimum == expected
            assert hardcore_split_check(target, psi, expected).optimum == expected

    def test_optimum_equals_integral_random(self):
        rng = random.Random(71)
        for _ in range(6):
            n = rng.randint(2, 4)
            space_rows = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    space_rows[i][j] = space_rows[j][i] = F(rng.randint(2, 5), 2)
            # loose triangle fix: clip to min path
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if space_rows[i][k] + space_rows[k][j] < space_rows[i][j]:
                            space_rows[i][j] = space_rows[i][k] + space_rows[k][j]
            space = make_space(space_rows)
            atoms = random_simple_config_mixture(rng, n, cap=n)
            rho, rho1 = pp_moments(ConfigMixture(n=n, atoms=tuple(atoms)))
            target = CorrelationTarget.build(
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=list(rho1),
                cap=n,
                simple=True,
                space=space,
            )
            values = sorted(space.distance_values(), reverse=True)
            steps = [(F(0), F(len(values) + 1))]
            for rank, t in enumerate(sorted(values)):
                steps.append((t, F(len(values) - rank)))
            psi = PsiFunction(tuple(sorted(set(steps))))
            verdict = hardcore_split_check(target, psi, "1000000")
            assert verdict.integral_ok
            assert verdict.positivity.status == "feasible"
            assert verdict.optimum == verdict.integral


# The definitions below keep +inf apart by hand at every step, comparisons
# included; the properties compare the module with them. Weights past the
# float range, both ways, sit next to infinite values: a Fraction that meets
# inf in a sum or product is converted to a float first (nan below the
# smallest, OverflowError above the largest), so these are where plain
# arithmetic on inf would break.


def _gt(a, b) -> bool:
    if a == INF:
        return b != INF
    if b == INF:
        return False
    return a > b


def _enc_add(x, y):
    lo = INF if (x[0] == INF or y[0] == INF) else x[0] + y[0]
    hi = INF if (x[1] == INF or y[1] == INF) else x[1] + y[1]
    return (lo, hi)


def _enc_scale(x, s):
    lo = INF if x[0] == INF else s * x[0]
    hi = INF if x[1] == INF else s * x[1]
    return (lo, hi)


def _sq(a, b=None):
    """|a - b|^2, or |a|^2 without b."""
    b = b or (0,) * len(a)
    return sum(((x - y) ** 2 for x, y in zip(a, b)), F(0))


def psi_error(steps):
    """The message that validating `steps` gives, None when they are valid."""
    if not steps:
        return "psi needs at least one step"
    if steps[0][0] != 0:
        return "the first psi threshold must be 0"
    prev_t = prev_v = None
    for t, v in steps:
        if t < 0:
            return "psi thresholds must be non-negative"
        if v != INF and v < 0:
            return "psi values must be non-negative"
        if prev_t is not None and t <= prev_t:
            return "psi thresholds must increase strictly"
        if prev_v is not None and _gt(v, prev_v):
            return "psi must be non-increasing"
        prev_t, prev_v = t, v
    return None


def psi_at_sq(psi, sq):
    """psi(sqrt(sq)): the value of the last step whose threshold t has t^2 <= sq."""
    return [v for t, v in psi.steps if t * t <= sq][-1]


def chi_oracle(atoms, psi, sq_of):
    total = F(0)
    for a, b, w in atoms:
        if w == 0:
            continue
        v = psi_at_sq(psi, sq_of(a, b))
        if v == INF:
            return INF
        total = total + w * v
    return total


def shells_oracle(d, atoms, radii, beta):
    r_values = []
    for R in radii:
        acc = (F(0), F(0))
        for a, b, w in atoms:
            if w > 0 and _sq(a) < R * R and _sq(b) < R * R:
                acc = _enc_add(acc, _enc_scale(pow_neg_half_d(_sq(a, b), d), w))
        r_values.append(acc)
    if any(v[0] == INF for v in r_values):
        return r_values, (INF, INF)
    series = (F(0), F(0))
    for k in range(len(radii) - 1):
        diff = (r_values[k + 1][0] - r_values[k][1], r_values[k + 1][1] - r_values[k][0])
        series = _enc_add(series, _enc_scale(diff, beta[k]))
    return r_values, series


def reduced_oracle(atoms, R, d):
    total = (F(0), F(0))
    origin = False
    for y, w in atoms:
        if w == 0 or _sq(y) >= R * R:
            continue
        if _sq(y) == 0:
            origin = True
            total = (INF, INF)
            continue
        total = _enc_add(total, _enc_scale(pow_neg_half_d(_sq(y), d), w))
    return total, origin


def admissibility_oracle(psi, space, threshold):
    dists = space.distance_values()
    profile = []
    for t in sorted(set(dists) | {t for t, _ in psi.steps if t > 0}):
        pv = psi_at_sq(psi, t * t)
        pk = packing_number(space, t)
        profile.append((t, pv, pk, INF if pv == INF else F(pv, pk)))
    if not dists:
        return profile, None, False
    ratio = next(r for t, _, _, r in profile if t == dists[0])
    return profile, ratio, ratio == INF or ratio > threshold


def verdict_oracle(value, bound):
    lo, hi = value
    if bound is None:
        return "pass" if hi != INF else "fail"
    if hi != INF and hi <= bound:
        return "pass"
    if lo == INF or lo > bound:
        return "fail"
    return "indeterminate"


PAST_FLOATS = [F(1, 10**400), F(10**400)]
WEIGHTS = st.sampled_from([F(0), *PAST_FLOATS]) | st.fractions(0, 4, max_denominator=6)
VALUES = st.sampled_from([INF, *PAST_FLOATS]) | st.fractions(0, 4, max_denominator=6)
COORDS = st.integers(-4, 4).map(lambda k: F(k, 2))


@st.composite
def psis(draw):
    """Valid step weights, with an infinite head of 0 or more steps."""
    ts = sorted(draw(st.sets(st.integers(1, 12), max_size=3)))
    k = len(ts) + 1
    values = draw(st.lists(st.fractions(0, 4, max_denominator=4), min_size=k, max_size=k))
    values.sort(reverse=True)
    heads = draw(st.integers(0, len(values)))
    values[:heads] = [INF] * heads
    return PsiFunction(tuple(zip([F(0)] + [F(t, 4) for t in ts], values)))


@st.composite
def euclidean_atoms(draw, points: int):
    """(d, atoms) for d = 1..4: each atom is `points` points of R^d and a
    weight. A point may be the origin or repeat the atom's first point."""
    d = draw(st.integers(1, 4))
    point = st.lists(COORDS, min_size=d, max_size=d).map(tuple) | st.just((F(0),) * d)
    atoms = []
    for _ in range(draw(st.integers(0, 5))):
        first = draw(point)
        rest = [draw(point | st.just(first)) for _ in range(points - 1)]
        atoms.append((first, *rest, draw(WEIGHTS)))
    return d, atoms


@st.composite
def line_spaces(draw):
    """A finite metric space of distinct points k/4 on a line."""
    xs = sorted(draw(st.sets(st.integers(0, 8), min_size=1, max_size=4)))
    return make_space([[F(abs(x - y), 4) for y in xs] for x in xs])


class TestAgainstExplicitInfinity:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-1, 3).map(lambda k: F(k, 2)), VALUES | st.just(F(-1))),
            max_size=4,
        )
    )
    def test_psi_validation(self, steps):
        expected = psi_error(steps)
        if expected is None:
            assert PsiFunction(tuple(steps)).steps == tuple(steps)
        else:
            with pytest.raises(InvalidPsi, match=f"^{expected}$"):
                PsiFunction(tuple(steps))

    @settings(max_examples=200, deadline=None)
    @given(line_spaces(), psis(), st.data())
    def test_chi_on_a_finite_space(self, space, psi, data):
        index = st.integers(0, space.n - 1)
        atoms = data.draw(st.lists(st.tuples(index, index, WEIGHTS), max_size=5))
        measure = AtomicMeasure2D.on_space(space, atoms)
        expected = chi_oracle(atoms, psi, lambda a, b: space.dist[a][b] ** 2)
        assert chi_hc_integral(measure, psi) == expected

    @settings(max_examples=200, deadline=None)
    @given(euclidean_atoms(2), st.sets(st.integers(1, 6), min_size=1, max_size=3), st.data())
    def test_shell_series(self, case, radii, data):
        d, atoms = case
        radii = sorted(F(r, 2) for r in radii)
        k = len(radii) - 1
        beta = data.draw(st.lists(st.fractions(1, 3, max_denominator=3), min_size=k, max_size=k))
        beta.sort(reverse=True)
        res = shell_series(AtomicMeasure2D.euclidean(d, atoms), radii, beta)
        r_values, series = shells_oracle(d, atoms, radii, beta)
        assert (res.r_values, res.series) == (r_values, series)
        assert res.infinite == (series[0] == INF)

    @settings(max_examples=300, deadline=None)
    @given(euclidean_atoms(1), st.integers(1, 6))
    def test_reduced_measure(self, case, radius):
        d, atoms = case
        res = reduced_measure_check(atoms, F(radius, 2), d)
        assert (res.value, res.origin_atom) == reduced_oracle(atoms, F(radius, 2), d)

    @settings(max_examples=200, deadline=None)
    @given(line_spaces(), psis(), st.fractions(0, 8, max_denominator=4))
    def test_psi_admissibility(self, space, psi, threshold):
        rep = psi_admissibility(psi, space, threshold)
        profile, ratio, passes = admissibility_oracle(psi, space, threshold)
        assert (rep.profile, rep.ratio_at_smallest, rep.passes) == (profile, ratio, passes)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(VALUES, min_size=2, max_size=2), st.none() | st.fractions(0, 4, max_denominator=4)
    )
    def test_regularity_verdict(self, ends, bound):
        value = (min(ends), max(ends))
        assert cli._verdict_from_enclosure(value, bound) == verdict_oracle(value, bound)
