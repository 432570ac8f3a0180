import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit.contact import (
    BallSystem,
    StepCdf,
    ball_positivity_screen,
    check_two_point,
    construct_two_point_set,
    invert_cdf,
    monte_carlo_contact,
)
from realkit import contact
from realkit.errors import CapExceeded, Infeasible, InvalidInstance

def _sqrt_lower(sq):
    from realkit.numbers import sqrt_interval

    return sqrt_interval(sq)[0]


STEP_1 = StepCdf(((F(1), F(1)),))
STEP_3 = StepCdf(((F(3), F(1)),))
STEP_15 = StepCdf(((F(3, 2), F(1)),))
TWO_STEP = StepCdf(((F(1), F(2, 5)), (F(2), F(1))))


class TestStepCdf:
    def test_rejects_decreasing_values(self):
        with pytest.raises(InvalidInstance):
            StepCdf(((F(1), F(1)), (F(2), F(1, 2))))

    def test_rejects_value_above_one(self):
        with pytest.raises(InvalidInstance):
            StepCdf(((F(1), F(2)),))

    def test_lookup(self):
        assert TWO_STEP.value(F(1)) == F(2, 5)
        assert TWO_STEP.value(F(3, 2)) == F(2, 5)
        assert TWO_STEP.value(F(1, 2)) == 0
        assert TWO_STEP.value(F(7)) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.fractions(0, 5, max_denominator=6), max_size=8, unique=True),
        st.lists(st.fractions(0, 1, max_denominator=6), min_size=8, max_size=8),
        st.lists(st.fractions(-2, 6, max_denominator=12), max_size=6),
    )
    def test_value_against_a_scan(self, abscissae, values, probes):
        # flat jumps included: the cdf drops them, the scan does not
        given = list(zip(sorted(abscissae), sorted(values)))
        tau = StepCdf(tuple(given))
        for r, _ in given:
            probes += [r, r - F(1, 97), r + F(1, 97)]
        for t in [F(-1), F(0), *probes]:
            # the value of the last jump at or before t, 0 before the first
            expected = max((v for r, v in given if r <= t), default=F(0))
            assert tau.value(t) == expected


class TestCheckTwoPoint:
    def test_equal_cdfs_always_feasible(self):
        for l in ("0", "1", "2.5"):
            assert check_two_point(TWO_STEP, TWO_STEP, l).feasible

    def test_violation_at_two(self):
        result = check_two_point(STEP_1, STEP_3, 1)
        assert not result.feasible
        assert result.violation_at == 2
        assert result.side == "lower"

    def test_close_steps_feasible(self):
        assert check_two_point(STEP_1, STEP_15, 1).feasible

    def test_symmetric_verdict(self):
        rng = random.Random(19)
        for _ in range(20):
            jumps1 = sorted({F(rng.randint(1, 8), 2) for _ in range(3)})
            jumps2 = sorted({F(rng.randint(1, 8), 2) for _ in range(3)})
            vals = sorted(F(rng.randint(1, 4), 4) for _ in range(3))
            t1 = StepCdf(tuple(zip(jumps1, vals[: len(jumps1)])))
            t2 = StepCdf(tuple(zip(jumps2, vals[: len(jumps2)])))
            l = F(rng.randint(0, 4), 2)
            assert (
                check_two_point(t1, t2, l).feasible
                == check_two_point(t2, t1, l).feasible
            )

    def test_pass_bounds_inverse_gap(self):
        # whenever the sandwich passes, inverses at common u differ by <= l
        rng = random.Random(29)
        for _ in range(20):
            jumps1 = sorted({F(rng.randint(1, 10), 2) for _ in range(3)})
            jumps2 = sorted({F(rng.randint(1, 10), 2) for _ in range(3)})
            k = min(len(jumps1), len(jumps2))
            vals = sorted({F(rng.randint(1, 8), 8) for _ in range(k)})
            t1 = StepCdf(tuple(zip(jumps1[: len(vals)], vals)))
            t2 = StepCdf(tuple(zip(jumps2[: len(vals)], vals)))
            l = F(rng.randint(0, 6), 2)
            if not check_two_point(t1, t2, l).feasible:
                continue
            for grid in range(1, 1001):
                u = F(grid, 1000) * min(t1.total_mass(), t2.total_mass())
                if u == 0:
                    continue
                r1 = invert_cdf(t1, u)
                r2 = invert_cdf(t2, u)
                assert abs(r1 - r2) <= l


class TestInvert:
    def test_single_step(self):
        assert invert_cdf(STEP_1, F(1, 2)) == 1

    def test_zero_maps_to_zero(self):
        assert invert_cdf(STEP_1, 0) == 0

    def test_two_step(self):
        assert invert_cdf(TWO_STEP, F(7, 10)) == 2

    def test_beyond_mass_is_none(self):
        half = StepCdf(((F(1), F(1, 2)),))
        assert invert_cdf(half, F(3, 4)) is None


class TestConstruct:
    def test_antipodal_points(self):
        ta = StepCdf(((F(1), F(1)),))
        tb = StepCdf(((F(2), F(1)),))
        out = construct_two_point_set(ta, tb, ("0", "0"), ("2", "0"), F(1, 2))
        assert not out.no_point
        assert (out.r1, out.r2) == (1, 2)
        assert out.points == ((-1.0, 0.0), (4.0, 0.0))

    def test_exact_distances_rational(self):
        # squared distances are rational even when l is not
        ta = StepCdf(((F(1), F(1)),))
        out = construct_two_point_set(ta, ta, ("0", "0"), ("1", "1"), F(1))
        assert out.r1 == out.r2 == 1
        # d(x1, a1)^2 == r1^2 by collinearity: (r1/l)^2 * l^2
        assert F(out.r1) ** 2 == F(1)

    def test_equal_cdfs_coinciding_points(self):
        out = construct_two_point_set(STEP_1, STEP_1, ("0",), ("0",), F(1, 2))
        assert out.points == ((1.0,),)

    def test_coinciding_points_different_cdfs_rejected(self):
        with pytest.raises(Infeasible):
            construct_two_point_set(STEP_1, STEP_3, ("0",), ("0",), F(1, 2))

    def test_no_point_beyond_mass(self):
        half = StepCdf(((F(1), F(1, 2)),))
        out = construct_two_point_set(half, half, ("0",), ("1",), F(3, 4))
        assert out.no_point

    def test_separation_below_the_float_range(self):
        out = construct_two_point_set(STEP_1, STEP_1, ("0",), ("1e-400",), F(1, 2))
        assert out.points == ((-1,), (1 + F(1, 10**400),))

    def test_nearest_point_distances_exact(self):
        # the four centre-to-point distances are R1, l+R2, l+R1, R2, so the
        # nearest point of the set realises exactly the inverted radii; the
        # comparison R1 <= l + R2 is decided in exact arithmetic
        from realkit.numbers import compare_rational_to_sqrt, norm_sq

        rng = random.Random(37)
        for _ in range(20):
            jumps = sorted({F(rng.randint(1, 9), 2) for _ in range(2)})
            vals = sorted({F(rng.randint(1, 4), 4) for _ in range(len(jumps))})
            tau1 = StepCdf(tuple(zip(jumps, vals)))
            shift = F(rng.randint(0, 1), 2)
            tau2 = StepCdf(tuple((r + shift, v) for r, v in tau1.jumps))
            x1 = (F(0), F(0))
            x2 = (F(rng.randint(1, 3)), F(rng.randint(0, 2)))
            l_sq = norm_sq(x1, x2)
            if not check_two_point(tau1, tau2, _sqrt_lower(l_sq)).feasible:
                continue
            u = F(rng.randint(1, 4), 4) * tau1.total_mass()
            out = construct_two_point_set(tau1, tau2, x1, x2, u)
            if out.no_point:
                continue
            # d(x1, set) = min(R1, l + R2) must equal R1: R1 - R2 <= l exactly
            assert compare_rational_to_sqrt(out.r1 - out.r2, l_sq) <= 0
            assert compare_rational_to_sqrt(out.r2 - out.r1, l_sq) <= 0


class TestMonteCarlo:
    def test_deterministic_taus_have_zero_deviation(self):
        rep = monte_carlo_contact(STEP_1, STEP_15, ("0",), ("1",), samples=2000, seed=7)
        assert rep.max_deviation1 == 0.0
        assert rep.max_deviation2 == 0.0

    def test_two_step_within_dkw(self):
        t2 = StepCdf(((F(3, 2), F(1, 2)), (F(5, 2), F(1)),))
        rep = monte_carlo_contact(TWO_STEP, t2, ("0",), ("1",), samples=100000, seed=7)
        assert rep.max_deviation1 <= 0.012
        assert rep.max_deviation2 <= 0.012

    def test_bit_identical_reruns(self):
        a = monte_carlo_contact(STEP_1, STEP_15, ("0",), ("1",), samples=5000, seed=11)
        b = monte_carlo_contact(STEP_1, STEP_15, ("0",), ("1",), samples=5000, seed=11)
        assert a == b

    def test_sub_probability_mass_recorded(self):
        half = StepCdf(((F(1), F(1, 2)),))
        rep = monte_carlo_contact(half, half, ("0",), ("1",), samples=20000, seed=3)
        assert rep.no_point_fraction == pytest.approx(0.5, abs=0.02)

    def test_rejects_failing_instance(self):
        with pytest.raises(Infeasible):
            monte_carlo_contact(STEP_1, STEP_3, ("0",), ("1",), samples=10, seed=1)

    def test_one_construction_per_class_of_draws(self, monkeypatch):
        calls = []
        build = contact._place_two_points
        monkeypatch.setattr(
            contact, "_place_two_points", lambda *a: calls.append(a) or build(*a)
        )
        t2 = StepCdf(((F(3, 2), F(1, 2)), (F(5, 2), F(9, 10))))
        t1 = StepCdf(((F(1), F(2, 5)), (F(2), F(9, 10))))
        monte_carlo_contact(t1, t2, ("0", "0"), ("1", "1"), samples=20000, seed=7)
        assert 1 <= len(calls) <= len(t1.jumps) + len(t2.jumps) + 2

    def test_one_separation_enclosure_per_call(self, monkeypatch):
        # the points, l^2 and the enclosure of l are computed once, not per class
        calls = []
        enclose = contact.sqrt_interval
        monkeypatch.setattr(contact, "sqrt_interval", lambda x: calls.append(x) or enclose(x))
        t2 = StepCdf(((F(3, 2), F(1, 2)), (F(5, 2), F(9, 10))))
        t1 = StepCdf(((F(1), F(2, 5)), (F(2), F(9, 10))))
        monte_carlo_contact(t1, t2, ("0", "0"), ("1", "1"), samples=20000, seed=7)
        assert calls == [F(2)]

    def test_matches_per_draw_inversion(self):
        # each draw inverted on its own, exactly, against the per-class counts
        rng = random.Random(41)
        for seed in range(10):
            jumps = sorted({F(rng.randint(1, 9), 2) for _ in range(3)})
            vals = sorted({F(rng.randint(1, 10), 10) for _ in range(len(jumps))})
            tau1 = StepCdf(tuple(zip(jumps, vals)))
            tau2 = StepCdf(tuple((r + F(1, 2), v) for r, v in tau1.jumps))
            rep = monte_carlo_contact(tau1, tau2, ("0",), ("1",), samples=2000, seed=seed)
            draws = [F(u) for u in np.random.default_rng(seed).random(2000)]
            grid = sorted(set(tau1.abscissae() + tau2.abscissae()))
            for tau, emp in ((tau1, rep.empirical1), (tau2, rep.empirical2)):
                radii = [invert_cdf(tau, u) for u in draws]
                assert emp == [sum(r is not None and r <= A for r in radii) / 2000 for A in grid]
            misses = sum(invert_cdf(tau1, u) is None for u in draws)
            assert rep.no_point_fraction == misses / 2000


class TestBallScreen:
    def tau_map(self, centers, cdf):
        return {tuple(F(c) for c in center): cdf for center in centers}

    def test_single_positive_ball_passes(self):
        system = BallSystem(((F(0), F(0)),), (F(1),), (F(1),))
        taus = self.tau_map([(0, 0)], STEP_1)
        rep = ball_positivity_screen(taus, system, [("0", "0"), ("2", "2")])
        assert rep.label == "screen"
        assert rep.system_nonnegative and rep.passes

    def test_nested_balls_monotonicity(self):
        system = BallSystem(
            ((F(0),), (F(0),)), (F(2), F(1)), (F(1), F(-1))
        )
        taus = {(F(0),): TWO_STEP}
        rep = ball_positivity_screen(taus, system, [("0",), ("0.5",), ("1.5",), ("3",)])
        assert rep.system_nonnegative
        # tau(2) - tau(1) = 1 - 2/5 >= 0
        assert rep.tau_sum == F(3, 5) and rep.passes

    def test_negative_system_rejected_without_tau_check(self):
        system = BallSystem(((F(0),),), (F(1),), (F(-1),))
        taus = {(F(0),): STEP_1}
        rep = ball_positivity_screen(taus, system, [("0",)])
        assert not rep.system_nonnegative
        assert rep.negative_mask == [0]
        assert rep.tau_sum is None

    def test_violation_detected(self):
        # two disjoint balls: hitting both costs more than the parts
        system = BallSystem(
            ((F(0),), (F(10),)), (F(1), F(1)), (F(1), F(1))
        )
        bad = StepCdf(((F(1), F(0)),))  # zero mass anywhere near
        good = StepCdf(((F(1), F(1)),))
        taus = {(F(0),): bad, (F(10),): bad}
        rep = ball_positivity_screen(taus, system, [("0",), ("10",)])
        assert rep.system_nonnegative
        assert rep.tau_sum == 0 and rep.passes  # >= 0 still holds
        taus2 = {(F(0),): good, (F(10),): good}
        system2 = BallSystem(((F(0),), (F(10),)), (F(1), F(1)), (F(1), F(-2)))
        rep2 = ball_positivity_screen(taus2, system2, [("0",), ("10",)])
        assert not rep2.system_nonnegative  # hitting only the second ball

    def test_hit_pattern_cap(self, monkeypatch):
        # one probe per ball reaches 2^3 = 8 patterns, past a limit of 4
        monkeypatch.setattr(contact, "HIT_PATTERN_LIMIT", 4)
        system = BallSystem(tuple((F(10 * k),) for k in range(3)), (F(1),) * 3, (F(1),) * 3)
        taus = {(F(10 * k),): STEP_1 for k in range(3)}
        probes = [(str(10 * k),) for k in range(3)]
        with pytest.raises(CapExceeded):
            ball_positivity_screen(taus, system, probes)
        rep = ball_positivity_screen(taus, system, probes, trials=20, seed=1)
        assert rep.method == "sampled" and rep.system_nonnegative


@st.composite
def screened_systems(draw):
    """A ball system in R^1 or R^2 with integer data, a cdf per center, and
    at most 8 probe points."""
    d = draw(st.integers(1, 2))
    coord = st.integers(-3, 3).map(F)
    point = st.lists(coord, min_size=d, max_size=d).map(tuple)
    m = draw(st.integers(1, 4))
    centers = tuple(draw(point) for _ in range(m))
    radii = tuple(F(draw(st.integers(1, 4)), 2) for _ in range(m))
    coefficients = tuple(F(draw(st.integers(-3, 3))) for _ in range(m))
    taus = {}
    for c in centers:
        rs = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)))
        vs = sorted(draw(st.lists(st.integers(0, 4), min_size=len(rs), max_size=len(rs))))
        taus[c] = StepCdf(tuple((F(r, 2), F(v, 4)) for r, v in zip(rs, vs)))
    probes = draw(st.lists(point, min_size=1, max_size=8))
    return BallSystem(centers, radii, coefficients), taus, probes


def _step_value(tau, r):
    """tau(r) from the jumps: the value of the last jump at or before r, 0 before the first."""
    return max((v for R, v in tau.jumps if R <= r), default=F(0))


class TestBallScreenAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(screened_systems())
    def test_every_probe_subset(self, case):
        system, taus, probes = case
        m = len(system.coefficients)
        def hit(p, k):
            return sum((a - b) ** 2 for a, b in zip(p, system.centers[k])) <= system.radii[k] ** 2

        hits = [{k for k in range(m) if hit(p, k)} for p in probes]
        unions = [
            set().union(*subset)
            for size in range(len(hits) + 1)
            for subset in itertools.combinations(hits, size)
        ]
        values = [sum((system.coefficients[k] for k in u), F(0)) for u in unions]
        rep = ball_positivity_screen(taus, system, probes)
        assert rep.method == "exhaustive"
        assert rep.system_nonnegative == (min(values) >= 0)
        if rep.system_nonnegative:
            balls = zip(system.centers, system.radii, system.coefficients)
            expected = sum((a * _step_value(taus[c], r) for c, r, a in balls), F(0))
            assert (rep.negative_mask, rep.tau_sum, rep.passes) == (None, expected, expected >= 0)
        else:
            assert set(rep.negative_mask) in unions
            assert sum(system.coefficients[k] for k in rep.negative_mask) == min(values)
            assert rep.tau_sum is None and rep.passes is None
