import itertools
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit import metric, numbers
from realkit.errors import CapExceeded, InvalidInstance
from realkit.metric import (
    GAMMA_MASS_CAP,
    Configuration,
    FiniteMetricSpace,
    close_pair_count,
    gamma_min_pairs,
    close_pair_envelope,
    make_space,
    packing_number,
    packing_set,
    spread_configuration,
    validate_metric,
)
from helpers import brute_force_close_pairs, brute_force_packing, random_metric_space

EQ3 = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
TWO = make_space([[0, 1], [1, 0]])
ONE = make_space([[0]])


class TestValidate:
    def test_equilateral_ok(self):
        assert validate_metric(EQ3).ok

    def test_symmetry_violation(self):
        space = FiniteMetricSpace(("a", "b"), ((F(0), F(1)), (F(2), F(0))))
        report = validate_metric(space)
        assert not report.ok
        assert ("symmetry", (0, 1)) in report.violations

    def test_triangle_violation(self):
        space = FiniteMetricSpace(
            ("a", "b", "c"),
            (
                (F(0), F(1), F(3)),
                (F(1), F(0), F(1)),
                (F(3), F(1), F(0)),
            ),
        )
        report = validate_metric(space)
        assert not report.ok
        kinds = {v[0] for v in report.violations}
        assert kinds == {"triangle"}

    def test_dimension_mismatch(self):
        space = FiniteMetricSpace(("a", "b"), ((F(0),),))
        with pytest.raises(InvalidInstance):
            validate_metric(space)

    def test_from_json_parses_each_distinct_string_once(self):
        dist = [["0", "1/2", "0.5"], ["1/2", "0", "1/2"], ["0.5", "1/2", "0"]]
        obj = {"labels": ["a", "b", "c"], "dist": dist}
        with mock.patch.object(numbers, "parse_rational", wraps=numbers.parse_rational) as parsed, \
                mock.patch.object(metric, "parse_rational", side_effect=AssertionError("parsed twice")):
            space = FiniteMetricSpace.from_json(obj)
        assert parsed.call_count == 3
        assert space.dist == ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0))

    def test_make_space_parses_raw_rows(self):
        assert make_space([["0", "1/2"], [F(1, 2), 0]], ["a", "b"]).dist == ((0, F(1, 2)), (F(1, 2), 0))
        with pytest.raises(InvalidInstance, match="cannot parse 'x'"):
            make_space([["0", "x"], ["x", "0"]])


class TestPacking:
    def test_equilateral_below_distance(self):
        assert packing_number(EQ3, F(1, 2)) == 3

    def test_exceeding_is_strict(self):
        assert packing_number(EQ3, 1) == 1

    def test_at_zero_full_cardinality(self):
        assert packing_number(EQ3, 0) == 3

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(12):
            space = random_metric_space(rng, 8)
            for t in [F(0)] + space.distance_values():
                assert packing_number(space, t) == brute_force_packing(space, t)

    def test_non_increasing_in_t(self):
        rng = random.Random(5)
        space = random_metric_space(rng, 7)
        values = [packing_number(space, t) for t in space.distance_values()]
        assert values == sorted(values, reverse=True)
        assert packing_number(space, 0) == space.n

    def test_packing_set_is_separated(self):
        rng = random.Random(9)
        space = random_metric_space(rng, 7)
        t = space.distance_values()[1]
        chosen = sorted(packing_set(space, t))
        for a in chosen:
            for b in chosen:
                if a != b:
                    assert space.dist[a][b] > t


class TestGamma:
    def test_two_points_split(self):
        assert gamma_min_pairs(TWO, 2, F(1, 2)) == 0

    def test_two_points_forced_colocation(self):
        assert gamma_min_pairs(TWO, 4, F(1, 2)) == 4

    def test_single_point_all_pairs(self):
        assert gamma_min_pairs(ONE, 3, F(1, 2)) == 6

    def test_cap(self):
        with pytest.raises(CapExceeded):
            gamma_min_pairs(TWO, 9, F(1, 2))

    def test_matches_particle_list_definition(self):
        rng = random.Random(21)
        for _ in range(5):
            space = random_metric_space(rng, 4)
            t = rng.choice(space.distance_values())
            best = None
            for cfg in _all_configs(space.n, 4):
                if cfg.total_mass != 4:
                    continue
                g = brute_force_close_pairs(space, cfg, t)
                best = g if best is None else min(best, g)
            assert gamma_min_pairs(space, 4, t) == best


def _all_configs(n, total):
    if n == 1:
        yield Configuration((total,))
        return
    for first in range(total + 1):
        for rest in _all_configs(n - 1, total - first):
            yield Configuration((first,) + rest.multiplicity)


class TestLemmaBounds:
    def test_known_values(self):
        # q = packing(TWO, 1/2) = 2: n(n/q - 1) = 4, n(n/q + 1) = 12
        assert close_pair_envelope(TWO, 4, F(1, 2)) == (F(4), F(12))

    def test_empty_configuration(self):
        assert close_pair_envelope(TWO, 0, F(1, 2)) == (F(0), F(0))

    def test_single_point_meets_lower_bound(self):
        lower, upper = close_pair_envelope(ONE, 3, F(1, 2))
        assert (lower, upper) == (F(6), F(12))
        assert gamma_min_pairs(ONE, 3, F(1, 2)) == lower

    def test_envelope_random_sweep(self):
        rng = random.Random(17)
        for _ in range(8):
            space = random_metric_space(rng, 5)
            ts = [F(0)] + space.distance_values()
            for n in range(0, 6):
                for t in ts:
                    lower, upper = close_pair_envelope(space, n, t)
                    gamma = gamma_min_pairs(space, n, t)
                    assert gamma >= max(0, lower)
                    spread = spread_configuration(space, n, t)
                    assert close_pair_count(space, spread, t) <= upper

    def test_envelope_on_eight_point_spaces(self):
        rng = random.Random(88)
        for _ in range(3):
            space = random_metric_space(rng, 8)
            ts = [F(0)] + space.distance_values()
            for n in range(0, 7):
                for t in ts:
                    lower, upper = close_pair_envelope(space, n, t)
                    gamma = gamma_min_pairs(space, n, t)
                    assert gamma >= max(0, lower)
                    assert close_pair_count(space, spread_configuration(space, n, t), t) <= upper


TOL = F(1, 10**12)  # validate_metric's default slack


def fraction_violations(d, tol):
    """validate_metric's report as a plain Fraction scan over every triple."""
    n = len(d)
    bad = [("zero-diagonal", (i,)) for i in range(n) if d[i][i] != 0]
    for i, j in itertools.combinations(range(n), 2):
        if d[i][j] != d[j][i]:
            bad.append(("symmetry", (i, j)))
        if d[i][j] <= 0:
            bad.append(("positivity", (i, j)))
    for i, j, k in itertools.permutations(range(n), 3):
        if i < j and d[i][j] > d[i][k] + d[k][j] + tol:
            bad.append(("triangle", (i, j, k)))
    return tuple(bad)


# mixed denominators, so the space's common one is none of them
ENTRIES = st.builds(F, st.integers(1, 40), st.sampled_from([1, 2, 3, 7, 10, 12, 10**12]))


@st.composite
def spaces(draw, max_n=6):
    """Shortest-path closures of random positive matrices."""
    n = draw(st.integers(1, max_n))
    d = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(ENTRIES)
    for k, i, j in itertools.product(range(n), repeat=3):
        d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return make_space(d)


@st.composite
def near_triangle_matrices(draw):
    """Random matrices with entries placed exactly at d_ik + d_kj + tol,
    or 10^-24 either side of it, and the occasional broken axiom."""
    n = draw(st.integers(3, 5))
    tol = draw(st.sampled_from([TOL, F(0), F(1, 3)]))
    d = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(ENTRIES)
    for _ in range(draw(st.integers(1, 4))):
        i, j, k = draw(st.permutations(range(n)))[:3]
        nudge = draw(st.sampled_from([F(0), F(1, 10**24), F(-1, 10**24)]))
        d[i][j] = d[j][i] = d[i][k] + d[k][j] + tol + nudge
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        d[i][j] = draw(st.sampled_from([F(0), F(-1), d[i][j] + TOL]))
    return d, tol


@st.composite
def spaces_and_thresholds(draw):
    """A space and t >= 0 at one of its distances (or 0), or 10^-12 either
    side; or a negative t, -10^-12 or -1, which every close-pair function
    rejects (co-located particles would stop counting as close)."""
    space = draw(spaces())
    if draw(st.sampled_from([False] * 5 + [True])):
        return space, draw(st.sampled_from([-TOL, F(-1)]))
    t = draw(st.sampled_from([F(0), *space.distance_values()]))
    return space, max(F(0), t + draw(st.sampled_from([F(0), TOL, -TOL])))


class TestAgainstFractionOracles:
    """The integer comparisons against Fraction scans written here."""

    @settings(max_examples=300, deadline=None)
    @given(near_triangle_matrices())
    def test_validate_metric(self, case):
        d, tol = case
        space = FiniteMetricSpace(tuple(f"x{i}" for i in range(len(d))), tuple(map(tuple, d)))
        assert validate_metric(space, tol).violations == fraction_violations(d, tol)

    @settings(max_examples=200, deadline=None)
    @given(spaces_and_thresholds(), st.integers(0, 3))
    def test_packing_close_pairs_and_gamma(self, case, mass):
        space, t = case
        if t < 0:
            # invalid input even past the mass cap, where gamma would otherwise give up
            empty = Configuration((0,) * space.n)
            for call in (
                lambda: packing_number(space, t),
                lambda: close_pair_count(space, empty, t),
                lambda: gamma_min_pairs(space, mass, t),
                lambda: gamma_min_pairs(space, GAMMA_MASS_CAP + 1, t),
            ):
                with pytest.raises(InvalidInstance, match="^t must be non-negative$"):
                    call()
            return
        assert packing_number(space, t) == brute_force_packing(space, t)
        for m in _all_configs(space.n, mass):
            assert close_pair_count(space, m, t) == brute_force_close_pairs(space, m, t)
        best = min(brute_force_close_pairs(space, m, t) for m in _all_configs(space.n, mass))
        assert gamma_min_pairs(space, mass, t) == best
