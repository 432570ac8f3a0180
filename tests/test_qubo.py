import itertools
import random
from fractions import Fraction as F
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit import qubo
from realkit.errors import CapExceeded, InvalidInstance
from realkit.qubo import (
    check_symmetric, evaluate_g, lex_min_mask, pair_list, qubo_min, qubo_topk_float,
)


def zeros(n):
    return [[F(0)] * n for _ in range(n)]


def exhaust(c, a, n):
    """Minimum value and lex-smallest minimising index tuple, by brute force."""
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    best = min(evaluate_g(c, a, set(s)) for s in subsets)
    return best, min(s for s in subsets if evaluate_g(c, a, set(s)) == best)


def min_recording_dtypes(c, a, n, low_bits):
    """qubo_min at the given LOW_BITS, and the dtype of every value table."""
    dtypes = []
    table = qubo._table

    def spy(c, a, diag, lo, dtype):
        dtypes.append(dtype)
        return table(c, a, diag, lo, dtype)

    with mock.patch.object(qubo, "LOW_BITS", low_bits):
        with mock.patch.object(qubo, "_table", spy):
            return qubo_min(c, a, n), dtypes


def sym(entries, n):
    a = zeros(n)
    for (i, j), v in entries.items():
        a[i][j] = F(v)
        a[j][i] = F(v)
    return a


class TestEvaluate:
    def test_disjointness_functional(self):
        a = sym({(0, 0): -2, (1, 1): -2, (2, 2): -2, (0, 1): 4, (0, 2): 4, (1, 2): 4}, 3)
        assert evaluate_g(F(2), a, {0, 1}) == F(2)

    def test_empty_set_gives_constant(self):
        a = sym({(0, 1): 7, (0, 0): -3}, 2)
        assert evaluate_g(F(11), a, set()) == F(11)

    def test_full_set_counts_upper_triangle(self):
        a = [[F(1), F(1)], [F(1), F(1)]]
        assert evaluate_g(F(0), a, {0, 1}) == F(3)

    def test_rejects_asymmetric(self):
        a = [[F(0), F(1)], [F(2), F(0)]]
        with pytest.raises(InvalidInstance):
            evaluate_g(F(0), a, {0})

    def test_first_asymmetric_pair_named(self):
        # (0, 1) mirrors one shared object, (1, 2) two different ones
        half = F(1, 2)
        a = [[F(0), half, F(0)], [half, F(0), F(1)], [F(0), 1, F(0)]]
        check_symmetric(a, 3)
        a[2][1] = F(2)
        with pytest.raises(InvalidInstance, match=r"^coefficient matrix not symmetric at \(1,2\)$"):
            check_symmetric(a, 3)

    def test_shared_nan_is_not_symmetric(self):
        nan = float("nan")
        a = [[0.0, nan], [nan, 0.0]]
        with pytest.raises(InvalidInstance, match=r"not symmetric at \(0,1\)"):
            check_symmetric(a, 2)
        with pytest.raises(InvalidInstance, match=r"not symmetric at \(0,1\)"):
            evaluate_g(0.0, a, {0})
        with pytest.raises(InvalidInstance, match=r"not symmetric at \(0,1\)"):
            qubo_min(0.0, a, 2)


class TestQuboMin:
    def test_constant_functional(self):
        subset, value = qubo_min(F(5), zeros(3), 3)
        assert subset == frozenset() and value == 5

    def test_separable_negative_diagonal(self):
        a = sym({(0, 0): -1, (1, 1): -1, (2, 2): -1}, 3)
        subset, value = qubo_min(F(0), a, 3)
        assert subset == frozenset({0, 1, 2}) and value == -3

    def test_tie_broken_to_empty_set(self):
        a = sym({(0, 0): 1, (1, 1): 1, (0, 1): -2}, 2)
        subset, value = qubo_min(F(0), a, 2)
        assert value == 0 and subset == frozenset()

    def test_cap(self):
        with pytest.raises(CapExceeded):
            qubo_min(F(0), zeros(31), 31)

    def test_negative_n(self):
        with pytest.raises(InvalidInstance, match="n must be non-negative"):
            qubo_min(F(0), [], -1)

    def test_matches_exhaustion_random(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.randint(1, 7)
            a = zeros(n)
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
            c = F(rng.randint(-3, 3))
            subset, value = qubo_min(c, a, n)
            best = min(
                evaluate_g(c, a, set(s))
                for r in range(n + 1)
                for s in itertools.combinations(range(n), r)
            )
            assert value == best
            assert evaluate_g(c, a, subset) == best

    @settings(max_examples=150, deadline=None)
    @given(
        low_bits=st.integers(2, 3),
        n=st.integers(1, 7),
        c=st.integers(-2, 2),
        data=st.data(),
    )
    def test_prefix_blocks_match_exhaustion(self, low_bits, n, c, data):
        # a small LOW_BITS makes the high-bit prefix loop run; the narrow
        # coefficient range makes ties, so the lex-min tie-break is exercised
        size = n * (n + 1) // 2
        entries = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        a = zeros(n)
        for (i, j), v in zip(pair_list(n), entries):
            a[i][j] = a[j][i] = F(v)
        with mock.patch.object(qubo, "LOW_BITS", low_bits):
            subset, value = qubo_min(F(c), a, n)
        want_value, want_subset = exhaust(F(c), a, n)
        assert value == want_value
        assert tuple(sorted(subset)) == want_subset

    @settings(max_examples=150, deadline=None)
    @given(
        low_bits=st.sampled_from([2, 3, 20]),
        n=st.integers(1, 9),
        c=st.integers(-1, 1),
        data=st.data(),
    )
    def test_sparse_ties_match_exhaustion(self, low_bits, n, c, data):
        # one to three entries in {-1, 1}: thousands of minimisers tie, inside
        # one value table and across the high-bit blocks
        pairs = data.draw(st.lists(st.sampled_from(pair_list(n)), min_size=1, max_size=3))
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=len(pairs), max_size=len(pairs)))
        a = sym(dict(zip(pairs, signs)), n)
        with mock.patch.object(qubo, "LOW_BITS", low_bits):
            subset, value = qubo_min(F(c), a, n)
        assert (value, tuple(sorted(subset))) == exhaust(F(c), a, n)

    @pytest.mark.parametrize("low_bits", [17, 20])
    @pytest.mark.parametrize(
        "pair, want",
        [
            # only subsets holding 0 and 1 reach -1; {0, 1} is their lex-min
            ((0, 1), frozenset({0, 1})),
            # every superset of {18, 19} reaches -1; the full set is the lex-min
            ((18, 19), frozenset(range(20))),
        ],
    )
    def test_single_negative_pair_at_n20(self, low_bits, pair, want):
        with mock.patch.object(qubo, "LOW_BITS", low_bits):
            assert qubo_min(F(0), sym({pair: -1}, 20), 20) == (want, -1)

    @pytest.mark.parametrize("low_bits", [3, 20])
    @pytest.mark.parametrize(
        "total, want",
        [
            (2**15 - 1, np.int16),
            (2**15, np.int32),
            (2**31 - 1, np.int32),
            (2**31, np.int64),
            (2**63 - 1, np.int64),
            (2**63, object),
        ],
    )
    def test_narrowest_dtype_holds_every_partial_sum(self, low_bits, total, want):
        # every coefficient negative with denominator 3, cleared absolute sum
        # `total`: the full set's value -total/3 is the extreme partial sum
        n = 5
        cleared = [(total - 1) // 15] * 15
        cleared[0] += (total - 1) % 15
        a = zeros(n)
        for (i, j), x in zip(pair_list(n), cleared):
            a[i][j] = a[j][i] = F(-x, 3)
        c = F(-1, 3)
        (subset, value), dtypes = min_recording_dtypes(c, a, n, low_bits)
        assert dtypes and all(d is want for d in dtypes)
        assert value == F(-total, 3)
        assert (value, tuple(sorted(subset))) == exhaust(c, a, n)

    def test_object_dtype_past_the_int64_guard(self):
        # Fraction(float) coefficients spanning many binary orders of
        # magnitude: after clearing denominators the absolute sum is >= 2^63
        rng = random.Random(31)
        for low_bits in (3, 20):
            n = 6
            a = zeros(n)
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = F(rng.uniform(-1, 1))
            a[0][1] = a[1][0] = F(1e-9)
            c = F(0.1)
            scale = lcm(c.denominator, *(a[i][j].denominator for i, j in pair_list(n)))
            assert abs(c) * scale + sum(abs(a[i][j]) * scale for i, j in pair_list(n)) >= 2**63
            (subset, value), dtypes = min_recording_dtypes(c, a, n, low_bits)
            assert dtypes and all(d is object for d in dtypes)
            assert (value, tuple(sorted(subset))) == exhaust(c, a, n)

    @pytest.mark.parametrize("form", ["int", "fraction", "mixed", "float"])
    def test_input_forms_match_exhaustion(self, form):
        # dyadic values, so every float is exact; "mixed" writes each entry
        # and its mirror in different forms
        rng = random.Random(41)
        forms = {"int": [int], "fraction": [F], "float": [float], "mixed": [int, F, float]}[form]

        def write(v):
            kind = rng.choice(forms)
            return F(v) if kind is int and v.denominator != 1 else kind(v)

        for _ in range(20):
            n = rng.randint(1, 6)
            a = [[0] * n for _ in range(n)]
            for i, j in pair_list(n):
                v = F(rng.randint(-8, 8), 1 if form == "int" else rng.choice([1, 2, 4]))
                a[i][j], a[j][i] = write(v), write(v)
            c = write(F(rng.randint(-4, 4), 1 if form == "int" else 2))
            subset, value = qubo_min(c, a, n)
            assert isinstance(value, F)
            assert (value, tuple(sorted(subset))) == exhaust(c, a, n)

    @settings(max_examples=120, deadline=None)
    @given(
        low_bits=st.sampled_from([3, 20]),
        n=st.integers(1, 8),
        limit=st.sampled_from([
            (2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32),
            (2**31, np.int64), (2**63 - 1, np.int64), (2**63, object),
        ]),
        data=st.data(),
    )
    def test_integer_input_on_both_sides_of_each_dtype_limit(self, low_bits, n, limit, data):
        # integer input is taken at scale 1: |c| + sum |a_ij| is `total`,
        # split at random cut points into c and the upper triangle
        total, want = limit
        size = n * (n + 1) // 2
        cuts = sorted(data.draw(st.lists(st.integers(0, total), min_size=size, max_size=size)))
        parts = [y - x for x, y in zip([0, *cuts], [*cuts, total])]
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=size + 1, max_size=size + 1))
        c, *entries = [s * x for s, x in zip(signs, parts)]
        a = [[0] * n for _ in range(n)]
        for (i, j), v in zip(pair_list(n), entries):
            a[i][j] = a[j][i] = v
        (subset, value), dtypes = min_recording_dtypes(c, a, n, low_bits)
        assert dtypes and all(d is want for d in dtypes)
        assert (value, tuple(sorted(subset))) == exhaust(c, a, n)
        fractions = [[F(v) for v in row] for row in a]
        with mock.patch.object(qubo, "LOW_BITS", low_bits):
            assert qubo_min(F(c), fractions, n) == (subset, value)

    @pytest.mark.parametrize(
        "a",
        [
            [[0, 1], [2, 0]],
            [[F(0), F(1, 2)], [F(1, 4), F(0)]],
            [[0, F(1, 2)], [0.25, 0]],
            [[0.0, 0.5], [0.25, 0.0]],
        ],
        ids=["int", "fraction", "mixed", "float"],
    )
    def test_lower_triangle_still_checked(self, a):
        with pytest.raises(InvalidInstance, match=r"not symmetric at \(0,1\)"):
            qubo_min(F(0), a, 2)

    def test_float_mode_matches_exact_on_integers(self):
        rng = random.Random(12)
        for _ in range(10):
            n = rng.randint(2, 8)
            a = zeros(n)
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = F(rng.randint(-4, 4))
            _, exact_val = qubo_min(F(1), a, n)
            [(mask, float_val)] = qubo_topk_float(1.0, a, n, 1)
            assert float_val == float(exact_val)
            assert evaluate_g(F(1), a, {i for i in range(n) if mask >> i & 1}) == exact_val


class TestLexTieBreak:
    def test_prefers_empty(self):
        assert lex_min_mask([0b110, 0b000]) == 0

    def test_prefix_wins(self):
        # {1} before {1,2}
        assert lex_min_mask([0b010, 0b110]) == 0b010

    def test_smaller_first_element(self):
        # {0,2} before {1}
        assert lex_min_mask([0b101, 0b010]) == 0b101

    def test_against_sorted_tuples(self):
        rng = random.Random(4)
        for _ in range(50):
            masks = [rng.randrange(64) for _ in range(rng.randint(1, 10))]
            want = min(
                masks,
                key=lambda m: tuple(i for i in range(6) if (m >> i) & 1),
            )
            # several masks can share the minimal tuple only if equal
            got = lex_min_mask(masks)
            key = lambda m: tuple(i for i in range(6) if (m >> i) & 1)
            assert key(got) == key(want)


class TestTopK:
    def test_contains_the_minimum(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(2, 8)
            a = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.uniform(-1, 1)
            top = qubo_topk_float(0.5, a, n, 4)
            _, best = qubo_min(0.5, a, n)
            assert top[0][1] == pytest.approx(float(best))
            assert [v for _, v in top] == sorted(v for _, v in top)
