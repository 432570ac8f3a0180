import random
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit import lp
from realkit.errors import InvalidGroup, InvalidInstance
from realkit.lp import column_generation, exact_simplex
from realkit.pp import CorrelationTarget, realize_pp, verify_pp_certificate
from realkit.setrealize import (
    SubsetMixture,
    TwoPointTarget,
    moments_of_mixture,
    realize_subsets,
    symmetrize,
    validate_group,
    verify_certificate,
)
from helpers import mixture_moments_target, random_two_point_target, rebuilt

PRODUCT_2 = TwoPointTarget.from_matrix([["0.5", "0.25"], ["0.25", "0.5"]])
DISJOINT_3 = TwoPointTarget.from_matrix(
    [["0.5", "0", "0"], ["0", "0.5", "0"], ["0", "0", "0.5"]]
)
C3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
# infeasible, yet passes every screen (it violates a pentagonal hypermetric
# inequality), so only the LP proves it; golden set-pentagonal.json
PENTAGONAL = TwoPointTarget.from_matrix([
    ["37/60", "37/120", "37/120", "37/120"],
    ["37/120", "37/60", "37/120", "37/120"],
    ["37/120", "37/120", "23/60", "2/15"],
    ["37/120", "37/120", "2/15", "23/60"],
])


def target_for(n, p_diag, p_off):
    rows = [
        [p_diag if i == j else p_off for j in range(n)]
        for i in range(n)
    ]
    return TwoPointTarget.from_matrix(rows)


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInstance):
            TwoPointTarget.from_matrix([["0.5", "0.2"], ["0.3", "0.5"]])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInstance):
            TwoPointTarget.from_matrix([["1.5"]])

    def test_mirrored_spellings_accepted(self):
        t = TwoPointTarget.from_json({"p": [["1/2", "0.5"], ["1/2", "0.5"]]})
        assert t.p == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # a repeated out-of-range string is named at its first position
            ([["1/2", "3/2"], ["3/2", "3/2"]], "/p/0/1: probability 3/2 outside [0,1]"),
            ([["2", "2"], ["2", "2"]], "/p/0/0: probability 2 outside [0,1]"),
            # out of range below the diagonal only: its mirror differs first
            ([["1/2", "1/2"], ["2", "1/2"]], "p not symmetric at (0,1)"),
            ([["1/2", "2"], ["1/2", "1/2"]], "/p/0/1: probability 2 outside [0,1]"),
            ([["1/4"] * 3, ["1/4"] * 3, ["1/4", "1/8", "1/4"]], "p not symmetric at (1,2)"),
            ([["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/8"], ["1/4", "1/4", "3"]],
             "p not symmetric at (1,2)"),
        ],
    )
    def test_first_failure_named(self, rows, message):
        with pytest.raises(InvalidInstance) as exc:
            TwoPointTarget.from_json({"p": rows})
        assert str(exc.value) == message

    def test_frechet_upper_flagged(self):
        t = TwoPointTarget.from_matrix([["0.2", "0.4"], ["0.4", "0.9"]])
        assert t.frechet_violations() == [("upper", 0, 1)]

    def test_frechet_lower_flagged(self):
        t = TwoPointTarget.from_matrix([["0.9", "0.1"], ["0.1", "0.9"]])
        assert t.frechet_violations() == [("lower", 0, 1)]


class TestRealizeFeasible:
    def test_product_two_points(self):
        result = realize_subsets(PRODUCT_2)
        assert result.status == "feasible"
        assert moments_of_mixture(result.mixture).p == PRODUCT_2.p
        weights = dict(result.mixture.atoms)
        assert weights[frozenset()] == F(1, 4)
        assert weights[frozenset({0, 1})] == F(1, 4)

    def test_zero_target_empty_set(self):
        t = TwoPointTarget.from_matrix([["0", "0"], ["0", "0"]])
        result = realize_subsets(t)
        assert result.status == "feasible"
        assert result.mixture.atoms == ((frozenset(), F(1)),)

    def test_single_point_degenerate(self):
        t = TwoPointTarget.from_matrix([["0.3"]])
        result = realize_subsets(t)
        assert result.status == "feasible"
        assert dict(result.mixture.atoms)[frozenset({0})] == F(3, 10)

    def test_feasible_result_is_exact(self):
        rng = random.Random(23)
        for _ in range(10):
            t = mixture_moments_target(rng, rng.randint(2, 7))
            result = realize_subsets(t)
            assert result.status == "feasible"
            assert result.residual == 0
            result.mixture.validate()
            assert moments_of_mixture(result.mixture).p == t.p

    def test_note_flags_finite_carrier_scope(self):
        assert "finite carrier" in realize_subsets(PRODUCT_2).note


class TestRealizeInfeasible:
    def test_disjointness_certificate(self):
        result = realize_subsets(DISJOINT_3)
        assert result.status == "infeasible"
        cert = result.certificate
        ok, reason = verify_certificate(cert, DISJOINT_3)
        assert ok, reason
        assert cert.pairing(DISJOINT_3) < 0
        assert result.gap > 0

    def test_frechet_screen_returns_certificate(self):
        t = TwoPointTarget.from_matrix([["0.2", "0.4"], ["0.4", "0.9"]])
        result = realize_subsets(t)
        assert result.status == "infeasible"
        assert result.method == "frechet-screen"
        ok, reason = verify_certificate(result.certificate, t)
        assert ok, reason
        # the full LP agrees with the screen
        full = realize_subsets(t, max_exact=0)
        assert full.status == "infeasible"


class TestOracleEquivalence:
    def test_column_generation_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(15):
            t = random_two_point_target(rng, rng.randint(2, 9))
            a = realize_subsets(t)
            b = realize_subsets(t, max_exact=0)
            assert a.status == b.status
            assert a.status in ("feasible", "infeasible")

    def test_relabeling_equivariance(self):
        rng = random.Random(43)
        for _ in range(8):
            n = rng.randint(2, 6)
            t = random_two_point_target(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = TwoPointTarget.from_matrix(
                [[t.p[perm[i]][perm[j]] for j in range(n)] for i in range(n)],
                validate_range=False,
            )
            assert realize_subsets(t).status == realize_subsets(permuted).status


class TestDegenerateTargets:
    """Entries pinned at 0/1 and active necessary bounds stress degenerate
    LP bases; the exact path must still classify everything."""

    @staticmethod
    def degenerate_target(rng, n):
        p = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            p[i][i] = rng.choice([F(0), F(1), F(1), F(1, 2)])
            for j in range(i + 1, n):
                lo = max(F(0), p[i][i] + p[j][j] - 1) if rng.random() < 0.8 else F(0)
                hi = min(p[i][i], p[j][j])
                pick = rng.choice([lo, hi, (lo + hi) / 2])
                p[i][j] = p[j][i] = pick
        return TwoPointTarget.from_matrix(p)

    def test_exact_path_always_classifies(self):
        rng = random.Random(345)
        for trial in range(60):
            n = rng.randint(2, 9)
            t = (
                self.degenerate_target(rng, n)
                if trial % 2
                else mixture_moments_target(rng, n)
            )
            r = realize_subsets(t)
            assert r.status in ("feasible", "infeasible")
            if r.status == "feasible":
                assert r.residual == 0
                assert moments_of_mixture(r.mixture).p == t.p
                r.mixture.validate()
            else:
                ok, why = verify_certificate(r.certificate, t)
                assert ok, why

    def test_exact_column_generation_engine_agrees(self, monkeypatch):
        from realkit import lp

        def inconclusive(A, b):
            # a "feasible" float master with an empty support: nothing to
            # rebuild, so the driver starts its exact rounds from scratch
            return 0.0, np.zeros(A.shape[1]), np.zeros(A.shape[0])

        rng = random.Random(89)
        # the screens answer the random infeasible targets without an LP
        targets = [PENTAGONAL]
        for trial in range(10):
            n = rng.randint(2, 6)
            targets.append(
                self.degenerate_target(rng, n) if trial % 2 else mixture_moments_target(rng, n)
            )
        for t in targets:
            if t.frechet_violations():
                continue
            a = realize_subsets(t)
            with monkeypatch.context() as patch:
                patch.setattr(lp, "float_phase1", inconclusive)
                b = realize_subsets(t)
            assert b.method == "exact-column-generation"
            assert a.status == b.status
            if b.status == "feasible":
                assert moments_of_mixture(b.mixture).p == t.p
            else:
                assert verify_certificate(b.certificate, t)[0]


class TestFloatReconstructionFailure:
    def test_falls_back_to_exact_weights(self, monkeypatch):
        from realkit import lp

        monkeypatch.setattr(lp, "_rebuild_on_support", lambda *args: None)
        rng = random.Random(61)
        for _ in range(5):
            t = mixture_moments_target(rng, rng.randint(3, 7))
            r = realize_subsets(t, max_exact=0)
            assert r.status == "feasible"
            assert r.residual == 0
            assert all(isinstance(w, F) for _, w in r.mixture.atoms)
            assert moments_of_mixture(r.mixture).p == t.p


class TestFloatInfeasibleMaster:
    def test_exact_rounds_start_from_every_master_column(self, monkeypatch):
        # an infeasible float master's phase-1 point says nothing about where
        # a solution lies, so the exact rounds keep all 16 enumerated columns
        def claims_infeasible(A, b):
            y = np.zeros(A.shape[0])
            y[-1] = 1.0
            return 1.0, np.zeros(A.shape[1]), y

        masters = []
        exact = lp.exact_simplex

        def counted(cols, b, obj=None):
            masters.append(len(cols))
            return exact(cols, b, obj)

        monkeypatch.setattr(lp, "float_phase1", claims_infeasible)
        monkeypatch.setattr(lp, "exact_simplex", counted)
        t = target_for(4, "1/2", "1/4")
        r = realize_subsets(t)
        assert (r.status, r.method) == ("feasible", "exact-column-generation")
        assert moments_of_mixture(r.mixture).p == t.p
        assert masters == [16]


@st.composite
def set_lps(draw):
    """(n, b) for n <= 6: the pair rows and the normalisation of a target,
    half of them the moments of a random mixture, half a random grid."""
    n = draw(st.integers(2, 6))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    if draw(st.booleans()):
        masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(masks), max_size=len(masks)))
        total = sum(weights)
        b = [
            sum((F(w, total) for m, w in zip(masks, weights) if m >> i & 1 and m >> j & 1), F(0))
            for i, j in pairs
        ]
    else:
        b = [F(draw(st.integers(0, 4)), 4) for _ in pairs]
    return n, b + [F(1)]


class TestDriverAgainstExactOracle:
    """Both seeds of the set driver against `exact_simplex` over all 2^n
    columns, built here from the definition. At n <= 6 a batch of 64 takes
    every column in one round, so a batch of 1 keeps the multi-round path
    covered."""

    @pytest.mark.parametrize("batch", [1, 64])
    @settings(max_examples=60, deadline=None)
    @given(set_lps())
    def test_verdict_under_both_seeds(self, batch, lp_instance):
        from realkit.qubo import pair_matrix
        from realkit.setrealize import _SubsetOracle

        n, b = lp_instance
        oracle = _SubsetOracle(TwoPointTarget.from_matrix(pair_matrix(n, b[:-1])))
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        columns = {
            mask: [int(mask >> i & 1 and mask >> j & 1) for i, j in pairs] + [1]
            for mask in range(1 << n)
        }
        verdict = exact_simplex(list(columns.values()), b).status
        singletons = sorted({0, (1 << n) - 1} | {1 << i for i in range(n)})
        for seed in (list(range(1 << n)), singletons):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lp, "PRICING_BATCH", batch)
                res = column_generation(oracle, b, seed)
            assert (res.status == "feasible") == (verdict == "optimal")
            if res.status == "feasible":
                assert all(w >= 0 for w in res.x)
                for row in range(len(b)):
                    assert sum(columns[k][row] * w for k, w in zip(res.keys, res.x)) == b[row]
            else:
                assert res.status == "infeasible"
                assert sum(y * v for y, v in zip(res.farkas, b)) > 0
                prices = {k: sum(y * v for y, v in zip(res.farkas, col)) for k, col in columns.items()}
                assert max(prices.values()) == 0 == prices[res.witness]


class TestPricingCalls:
    def test_a_full_master_is_not_priced(self, monkeypatch):
        from realkit import setrealize

        calls = []
        topk = setrealize.qubo_topk_float

        def counted(*args):
            calls.append(args)
            return topk(*args)

        monkeypatch.setattr(setrealize, "qubo_topk_float", counted)
        r = realize_subsets(PENTAGONAL)
        assert (r.status, r.method, calls) == ("infeasible", "enumeration", [])
        r = realize_subsets(PENTAGONAL, max_exact=3)
        assert (r.status, r.method) == ("infeasible", "column-generation") and calls


class TestWideRounds:
    def test_half_size_cyclic_design_at_n20(self, monkeypatch):
        # the moments of n half-size cyclic intervals with weights 1..4;
        # rounds of 8 columns with eviction took 231 float masters here
        n = 20
        weights = [F(k % 4 + 1) for k in range(n)]
        total = sum(weights)
        p = [[F(0)] * n for _ in range(n)]
        for k, w in enumerate(weights):
            members = [(k + t) % n for t in range(n // 2)]
            for i in members:
                for j in members:
                    p[i][j] += w / total
        t = TwoPointTarget.from_matrix(p)
        masters = []
        float_phase1 = lp.float_phase1

        def counted(A, b):
            masters.append(A.shape[1])
            return float_phase1(A, b)

        monkeypatch.setattr(lp, "float_phase1", counted)
        r = realize_subsets(t)
        assert r.status == "feasible"
        assert r.method == "column-generation"
        assert moments_of_mixture(r.mixture).p == t.p
        assert len(masters) <= 40


def relabel(perm, p):
    """New point k is old point perm[k]."""
    return [[p[a][b] for b in perm] for a in perm]


class TestRelabelling:
    """Permuting the points leaves the verdict unchanged, and the permuted
    mixture or certificate answers the permuted target."""

    @settings(max_examples=60, deadline=None)
    @given(set_lps(), st.randoms(use_true_random=False), st.booleans())
    def test_verdict_is_invariant(self, lp_instance, rng, force_cg):
        n, b = lp_instance
        values = iter(b)
        p = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                p[i][j] = p[j][i] = next(values)
        perm = list(range(n))
        rng.shuffle(perm)
        t = TwoPointTarget.from_matrix(p)
        moved = TwoPointTarget.from_matrix(relabel(perm, p))
        max_exact = 0 if force_cg else 12
        r = realize_subsets(t, max_exact)
        assert realize_subsets(moved, max_exact).status == r.status
        back = {old: new for new, old in enumerate(perm)}
        if r.status == "feasible":
            mix = SubsetMixture(
                n=n, atoms=tuple((frozenset(back[i] for i in s), w) for s, w in r.mixture.atoms)
            )
            assert moments_of_mixture(mix).p == moved.p
        else:
            cert = rebuilt(
                r.certificate,
                a=relabel(perm, r.certificate.a),
                minimizer=frozenset(back[i] for i in r.certificate.minimizer),
            )
            ok, why = verify_certificate(cert, moved)
            assert ok, why


class TestMoments:
    def test_deterministic_set(self):
        mix = SubsetMixture(n=3, atoms=((frozenset({0, 2}), F(1)),))
        hat = moments_of_mixture(mix)
        assert hat.p[0][2] == 1 and hat.p[0][0] == 1 and hat.p[1][1] == 0

    def test_empty_set(self):
        mix = SubsetMixture(n=2, atoms=((frozenset(), F(1)),))
        assert all(v == 0 for row in moments_of_mixture(mix).p for v in row)

    def test_product_mixture_moments(self):
        # five independent points, each present with probability 1/2
        subsets = [frozenset(i for i in range(5) if mask >> i & 1) for mask in range(32)]
        mix = SubsetMixture(n=5, atoms=tuple((s, F(1, 32)) for s in subsets))
        hat = moments_of_mixture(mix)
        for i in range(5):
            assert hat.p[i][i] == F(1, 2)
            for j in range(i + 1, 5):
                assert hat.p[i][j] == F(1, 4)


class TestSymmetrize:
    def test_identity_group_is_noop(self):
        # two independent points, present with probabilities 1/2 and 1/4
        mix = SubsetMixture(n=2, atoms=(
            (frozenset(), F(3, 8)), (frozenset({0}), F(3, 8)),
            (frozenset({0, 1}), F(1, 8)), (frozenset({1}), F(1, 8)),
        ))
        out = symmetrize(mix, [[0, 1]])
        assert out.atoms == mix.atoms

    def test_cyclic_orbit_average(self):
        mix = SubsetMixture(n=3, atoms=((frozenset({0}), F(1)),))
        out = symmetrize(mix, C3)
        assert dict(out.atoms) == {
            frozenset({0}): F(1, 3),
            frozenset({1}): F(1, 3),
            frozenset({2}): F(1, 3),
        }

    def test_invariance_and_moment_preservation(self):
        target = target_for(3, F(1, 2), F(1, 4))
        result = realize_subsets(target)
        out = symmetrize(result.mixture, C3)
        for g in C3:
            moved = {
                frozenset(g[i] for i in subset): w for subset, w in out.atoms
            }
            assert moved == dict(out.atoms)
        assert moments_of_mixture(out).p == target.p

    def test_non_group_rejected(self):
        mix = SubsetMixture(n=3, atoms=((frozenset(), F(1)),))
        with pytest.raises(InvalidGroup):
            symmetrize(mix, [[0, 1, 2], [1, 2, 0], [1, 0, 2]])

    def test_validate_group_requires_identity(self):
        with pytest.raises(InvalidGroup):
            validate_group([[1, 2, 0], [2, 0, 1]], 3)


# E[N(N - 1)] = 9/2 on three points under cap 2: G = 1 - N(N - 1)/2 separates it
CAP_2 = CorrelationTarget.build(
    n=3, rho_entries=[(i, j, "1/2") for i in range(3) for j in range(i, 3)], cap=2
)


class TestCertificateTamper:
    @pytest.mark.parametrize(
        "target, realize, verify, moved",
        [
            (DISJOINT_3, realize_subsets, verify_certificate, (0, 1, 2)),
            (CAP_2, realize_pp, verify_pp_certificate, (0, 0, 0)),
        ],
        ids=["set", "pp"],
    )
    def test_mutations_all_rejected(self, target, realize, verify, moved):
        base = realize(target).certificate
        assert verify(base, target)[0]
        tenth = F(1, 10)

        def with_a(i, j, value):
            a = [list(row) for row in base.a]
            a[i][j] = value
            a[j][i] = value
            return rebuilt(base, a=a)

        def with_a_one_sided(i, j, value):
            a = [list(row) for row in base.a]
            a[i][j] = value
            return rebuilt(base, a=a)

        mutants = [rebuilt(base, c=-base.c), rebuilt(base, c=base.c - tenth)]
        for i in range(3):
            mutants.append(with_a(i, i, -base.a[i][i]))          # pairing flips sign
            mutants.append(with_a(i, i, base.a[i][i] - tenth))   # breaks max|a| = 1
            mutants.append(with_a(i, i, base.a[i][i] + tenth))   # stored gap/minimizer stale
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            mutants.append(with_a(i, j, -base.a[i][j]))          # functional dips below 0
            mutants.append(with_a(i, j, base.a[i][j] + tenth))   # breaks max|a| = 1
        mutants.append(with_a_one_sided(0, 1, base.a[0][1] - tenth))  # asymmetric
        mutants.append(replace(base, gap=base.gap + tenth))           # stale gap
        mutants.append(replace(base, minimizer=moved))                # not a minimiser
        doubled = tuple(tuple(2 * v for v in row) for row in base.a)
        mutants.append(rebuilt(base, c=2 * base.c, a=doubled, gap=2 * base.gap))  # max|a| = 2
        assert len(mutants) == 21
        for k, cert in enumerate(mutants):
            ok, reason = verify(cert, target)
            assert not ok, f"mutant {k} unexpectedly verified"
