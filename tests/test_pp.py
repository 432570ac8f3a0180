import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from realkit import lp, pp
from realkit.cli import main
from realkit.errors import CapExceeded, InvalidInstance
from realkit.lp import exact_simplex
from realkit.metric import Configuration, make_space
from realkit.numbers import INF
from realkit.pp import (
    ConfigMixture,
    CorrelationTarget,
    check_hardcore_support,
    enumerate_configs,
    objective_cardinality,
    positivity_screen,
    pp_moments,
    realize_pinned,
    realize_pp,
    verify_pp_certificate,
)
from realkit.regularity import AtomicMeasure2D, PsiFunction, chi_hc_integral
from realkit.setrealize import SubsetMixture, TwoPointTarget, realize_subsets
from helpers import g_h, pp_oracle as oracle, random_simple_config_mixture
from test_cli import _child_env
from test_golden import INSTANCES

PAIR_TARGET = CorrelationTarget.build(n=2, rho_entries=[(0, 1, "1")], cap=2, simple=True)
# infeasible, yet passes the PSD and cap screens, so only the LP proves it: the
# pp twin of a pentagonal hypermetric violation (golden pp-pentagonal.json)
PENTAGONAL = CorrelationTarget.build(
    n=4,
    rho_entries=[(0, 1, "37/120"), (0, 2, "37/120"), (0, 3, "37/120"),
                 (1, 2, "37/120"), (1, 3, "37/120"), (2, 3, "2/15")],
    rho1=["37/60", "37/60", "23/60", "23/60"],
    cap=4,
    simple=True,
)


def indicator(n, i, j):
    h = [[F(0)] * n for _ in range(n)]
    h[i][j] = F(1)
    h[j][i] = F(1)
    return h


class TestGhEval:
    """The tests' own per-configuration pair sum `helpers.g_h`, the oracle
    of every close-pair objective below."""

    def test_empty_configuration(self):
        h = indicator(2, 0, 1)
        assert g_h((0, 0), h) == 0

    def test_both_ordered_pairs_count(self):
        assert g_h((1, 1), indicator(2, 0, 1)) == 2

    def test_colocated_particles(self):
        assert g_h((2, 1), indicator(2, 0, 0)) == 2

    def test_multiplicities_multiply(self):
        assert g_h((2, 3), indicator(2, 0, 1)) == 12

    def test_lone_particle_skips_an_infinite_diagonal(self):
        # point 0 holds no pair of particles, so its infinite weight costs nothing
        assert g_h((1, 0), [[INF, 1], [1, 0]]) == 0


class TestEnumerate:
    def test_simple_subsets(self):
        out = enumerate_configs(CorrelationTarget.build(n=2, cap=2, simple=True))
        assert [c.multiplicity for c in out] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_multiplicities_added(self):
        out = enumerate_configs(CorrelationTarget.build(n=2, cap=2))
        assert set(c.multiplicity for c in out) == {
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
        }

    def test_hardcore_at_least_eps_admits_boundary(self):
        eq3 = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        out = enumerate_configs(CorrelationTarget.build(cap=3, hardcore_eps="1", space=eq3))
        # distances equal to eps are allowed, so all simple subsets remain
        assert len(out) == 8

    def test_hardcore_excludes_close_pairs(self):
        sp = make_space([[0, F(1, 2)], [F(1, 2), 0]])
        out = enumerate_configs(CorrelationTarget.build(cap=2, hardcore_eps="1", space=sp))
        assert set(c.multiplicity for c in out) == {(0, 0), (0, 1), (1, 0)}

    def test_strict_variant_excludes_boundary(self):
        eq3 = make_space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        target = CorrelationTarget.build(
            rho_entries=[(0, 1, "1")], cap=3, space=eq3,
            hardcore_eps="1", hardcore_strict=True,
        )
        assert {c.multiplicity for c in enumerate_configs(target)} == {
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
        }
        result = realize_pp(target)
        assert result.status == "infeasible" and result.method == "validation"


class TestHardcoreSupport:
    SP = make_space([[0, F(1, 2)], [F(1, 2), 0]])

    def test_offender_listed(self):
        target = CorrelationTarget.build(
            rho_entries=[(0, 1, "1")], cap=2, hardcore_eps="1", space=self.SP
        )
        ok, offenders = check_hardcore_support(target)
        assert not ok and offenders == [(0, 1, F(1))]

    def test_empty_measure_passes(self):
        target = CorrelationTarget.build(rho_entries=[], cap=2, hardcore_eps="1", space=self.SP)
        ok, offenders = check_hardcore_support(target)
        assert ok and offenders == []

    def test_far_atom_passes(self):
        target = CorrelationTarget.build(
            rho_entries=[(0, 1, "1")], cap=2, hardcore_eps="0.5", space=self.SP
        )
        ok, _ = check_hardcore_support(target)
        assert ok


class TestRealize:
    def test_forced_pair(self):
        result = realize_pp(PAIR_TARGET, objective=objective_cardinality(2))
        assert result.status == "feasible"
        assert dict((c.multiplicity, w) for c, w in result.mixture.atoms) == {
            (1, 1): F(1)
        }
        assert result.objective_value == 4
        assert result.dual_value == result.objective_value

    def test_simple_diagonal_atom_rejected_at_validation(self):
        target = CorrelationTarget.build(
            n=2, rho_entries=[(0, 0, "1")], cap=2, simple=True
        )
        result = realize_pp(target)
        assert result.status == "infeasible"
        assert result.method == "validation"
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason

    def test_hardcore_atom_rejected_before_lp(self):
        sp = make_space([[0, F(1, 2)], [F(1, 2), 0]])
        target = CorrelationTarget.build(
            rho_entries=[(0, 1, "1")], cap=2, space=sp, hardcore_eps="1"
        )
        result = realize_pp(target)
        assert result.status == "infeasible"
        assert result.method == "validation"
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason

    def test_infeasible_with_intensity_gets_linear_certificate(self):
        # pair correlations vanish but intensities force expected mass 3/2 > 1
        target = CorrelationTarget.build(
            n=3,
            rho_entries=[],
            rho1=["0.5", "0.5", "0.5"],
            cap=3,
            simple=True,
        )
        result = realize_pp(target)
        assert result.status == "infeasible"
        assert result.certificate.blin is not None
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason

    def test_mixture_moments_reproduced_exactly(self):
        rng = random.Random(91)
        for _ in range(8):
            n = rng.randint(2, 4)
            atoms = random_simple_config_mixture(rng, n, cap=n)
            rho, rho1 = {}, [F(0)] * n
            for cfg, w in atoms:
                hat, r1 = pp_moments(ConfigMixture(n=n, atoms=((cfg, w),)))
                for k, v in hat.items():
                    rho[k] = rho.get(k, F(0)) + v
                rho1 = [a + b for a, b in zip(rho1, r1)]
            target = CorrelationTarget.build(
                n=n,
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=rho1,
                cap=n,
                simple=True,
            )
            result = realize_pp(target)
            assert result.status == "feasible"
            hat, r1_hat = pp_moments(result.mixture)
            assert hat == {k: v for k, v in rho.items() if v != 0}
            assert list(r1_hat) == rho1

    def test_cap_monotonicity(self):
        rng = random.Random(97)
        for _ in range(6):
            n = rng.randint(2, 4)
            atoms = random_simple_config_mixture(rng, n, cap=2)
            mix = ConfigMixture(n=n, atoms=tuple(atoms))
            rho, rho1 = pp_moments(mix)
            base = CorrelationTarget.build(
                n=n,
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=list(rho1),
                cap=2,
                simple=True,
            )
            assert realize_pp(base).status == "feasible"
            for cap in (3, 4):
                bigger = CorrelationTarget.build(
                    n=n,
                    rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                    rho1=list(rho1),
                    cap=cap,
                    simple=True,
                )
                assert realize_pp(bigger).status == "feasible"


class TestPpMoments:
    def test_single_pair_configuration(self):
        mix = ConfigMixture(n=2, atoms=((Configuration((1, 1)), F(1)),))
        rho_hat, rho1_hat = pp_moments(mix)
        assert rho_hat == {(0, 1): F(1)}
        assert rho1_hat == (F(1), F(1))

    def test_empty_configuration(self):
        mix = ConfigMixture(n=2, atoms=((Configuration((0, 0)), F(1)),))
        rho_hat, rho1_hat = pp_moments(mix)
        assert rho_hat == {} and rho1_hat == (F(0), F(0))

    def test_doubled_point(self):
        mix = ConfigMixture(n=2, atoms=((Configuration((2, 0)), F(1)),))
        rho_hat, rho1_hat = pp_moments(mix)
        assert rho_hat == {(0, 0): F(2)}
        assert rho1_hat == (F(2), F(0))


class TestHardcoreMixtures:
    def test_support_is_separated(self):
        # feasible hard-core target: every configuration in the returned
        # mixture keeps its support at pairwise distance >= eps
        rng = random.Random(223)
        from helpers import random_metric_space

        for _ in range(5):
            n = rng.randint(3, 5)
            space = random_metric_space(rng, n)
            eps = sorted(space.distance_values())[1]
            allowed = enumerate_configs(CorrelationTarget.build(cap=n, hardcore_eps=eps, space=space))
            pick = [cfg for cfg in allowed if cfg.total_mass > 0][:3]
            weights = [F(1, len(pick) + 1)] * len(pick)
            weights.append(1 - sum(weights))
            atoms = list(zip(pick + [Configuration((0,) * n)], weights))
            rho, rho1 = pp_moments(ConfigMixture(n=n, atoms=tuple(atoms)))
            target = CorrelationTarget.build(
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=list(rho1),
                cap=n,
                simple=True,
                hardcore_eps=eps,
                space=space,
            )
            result = realize_pp(target)
            assert result.status == "feasible"
            for cfg, _ in result.mixture.atoms:
                support = [i for i, m in enumerate(cfg.multiplicity) if m > 0]
                for a in support:
                    for b in support:
                        if a != b:
                            assert space.dist[a][b] >= eps


class TestDualFeasibility:
    def test_reduced_costs_nonnegative_over_all_columns(self):
        # independent check of the reported optimum: the dual prices must
        # underestimate every column's objective coefficient
        from realkit.pp import _config_column
        from realkit.lp import exact_simplex

        target = PAIR_TARGET
        configs = enumerate_configs(target)
        chi = objective_cardinality(2)
        cols = [_config_column(cfg, target.n, False) for cfg in configs]
        res = exact_simplex(cols, target.rhs(), obj=[chi(c) for c in configs])
        assert res.status == "optimal"
        for cfg, col in zip(configs, cols):
            reduced = chi(cfg) - sum(y * v for y, v in zip(res.duals, col))
            assert reduced >= 0
        dual_obj = sum(y * v for y, v in zip(res.duals, target.rhs()))
        assert dual_obj == res.objective


class TestColumnGeneration:
    def test_feasible_with_tiny_enumeration_limit(self, monkeypatch):
        monkeypatch.setattr(pp, "ENUM_LIMIT", 3)
        result = realize_pp(PAIR_TARGET)
        assert result.status == "feasible"
        assert result.method == "column-generation"
        assert result.residual == 0
        hat, _ = pp_moments(result.mixture)
        assert hat == {(0, 1): F(1)}

    def test_infeasible_with_tiny_enumeration_limit(self, monkeypatch):
        monkeypatch.setattr(pp, "ENUM_LIMIT", 3)
        target = PENTAGONAL
        result = realize_pp(target)
        assert result.status == "infeasible"
        assert result.method == "column-generation"
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason

    def test_cap_zero_seeds_no_point(self, monkeypatch):
        monkeypatch.setattr(pp, "ENUM_LIMIT", 0)
        # only the empty configuration is admissible, so no intensity is
        target = CorrelationTarget.build(n=2, rho_entries=[], rho1=["1/4", "0"], cap=0)
        result = realize_pp(target)
        assert result.status == "infeasible"
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason


def chain_target(n):
    """Simple, cap 4, intensity 1/100 and pair mass 1/1000 on (i, i + 1)
    for even i: feasible, and past every screen."""
    return CorrelationTarget.build(
        n=n, rho_entries=[(i, i + 1, F(1, 1000)) for i in range(0, n - 1, 2)],
        rho1=[F(1, 100)] * n, cap=4, simple=True,
    )


def objective_instance(cap):
    """The golden pp-objective.json (three points, not simple) at another cap."""
    return {**json.loads((INSTANCES / "pp-objective.json").read_text()), "cap": cap}


class TestEnumerationBound:
    """ENUM_LIMIT bounds what the enumerated master costs, ENUM_COLUMN per
    configuration plus one per LP row, not the configuration count alone."""

    def test_a_wide_target_is_seeded_for_column_generation(self, monkeypatch):
        # 213,053 configurations over 1,225 rows: enumerated, their master
        # ran out of a 2.5 GB address space
        class Seeded(Exception):
            pass

        seeds = []

        def capture(oracle, b, seed, cost=None):
            seeds.append(seed)
            raise Seeded

        monkeypatch.setattr(pp, "column_generation", capture)
        with pytest.raises(Seeded):
            realize_pp(chain_target(48))
        one_point = [tuple(int(i == k) for i in range(48)) for k in range(-1, 48)]
        assert seeds == [[Configuration(m) for m in one_point]]

    def test_a_target_at_the_bound_is_enumerated_in_bounded_memory(self, tmp_path):
        # three points up to 111 each: C(114, 3) = 240,464 configurations on
        # 10 rows, the most the bound enumerates (cap 112 has 246,905)
        limit = pp.ENUM_LIMIT // (pp.ENUM_COLUMN + 10)
        assert math.comb(114, 3) <= limit < math.comb(115, 3)
        inst = tmp_path / "pp.json"
        inst.write_text(json.dumps(objective_instance(111)))
        out = tmp_path / "report.json"
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from realkit.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, "realize-pp", str(inst), "--out", str(out)],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["payload"]["method"] == "enumeration"
        # kilobytes on Linux: about 460 MB measured
        assert int(proc.stdout.split()[-1]) < 768 << 10


class TestSearchCap:
    """Points that take every multiplicity up to the cap allow at most
    MAX_SEARCH configurations; one multiplicity per point needs no cap."""

    def test_bound(self):
        assert math.comb(3 + 226, 3) <= pp.MAX_SEARCH < math.comb(3 + 227, 3)
        CorrelationTarget.build(n=3, cap=226)
        with pytest.raises(CapExceeded, match="^/cap: multiplicities up to the cap on 3 points"):
            CorrelationTarget.build(n=3, cap=227)

    def test_one_multiplicity_per_point_is_not_capped(self):
        huge = 10**400
        assert CorrelationTarget.build(n=3, cap=huge, simple=True).cap == huge
        space = make_space([[0, 1], [1, 0]])
        assert CorrelationTarget.build(cap=huge, hardcore_eps="1/2", space=space).cap == huge

    @pytest.mark.parametrize("cap", [1000, 10**400])
    def test_every_reader_stops_at_once(self, tmp_path, cap):
        inst = tmp_path / "pp.json"
        inst.write_text(json.dumps(objective_instance(cap)))
        cert = str(INSTANCES / "cert-pp.json")
        for argv in (
            ["realize-pp", str(inst)],
            ["screen-pp", str(inst), "--trials", "5", "--seed", "1"],
            ["verify-cert", str(inst), cert],
        ):
            code = main([*argv, "--out", str(tmp_path / "report.json")])
            assert code == 3, argv[0]
            error = json.loads((tmp_path / "report.json").read_text())["payload"]["error"]
            assert error.startswith("/cap: multiplicities up to the cap on 3 points"), argv[0]


@st.composite
def validation_targets(draw):
    """n <= 5 points whose distances lie in [1, 3/2] on a grid of quarters
    (so every triangle holds), a hard-core distance on the same grid, often
    equal to a distance, or none, the strict and simple flags, cap 2 or 3,
    and random atoms."""
    n = draw(st.integers(1, 5))
    quarter = st.integers(4, 6).map(lambda k: F(k, 4))
    dist = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        dist[i][j] = dist[j][i] = draw(quarter)
    eps = draw(st.one_of(st.none(), st.integers(3, 7).map(lambda k: F(k, 4))))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    atoms = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weight = st.sampled_from([F(1, 4), F(1, 2), F(1)])
    rho1 = draw(st.one_of(st.none(), st.lists(weight, min_size=n, max_size=n)))
    return CorrelationTarget.build(
        rho_entries=[(i, j, draw(weight)) for i, j in atoms], rho1=rho1,
        cap=draw(st.integers(2, 3)), simple=draw(st.booleans()), hardcore_eps=eps,
        space=make_space(dist), hardcore_strict=draw(st.booleans()),
    )


def brute_force_configs(target):
    """Every admissible multiplicity vector, from the flags and the
    distances directly."""
    eps, dist = target.hardcore_eps, target.space.dist
    per_point = 1 if target.simple or eps is not None else target.cap

    def close(i, j):
        return dist[i][j] <= eps if target.hardcore_strict else dist[i][j] < eps

    def admissible(m):
        pairs = itertools.combinations(range(target.n), 2)
        return eps is None or not any(m[i] and m[j] and close(i, j) for i, j in pairs)

    return [
        m for m in itertools.product(range(per_point + 1), repeat=target.n)
        if sum(m) <= target.cap and admissible(m)
    ]


class TestValidationAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(validation_targets())
    def test_fires_exactly_on_an_unoccupied_pair(self, target):
        configs = brute_force_configs(target)
        unoccupied = [
            (i, j) for i, j, _ in target.atoms()
            if all(m[i] * (m[j] - (i == j)) == 0 for m in configs)
        ]
        fired = lp.screen(pp.VALIDATION, pp._ConfigOracle(target))
        event("fired" if fired else "passed")
        assert (fired is not None) == bool(unoccupied)
        if target.hardcore_eps is not None:
            assert [(i, j) for i, j, _ in check_hardcore_support(target)[1]] == unoccupied
        if fired is None:
            return
        cert, n = fired.certificate, target.n
        # G = -count_ij on one unoccupied atom
        support = [(i, j) for i in range(n) for j in range(i, n) if cert.a[i][j]]
        assert len(support) == 1 and support[0] in unoccupied
        ok, why = verify_pp_certificate(cert, target)
        assert ok, why

        def g(m):
            total = cert.c + sum(b * v for b, v in zip(cert.blin or (), m))
            return total + sum(
                cert.a[i][j] * m[i] * (m[j] - (i == j)) for i in range(n) for j in range(i, n)
            )

        assert min(g(m) for m in configs) == 0 == g(cert.minimizer)
        assert tuple(cert.minimizer) in configs
        assert cert.pairing(target) == -cert.gap < 0


class TestRandomTargets:
    def test_every_verdict_is_verified(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(2, 4)
            cap = rng.randint(0, 4)
            simple = rng.random() < 0.5
            entries = []
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.6:
                        entries.append((i, j, F(rng.randint(0, 6), 4)))
            rho1 = None
            if rng.random() < 0.5:
                rho1 = [F(rng.randint(0, 6), 4) for _ in range(n)]
            target = CorrelationTarget.build(
                n=n, rho_entries=entries, rho1=rho1, cap=cap, simple=simple
            )
            result = realize_pp(target)
            assert result.status in ("feasible", "infeasible")
            if result.status == "feasible":
                hat, r1_hat = pp_moments(result.mixture)
                for (i, j), w in target.rho.items():
                    assert hat.get((i, j), F(0)) == w
                for key, w in hat.items():
                    assert target.rho_value(*key) == w
                if target.rho1 is not None:
                    assert tuple(r1_hat) == target.rho1
            else:
                ok, why = verify_pp_certificate(result.certificate, target)
                assert ok, why


def assert_certificate_holds(target, cert):
    """G >= 0 on every admissible configuration, enumerated here, with its
    minimum 0 at the stored minimiser, and a negative pairing."""
    n, per_point = target.n, 1 if target.simple else target.cap

    def g(m):
        total = cert.c + sum(b * v for b, v in zip(cert.blin or (), m))
        return total + sum(
            cert.a[i][j] * m[i] * (m[j] - (i == j)) for i in range(n) for j in range(i, n)
        )

    values = [
        g(m) for m in itertools.product(range(per_point + 1), repeat=n) if sum(m) <= target.cap
    ]
    assert min(values) == 0 == g(cert.minimizer)
    assert cert.pairing(target) == -cert.gap < 0


@st.composite
def small_targets(draw, max_n=4, max_cap=4):
    """n <= max_n points at |i - j| / 2 and cap <= max_cap, simple or not,
    with or without an intensity; half of them are the moments of a random
    mixture, so feasible."""
    n = draw(st.integers(1, max_n))
    cap = draw(st.integers(0, max_cap))
    simple = draw(st.booleans())
    with_rho1 = draw(st.booleans())
    per_point = 1 if simple else cap
    admissible = [m for m in itertools.product(range(per_point + 1), repeat=n) if sum(m) <= cap]
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(admissible), min_size=1, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(picks), max_size=len(picks)))
        mix = ConfigMixture(
            n=n,
            atoms=tuple((Configuration(m), F(w, sum(weights))) for m, w in zip(picks, weights)),
        )
        rho, rho1 = pp_moments(mix)
        entries = [(i, j, w) for (i, j), w in rho.items()]
    else:
        weight = st.integers(0, 6).map(lambda v: F(v, 4))
        entries = [(i, j, draw(weight)) for i in range(n) for j in range(i, n)]
        rho1 = [draw(weight) for _ in range(n)]
    space = make_space([[F(abs(i - j), 2) for j in range(n)] for i in range(n)])
    return CorrelationTarget.build(
        rho_entries=entries, rho1=rho1 if with_rho1 else None, cap=cap, simple=simple,
        space=space,
    )


OBJECTIVES = [None, objective_cardinality(2), objective_cardinality(4)]


class TestAgainstEnumerationOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_targets(), st.sampled_from(OBJECTIVES))
    def test_verdict_and_optimum_match_the_oracle(self, target, objective):
        result = realize_pp(target, objective=objective)
        verdict, optimum = oracle(target, objective)
        assert result.status == verdict
        if verdict == "infeasible":
            ok, why = verify_pp_certificate(result.certificate, target)
            assert ok, why
            assert_certificate_holds(target, result.certificate)
            return
        result.mixture.validate()
        hat, r1_hat = pp_moments(result.mixture)
        assert hat == target.rho
        if target.rho1 is not None:
            assert r1_hat == target.rho1
        if objective is not None:
            assert result.objective_value == result.dual_value == optimum
            assert sum(w * objective(c) for c, w in result.mixture.atoms) == optimum


class TestColumnGenerationAgainstEnumerationOracle:
    """The driver seeded with the empty and the one-point configurations
    (enumeration refused by a zero limit) against the same oracle, under
    either batch size (the configuration oracle prices one column a round
    whatever the batch)."""

    @pytest.mark.parametrize("batch", [1, 64])
    @settings(max_examples=80, deadline=None)
    @given(small_targets())
    def test_verdict_matches_the_oracle(self, batch, target):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lp, "PRICING_BATCH", batch)
            patch.setattr(pp, "ENUM_LIMIT", 0)
            result = realize_pp(target)
        verdict, _ = oracle(target)
        assert result.status == verdict
        if verdict == "infeasible":
            ok, why = verify_pp_certificate(result.certificate, target)
            assert ok, why
            assert_certificate_holds(target, result.certificate)
            return
        assert result.method == "column-generation"
        result.mixture.validate()
        hat, r1_hat = pp_moments(result.mixture)
        assert hat == target.rho
        if target.rho1 is not None:
            assert r1_hat == target.rho1


def relabel_target(target, perm):
    """New point k is old point perm[k]."""
    back = {old: new for new, old in enumerate(perm)}
    entries = [(back[i], back[j], w) for (i, j), w in target.rho.items()]
    return CorrelationTarget.build(
        rho_entries=[(min(i, j), max(i, j), w) for i, j, w in entries],
        rho1=[target.rho1[k] for k in perm] if target.rho1 is not None else None,
        cap=target.cap,
        simple=target.simple,
        space=make_space([[target.space.dist[a][b] for b in perm] for a in perm]),
    )


class TestRelabelling:
    """Permuting the points leaves the verdict unchanged, and the permuted
    mixture or certificate answers the permuted target."""

    @settings(max_examples=80, deadline=None)
    @given(small_targets(), st.randoms(use_true_random=False))
    def test_verdict_is_invariant(self, target, rng):
        perm = list(range(target.n))
        rng.shuffle(perm)
        moved = relabel_target(target, perm)
        result = realize_pp(target)
        assert realize_pp(moved).status == result.status
        if result.status == "feasible":
            mix = ConfigMixture(
                n=target.n,
                atoms=tuple(
                    (Configuration(tuple(c.multiplicity[k] for k in perm)), w)
                    for c, w in result.mixture.atoms
                ),
            )
            hat, r1_hat = pp_moments(mix)
            assert hat == moved.rho
            if moved.rho1 is not None:
                assert r1_hat == moved.rho1
        else:
            cert = result.certificate
            cert = lp.Certificate.from_functional(
                kind="pp",
                n=cert.n,
                c=cert.c,
                a=tuple(tuple(cert.a[i][j] for j in perm) for i in perm),
                blin=tuple(cert.blin[k] for k in perm) if cert.blin is not None else None,
                gap=cert.gap,
                minimizer=tuple(cert.minimizer[k] for k in perm),
            )
            ok, why = verify_pp_certificate(cert, moved)
            assert ok, why


class TestNoEnumeration:
    def test_certificate_without_enumeration(self, monkeypatch):
        # certificates and their check come from the exact configuration
        # search, so a carrier that cannot be enumerated still gets one
        def refuse(*args, **kwargs):
            raise CapExceeded("configuration count exceeds the limit")

        monkeypatch.setattr(pp, "enumerate_configs", refuse)
        target = PENTAGONAL
        result = realize_pp(target)
        assert result.status == "infeasible"
        assert result.method == "column-generation"
        ok, reason = verify_pp_certificate(result.certificate, target)
        assert ok, reason


class TestCertificateShape:
    TARGET = CorrelationTarget.build(n=2, rho_entries=[(0, 1, "1")], rho1=["1", "1"], cap=2)

    def certificate(self, a, blin=None):
        return lp.Certificate.from_functional(
            kind="pp", n=2, c=F(0), a=a, blin=blin, gap=F(1), minimizer=(0, 0)
        )

    @pytest.mark.parametrize(
        "a, blin, reason",
        [
            (((F(-1),),), None, "coefficient matrix must be n x n"),
            (((F(0), F(-1)), (F(0), F(0))), None, "coefficient matrix not symmetric at (0,1)"),
            (((F(0), F(-1)), (F(-1), F(0))), (F(1),), "linear part has wrong length"),
        ],
    )
    def test_malformed_certificates_rejected(self, a, blin, reason):
        assert verify_pp_certificate(self.certificate(a, blin), self.TARGET) == (False, reason)


class TestIntegerPrices:
    """Integer prices get the exact search: G = 1/2 m_0 + (1/2 - 2^-60) m_1
    - m_0 m_1 is -2^-60 at (1, 1), which float64 rounds to 0."""

    TARGET = CorrelationTarget.build(n=2, rho_entries=[(0, 1, "2")], rho1=["1", "1"], cap=2)
    BLIN = (F(1, 2), F(1, 2) - F(1, 2**60))

    @pytest.mark.parametrize("c", [0, F(0)], ids=["int", "Fraction"])
    def test_certificate_dipping_below_float_precision_rejected(self, c):
        cert = lp.Certificate.from_functional(
            kind="pp", n=2, c=c, a=((0, -1), (-1, 0)), blin=self.BLIN,
            gap=1 + F(1, 2**60), minimizer=(0, 0),
        )
        reason = "functional attains -1/1152921504606846976 < 0 at (1, 1)"
        assert verify_pp_certificate(cert, self.TARGET) == (False, reason)

    def test_oracle_maximum_is_exact(self):
        # y = -2^60 G on the rows (pairs 00, 01, 11; intensities; normalisation)
        y = [0, 2**60, 0, -(2**59), -(2**59 - 1), 0]
        config, top = pp._ConfigOracle(self.TARGET).best(y)
        assert (config.multiplicity, top) == ((1, 1), 1)


@st.composite
def search_cases(draw):
    """(target, its admissible configurations, price count) for `_search`: n <= 5
    and cap <= 4, simple, hard-core (points on a line, plain or strict) or
    neither, prices with or without the intensity rows. Admissibility is
    decided here from its definition, over `itertools.product`."""
    n = draw(st.integers(1, 5))
    cap = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["plain", "simple", "hard-core", "strict"]))
    at = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n, unique=True))
    space = make_space([[F(abs(a - b), 2) for b in at] for a in at])
    hard_core = kind in ("hard-core", "strict")
    eps = draw(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)])) if hard_core else None
    target = CorrelationTarget.build(
        cap=cap, simple=kind == "simple", hardcore_eps=eps, space=space,
        hardcore_strict=kind == "strict",
    )

    def apart(i, j):
        d = space.dist[i][j]
        return eps is None or (d > eps if kind == "strict" else d >= eps)

    admissible = [
        m for m in itertools.product(range(cap + 1), repeat=n)
        if sum(m) <= cap
        and (kind == "plain" or max(m) <= 1)
        and all(apart(i, j) for i, j in itertools.combinations(range(n), 2) if m[i] and m[j])
    ]
    rows = n * (n + 1) // 2 + (n if draw(st.booleans()) else 0) + 1
    return target, admissible, rows


def priced(y, m):
    """y.A_m from the definition: pair counts, then intensities if y has
    those rows, then the normalisation."""
    n = len(m)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    total = y[-1] + sum(y[k] * m[i] * (m[j] - (i == j)) for k, (i, j) in enumerate(pairs))
    if len(y) > len(pairs) + 1:
        total += sum(y[len(pairs) + i] * m[i] for i in range(n))
    return total


class TestSearchAgainstProduct:
    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.data())
    def test_integer_prices_find_the_smallest_maximiser(self, case, data):
        target, admissible, rows = case
        y = data.draw(st.lists(st.integers(-6, 6), min_size=rows, max_size=rows))
        config, top = pp._search(y, target)
        values = [priced(y, m) for m in admissible]
        assert top == max(values)
        # product order is lexicographic, so index() finds the smallest maximiser
        assert config.multiplicity == admissible[values.index(top)]

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), st.data())
    def test_float_prices_find_the_maximum(self, case, data):
        target, admissible, rows = case
        price = st.floats(-1, 1, allow_nan=False, allow_infinity=False)
        y = data.draw(st.lists(price, min_size=rows, max_size=rows))
        config, top = pp._search(y, target)
        best = max(priced(y, m) for m in admissible)
        assert config.multiplicity in admissible
        assert abs(top - best) <= 1e-9
        assert abs(priced(y, config.multiplicity) - best) <= 1e-9


class TestSearchOnHardCoreTargets:
    def test_validation_certificate_of_a_wide_target_verifies_quickly(self, tmp_path):
        # the pair inside eps is the last two points, so a bound that priced
        # it would prune nothing before them: 3 * 2^38 admissible configurations
        n = 40
        dist = [[0 if i == j else 1 if {i, j} == {n - 2, n - 1} else 2 for j in range(n)]
                for i in range(n)]
        instance = tmp_path / "target.json"
        instance.write_text(json.dumps({
            "space": {"dist": [[str(d) for d in row] for row in dist],
                      "labels": [str(i) for i in range(n)]},
            "cap": n,
            "hardcore_eps": "2", "rho": [[n - 2, n - 1, "1"]],
        }))
        cert = tmp_path / "cert.json"
        for argv, code in [(["realize-pp", str(instance)], 1),
                           (["verify-cert", str(instance), str(cert)], 0)]:
            out = tmp_path / "report.json"
            proc = subprocess.run(
                [sys.executable, "-m", "realkit", *argv, "--out", str(out)],
                capture_output=True, text=True, env=_child_env(), timeout=60,
            )
            assert proc.returncode == code, proc.stderr
            payload = json.loads(out.read_text())["payload"]
            if "certificate" in payload:
                cert.write_text(json.dumps(payload["certificate"]))


class TestChiHcObjective:
    # infinite below 1/2, so two particles closer than that cost +inf
    PSI = PsiFunction.from_json({"steps": [["0", "inf"], ["1/2", "3"], ["1", "1"], ["2", "0"]]})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True), st.data())
    def test_matches_a_sum_over_ordered_particle_pairs(self, at, data):
        n = len(at)
        space = make_space([[F(abs(a - b), 2) for b in at] for a in at])
        m = data.draw(st.tuples(*[st.integers(0, 3)] * n))
        particles = [i for i in range(n) for _ in range(m[i])]
        expected = sum(
            (self.PSI.value(space.dist[particles[a]][particles[b]])
             for a, b in itertools.permutations(range(len(particles)), 2)),
            F(0),
        )
        h = [[self.PSI.value(space.dist[i][j]) for j in range(n)] for i in range(n)]
        assert g_h(m, h) == expected


@st.composite
def pinned_cases(draw):
    """(target, None) for card2 on a target with an intensity, or (target,
    psi steps) for chi-hc: `small_targets` with n <= 5 and cap <= 3, and psi
    of up to four steps whose first k values are infinite, for a k that
    may be 0 or reach past the smallest distance."""
    target = draw(small_targets(max_n=5, max_cap=3))
    if target.rho1 is not None and draw(st.booleans()):
        return target, None
    later = draw(st.sets(st.sampled_from([F(1, 2), F(1), F(3, 2), F(2)]), max_size=3))
    thresholds = [F(0), *sorted(later)]
    values = sorted(draw(st.lists(st.integers(0, 5), min_size=len(thresholds),
                                  max_size=len(thresholds))), reverse=True)
    k = draw(st.integers(0, len(thresholds)))
    return target, tuple((t, INF if idx < k else F(v)) for idx, (t, v) in
                         enumerate(zip(thresholds, values)))


def step_value(steps, t):
    """The value of a step function at t >= 0, read off its steps here."""
    return [v for s, v in steps if s <= t][-1]


class TestPinnedObjectives:
    """`realize_pinned` with the values the CLI passes it (the chi-hc
    integral, or pair mass plus total intensity for card2) against a cost
    LP over every configuration whose cost `g_h` or N^2 is finite, with the
    configurations enumerated and with enumeration refused."""

    @pytest.mark.parametrize("enumerated", [True, False], ids=["enumerated", "refused"])
    @settings(max_examples=100, deadline=None)
    @given(pinned_cases())
    def test_verdict_value_and_dual_match_the_cost_lp(self, enumerated, case):
        target, steps = case
        if steps is None:
            value = target.pair_mass + sum(target.rho1)

            def cost(m):
                return F(sum(m) ** 2)
        else:
            value = chi_hc_integral(AtomicMeasure2D.from_target(target), PsiFunction(steps))
            n, dist = target.n, target.space.dist
            h = [[step_value(steps, dist[i][j]) for j in range(n)] for i in range(n)]

            def cost(m):
                return g_h(m, h)

        def refuse(*args, **kwargs):
            raise CapExceeded("configuration count exceeds the limit")

        with pytest.MonkeyPatch.context() as patch:
            if not enumerated:
                patch.setattr(pp, "enumerate_configs", refuse)
            result = realize_pinned(target, value)
        verdict, optimum = oracle(target, lambda c: cost(c.multiplicity))
        assert result.status == verdict
        if verdict == "infeasible":
            ok, why = verify_pp_certificate(result.certificate, target)
            assert ok, why
            assert result.objective_value is None and result.dual_value is None
            return
        hat, r1_hat = pp_moments(result.mixture)
        assert hat == target.rho
        if target.rho1 is not None:
            assert r1_hat == target.rho1
        assert result.objective_value == optimum
        assert result.dual_value == (None if optimum == INF else optimum)
        assert sum((w * cost(c.multiplicity) for c, w in result.mixture.atoms), F(0)) == optimum
        assert "not certified" not in (result.note or "")


class TestStoredMinimizer:
    # G = 1 - (m_0 + m_1 + m_2) + (pair count), min 0 at every one-point
    # configuration
    TARGET = CorrelationTarget.build(
        n=3, rho_entries=[], rho1=["0.5", "0.5", "0.5"], cap=3, simple=True
    )

    def test_the_certificate_verifies_with_its_own_minimizer(self):
        cert = realize_pp(self.TARGET).certificate
        assert verify_pp_certificate(cert, self.TARGET) == (True, "certificate valid")

    @pytest.mark.parametrize(
        "minimizer, reason",
        [
            ((1, 1, 1), "stored minimizer does not attain the global minimum"),
            ((0, 0, 0), "stored minimizer does not attain the global minimum"),
            ((2, 0, 0), "stored minimizer is not an admissible configuration"),
            ((1, 1), "stored minimizer is not an admissible configuration"),
        ],
    )
    def test_a_moved_minimizer_is_rejected(self, minimizer, reason):
        cert = realize_pp(self.TARGET).certificate
        moved = lp.Certificate.from_functional(
            kind="pp", n=cert.n, c=cert.c, a=cert.a, blin=cert.blin, gap=cert.gap,
            minimizer=minimizer,
        )
        assert verify_pp_certificate(moved, self.TARGET) == (False, reason)


class TestFloatFallbacks:
    """A float answer that rational arithmetic cannot confirm is solved
    again by the exact simplex, and the verdict stays exact."""

    # moments of {1,1,0} w.p. 1/2, {0,1,1} and {1,0,0} w.p. 1/4 each
    FEASIBLE = CorrelationTarget.build(
        n=3, rho_entries=[(0, 1, "1/2"), (1, 2, "1/4")], rho1=["3/4", "3/4", "1/4"], cap=3
    )
    INFEASIBLE = PENTAGONAL

    @pytest.fixture
    def simplex_calls(self, monkeypatch):
        calls = []
        exact = lp.exact_simplex

        def counted(*args, **kwargs):
            calls.append(kwargs.get("obj", args[2] if len(args) > 2 else None))
            return exact(*args, **kwargs)

        monkeypatch.setattr(lp, "exact_simplex", counted)
        return calls

    def test_confirmed_answers_need_no_fallback(self, simplex_calls):
        assert realize_pp(self.FEASIBLE, objective=objective_cardinality(2)).status == "feasible"
        assert realize_pp(self.INFEASIBLE).status == "infeasible"
        assert simplex_calls == []

    def test_an_objective_request_solves_one_lp(self, monkeypatch, simplex_calls):
        calls = []

        def counted(name):
            solve = getattr(lp, name)

            def wrapper(*args):
                calls.append(name)
                return solve(*args)

            return wrapper

        for name in ("float_phase1", "float_lp_min"):
            monkeypatch.setattr(lp, name, counted(name))
        objective = objective_cardinality(2)
        assert realize_pp(self.FEASIBLE, objective=objective).status == "feasible"
        assert calls == ["float_lp_min"]
        calls.clear()
        # a float "infeasible" objective solve is confirmed by the Farkas path
        result = realize_pp(self.INFEASIBLE, objective=objective)
        assert result.status == "infeasible"
        assert verify_pp_certificate(result.certificate, self.INFEASIBLE)[0]
        assert calls == ["float_lp_min", "float_phase1"]
        assert simplex_calls == []

    def test_float_feasible_on_an_infeasible_target(self, monkeypatch, simplex_calls):
        def claims_feasible(A, b):
            return 0.0, np.ones(A.shape[1]), np.zeros(A.shape[0])

        monkeypatch.setattr(lp, "float_phase1", claims_feasible)
        result = realize_pp(self.INFEASIBLE)
        assert result.status == "infeasible"
        assert verify_pp_certificate(result.certificate, self.INFEASIBLE)[0]
        assert len(simplex_calls) == 1

    def test_float_infeasible_on_a_feasible_target(self, monkeypatch, simplex_calls):
        def claims_infeasible(A, b):
            y = np.zeros(A.shape[0])
            y[-1] = 1.0
            return 1.0, np.zeros(A.shape[1]), y

        monkeypatch.setattr(lp, "float_phase1", claims_infeasible)
        result = realize_pp(self.FEASIBLE)
        assert result.status == "feasible"
        hat, r1_hat = pp_moments(result.mixture)
        assert hat == self.FEASIBLE.rho and r1_hat == self.FEASIBLE.rho1
        assert len(simplex_calls) == 1

    def test_float_optimum_that_is_not_optimal(self, monkeypatch, simplex_calls):
        float_lp_min = lp.float_lp_min

        def maximises(A, b, c):
            status, q, y, value = float_lp_min(A, b, -c)
            return status, q, -y, -value

        monkeypatch.setattr(lp, "float_lp_min", maximises)
        # E[N^2] is pinned by the moments, E[N^4] is not
        objective = objective_cardinality(4)
        result = realize_pp(self.FEASIBLE, objective=objective)
        _, optimum = oracle(self.FEASIBLE, objective)
        assert result.objective_value == result.dual_value == optimum
        assert sum(w * objective(c) for c, w in result.mixture.atoms) == optimum
        assert len(simplex_calls) == 1 and simplex_calls[0] is not None

    def test_float_optimum_that_does_not_rebuild(self, monkeypatch, simplex_calls):
        monkeypatch.setattr(lp, "_rebuild_on_support", lambda *args: None)
        objective = objective_cardinality(4)
        result = realize_pp(self.FEASIBLE, objective=objective)
        _, optimum = oracle(self.FEASIBLE, objective)
        assert result.objective_value == result.dual_value == optimum
        assert len(simplex_calls) == 1 and simplex_calls[0] is not None

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_float_failure_of_the_cost_lp(self, monkeypatch, simplex_calls, status):
        monkeypatch.setattr(lp, "float_lp_min", lambda A, b, c: (status, None, None, None))
        objective = objective_cardinality(4)
        result = realize_pp(self.FEASIBLE, objective=objective)
        _, optimum = oracle(self.FEASIBLE, objective)
        assert result.objective_value == result.dual_value == optimum
        assert len(simplex_calls) == 1 and simplex_calls[0] is not None


class TestCrossModule:
    def test_subset_mixture_round_trip(self):
        rng = random.Random(101)
        for _ in range(6):
            n = rng.randint(2, 5)
            atoms = random_simple_config_mixture(rng, n, cap=n)
            mix = ConfigMixture(n=n, atoms=tuple(atoms))
            rho, rho1 = pp_moments(mix)
            pp_target = CorrelationTarget.build(
                n=n,
                rho_entries=[(i, j, w) for (i, j), w in rho.items()],
                rho1=list(rho1),
                cap=n,
                simple=True,
            )
            assert realize_pp(pp_target).status == "feasible"
            # same data as a covering-probability target
            p = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                p[i][i] = rho1[i]
                for j in range(i + 1, n):
                    p[i][j] = p[j][i] = rho.get((i, j), F(0))
            set_target = TwoPointTarget.from_matrix(p, validate_range=False)
            assert realize_subsets(set_target).status == "feasible"

    def test_disjoint_covering_data_infeasible_as_pp(self):
        target = CorrelationTarget.build(
            n=3,
            rho_entries=[],
            rho1=["0.5", "0.5", "0.5"],
            cap=3,
            simple=True,
        )
        assert realize_pp(target).status == "infeasible"


class TestScreen:
    def test_zero_h_is_never_a_violation(self):
        report = positivity_screen(PAIR_TARGET, trials=0, seed=1)
        assert report.violations == []

    def test_realized_target_passes(self):
        report = positivity_screen(PAIR_TARGET, trials=300, seed=7)
        assert report.violations == []

    def test_diagonal_atom_target_caught(self):
        target = CorrelationTarget.build(
            n=2, rho_entries=[(0, 0, "1")], cap=2, simple=True
        )
        report = positivity_screen(target, trials=200, seed=7)
        assert report.violations
        trial, h, pairing, infimum = report.violations[0]
        assert pairing < infimum
        assert h[0][0] < 0

    def test_no_configuration_is_enumerated(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("screen-pp enumerated the configurations")

        monkeypatch.setattr(pp, "enumerate_configs", refuse)
        target = CorrelationTarget.build(n=2, rho_entries=[(0, 0, "1")], cap=2, simple=True)
        assert positivity_screen(target, trials=200, seed=7).violations
        assert positivity_screen(PAIR_TARGET, trials=50, seed=7).violations == []


@st.composite
def screen_targets(draw):
    """n <= 4 and cap <= 3, simple or not, with or without an intensity and
    a hard-core distance (points at |i - j| / 2, eps 1, plain or strict)."""
    n = draw(st.integers(1, 4))
    weight = st.integers(0, 6).map(lambda v: F(v, 4))
    entries = [(i, j, draw(weight)) for i in range(n) for j in range(i, n)]
    rho1 = draw(st.none() | st.lists(weight, min_size=n, max_size=n))
    hardcore = draw(st.booleans())
    return CorrelationTarget.build(
        rho_entries=entries, rho1=rho1, cap=draw(st.integers(0, 3)), simple=draw(st.booleans()),
        space=make_space([[F(abs(i - j), 2) for j in range(n)] for i in range(n)]),
        hardcore_eps="1" if hardcore else None,
        hardcore_strict=hardcore and draw(st.booleans()),
    )


def enumerated_screen(target, trials, seed):
    """positivity_screen's violations recomputed in Fractions: the same
    draws, the pairing over ordered pairs, and the infimum of g_h over
    configurations enumerated here."""
    n, eps = target.n, target.hardcore_eps
    per_point = 1 if target.simple or eps is not None else target.cap

    def separated(m):
        occupied = [i for i in range(n) if m[i]]
        return eps is None or all(
            (target.space.dist[i][j] > eps) if target.hardcore_strict
            else (target.space.dist[i][j] >= eps)
            for i, j in itertools.combinations(occupied, 2)
        )

    admissible = [
        Configuration(m)
        for m in itertools.product(range(per_point + 1), repeat=n)
        if sum(m) <= target.cap and separated(m)
    ]
    rng = random.Random(seed)
    expected = []
    for trial in range(trials):
        h = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = F(rng.uniform(-1.0, 1.0))
        pairing = sum(h[i][j] * target.rho_value(i, j) for i in range(n) for j in range(n))
        infimum = min(g_h(cfg.multiplicity, h) for cfg in admissible)
        if pairing < infimum:
            expected.append((trial, [[float(v) for v in row] for row in h], pairing, infimum))
    return expected


class TestScreenAgainstEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(screen_targets(), st.integers(0, 20), st.integers(0, 2**16))
    def test_violations_match_an_enumerated_screen(self, target, trials, seed):
        expected = enumerated_screen(target, trials, seed)
        report = positivity_screen(target, trials, seed)
        assert report.trials == trials
        assert report.violations == expected

    # rho with coprime denominators, so its common denominator is their product
    MIXED = [(0, 1, "2/3"), (1, 2, "4/7"), (0, 2, "10/11"), (1, 1, "2/13")]

    @pytest.mark.parametrize("cap, fires", [(2, True), (3, False)])
    def test_entry_by_entry(self, cap, fires):
        # rho is realisable with cap 3 but not with cap 2
        target = CorrelationTarget.build(n=3, rho_entries=self.MIXED, cap=cap)
        assert realize_pp(target).status == ("infeasible" if fires else "feasible")
        report = positivity_screen(target, 60, 11)
        expected = enumerated_screen(target, 60, 11)
        assert bool(expected) == fires
        assert len(report.violations) == len(expected)
        for got, want in zip(report.violations, expected):
            assert got == want


class TestIngestion:
    def test_symmetry_conflict_rejected(self):
        with pytest.raises(InvalidInstance):
            CorrelationTarget.build(
                n=2, rho_entries=[(0, 1, "1"), (1, 0, "2")], cap=2
            )

    def test_mirrored_entries_accepted(self):
        t = CorrelationTarget.build(
            n=2, rho_entries=[(0, 1, "1"), (1, 0, "1")], cap=2
        )
        assert t.rho_value(0, 1) == 1 and t.rho_value(1, 0) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInstance):
            CorrelationTarget.build(n=2, rho_entries=[(0, 1, "-1")], cap=2)


class TestMixtureValidation:
    A, B = Configuration((1, 0)), Configuration((0, 1))

    @pytest.mark.parametrize(
        "mixture, message",
        [
            (ConfigMixture(2, ((A, F(1, 2)), (A, F(1, 2)))), "mixture has duplicate configurations"),
            (SubsetMixture(2, ((frozenset({0}), F(1, 2)),) * 2), "mixture has duplicate subsets"),
            (ConfigMixture(2, ((A, F(3, 2)), (B, F(-1, 2)))), "mixture weights must be positive"),
            (SubsetMixture(2, ((frozenset(), F(1, 2)),)), "mixture weights sum to 1/2, not 1"),
        ],
    )
    def test_messages(self, mixture, message):
        with pytest.raises(InvalidInstance, match=f"^{message}$"):
            mixture.validate()
