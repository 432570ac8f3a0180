"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s` to see them live). Stated
runtime budgets and tolerances are asserted, not aspirational."""

import random
import time
from dataclasses import replace
from fractions import Fraction as F

from realkit.contact import StepCdf, check_two_point, monte_carlo_contact
from realkit.metric import (
    close_pair_count,
    gamma_min_pairs,
    close_pair_envelope,
    make_space,
    spread_configuration,
)
from realkit.pp import ConfigMixture, CorrelationTarget, pp_moments, realize_pp
from realkit.regularity import PsiFunction, hardcore_split_check
from realkit.setrealize import (
    TwoPointTarget,
    moments_of_mixture,
    realize_subsets,
    symmetrize,
    verify_certificate,
)
from conftest import SESSION_T0
from helpers import (
    random_metric_space, random_simple_config_mixture, random_two_point_target, rebuilt,
)


def report_line(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_product_instance_feasible_fast():
    n = 5
    target = TwoPointTarget.from_matrix(
        [[F(1, 2) if i == j else F(1, 4) for j in range(n)] for i in range(n)]
    )
    t0 = time.time()
    result = realize_subsets(target)
    elapsed = time.time() - t0
    ok = (
        result.status == "feasible"
        and moments_of_mixture(result.mixture).p == target.p
        and elapsed < 1.0
    )
    report_line(1, ok, f"independent-values instance realised exactly in {elapsed:.3f}s")


def test_criterion_02_disjointness_certificate_fast():
    target = TwoPointTarget.from_matrix(
        [["0.5", "0", "0"], ["0", "0.5", "0"], ["0", "0", "0.5"]]
    )
    t0 = time.time()
    result = realize_subsets(target)
    elapsed = time.time() - t0
    cert = result.certificate
    sound = False
    if result.status == "infeasible" and cert is not None:
        from realkit.qubo import evaluate_g

        minimum = min(
            evaluate_g(cert.c, cert.a, {i for i in range(3) if (mask >> i) & 1})
            for mask in range(8)
        )
        sound = minimum >= 0 and cert.pairing(target) < 0
        sound = sound and verify_certificate(cert, target)[0]
    ok = sound and elapsed < 1.0
    report_line(2, ok, f"disjointness certificate re-verified over all 8 subsets in {elapsed:.3f}s")


def test_criterion_03_oracle_equivalence_50_targets():
    rng = random.Random(2024)
    t0 = time.time()
    agreements = 0
    for _ in range(50):
        n = rng.randint(2, 12)
        target = random_two_point_target(rng, n)
        enum = realize_subsets(target)
        colgen = realize_subsets(target, max_exact=0)
        if enum.status == colgen.status and enum.status in ("feasible", "infeasible"):
            agreements += 1
    elapsed = time.time() - t0
    ok = agreements == 50 and elapsed < 60.0
    report_line(3, ok, f"column generation agreed with enumeration {agreements}/50 in {elapsed:.1f}s")


def test_criterion_04_close_pair_envelope_sweep():
    rng = random.Random(77)
    t0 = time.time()
    violations = 0
    checked = 0
    for k in range(100):
        n_points = 1 + k % 6
        space = random_metric_space(rng, n_points) if n_points > 1 else make_space([[0]])
        ts = [F(0)] + space.distance_values()
        for n in range(0, 7):
            for t in ts:
                lower, upper = close_pair_envelope(space, n, t)
                gamma = gamma_min_pairs(space, n, t)
                spread = spread_configuration(space, n, t)
                checked += 1
                if gamma < max(0, lower):
                    violations += 1
                if close_pair_count(space, spread, t) > upper:
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    report_line(
        4,
        ok,
        f"close-pair envelope held on {checked} space/mass/threshold combinations in {elapsed:.1f}s",
    )


def test_criterion_05_hardcore_support_rejection():
    rng = random.Random(501)
    false_accepts = 0
    for _ in range(20):
        n = rng.randint(2, 5)
        space = random_metric_space(rng, n)
        dists = space.distance_values()
        i, j = rng.sample(range(n), 2)
        eps = space.dist[i][j] + F(1, 7)  # atom strictly inside the hard-core ball
        target = CorrelationTarget.build(
            rho_entries=[(i, j, F(rng.randint(1, 5)))],
            cap=n,
            simple=True,
            hardcore_eps=eps,
            space=space,
        )
        result = realize_pp(target)
        if result.status != "infeasible" or result.method != "validation":
            false_accepts += 1
    ok = false_accepts == 0
    report_line(5, ok, "20 in-ball atoms all rejected by the support check before any LP")


def test_criterion_06_split_identity_on_feasible_targets():
    rng = random.Random(606)
    failures = 0
    for _ in range(20):
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
        dists = sorted(space.distance_values())
        steps = [(F(0), F(len(dists) + 2))]
        steps += [(t, F(len(dists) - rank + 1)) for rank, t in enumerate(dists)]
        psi = PsiFunction(tuple(steps))
        verdict = hardcore_split_check(target, psi, "1000000")
        if not (
            verdict.integral_ok
            and verdict.positivity.status == "feasible"
            and abs(verdict.optimum - verdict.integral) <= F(1, 10**9)
        ):
            failures += 1
    ok = failures == 0
    report_line(6, ok, "close-pair LP optimum matched the integral on 20 feasible targets")


def test_criterion_07_cyclic_symmetrisation():
    group = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    target = TwoPointTarget.from_matrix(
        [[F(1, 2) if i == j else F(1, 4) for j in range(3)] for i in range(3)]
    )
    result = realize_subsets(target)
    mixture = symmetrize(result.mixture, group)
    invariant = all(
        {frozenset(g[i] for i in s): w for s, w in mixture.atoms} == dict(mixture.atoms)
        for g in group
    )
    ok = invariant and moments_of_mixture(mixture).p == target.p
    report_line(7, ok, "rotation-averaged mixture is invariant and reproduces the moments exactly")


def test_criterion_08_contact_checks_and_simulation():
    t0 = time.time()
    tau_far = check_two_point(
        StepCdf(((F(1), F(1)),)), StepCdf(((F(3), F(1)),)), F(1)
    )
    rejected = (not tau_far.feasible) and tau_far.violation_at == 2
    tau_near = check_two_point(
        StepCdf(((F(1), F(1)),)), StepCdf(((F(3, 2), F(1)),)), F(1)
    )
    mc = monte_carlo_contact(
        StepCdf(((F(1), F(1)),)),
        StepCdf(((F(3, 2), F(1)),)),
        ("0",),
        ("1",),
        samples=100000,
        seed=7,
    )
    elapsed = time.time() - t0
    ok = (
        rejected
        and tau_near.feasible
        and mc.max_deviation1 <= 0.012
        and mc.max_deviation2 <= 0.012
        and elapsed < 10.0
    )
    report_line(
        8,
        ok,
        f"sandwich verdicts correct; empirical deviations "
        f"{mc.max_deviation1:.4f}/{mc.max_deviation2:.4f} within DKW budget in {elapsed:.1f}s",
    )


def test_criterion_09_tampered_certificates_rejected():
    target = TwoPointTarget.from_matrix(
        [["0.5", "0", "0"], ["0", "0.5", "0"], ["0", "0", "0.5"]]
    )
    base = realize_subsets(target).certificate
    tenth = F(1, 10)

    def with_a(i, j, value, one_sided=False):
        a = [list(row) for row in base.a]
        a[i][j] = value
        if not one_sided:
            a[j][i] = value
        return rebuilt(base, a=a)

    mutants = [rebuilt(base, c=-base.c), rebuilt(base, c=base.c - tenth)]
    for i in range(3):
        mutants.append(with_a(i, i, -base.a[i][i]))
        mutants.append(with_a(i, i, base.a[i][i] - tenth))
        mutants.append(with_a(i, i, base.a[i][i] + tenth))
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        mutants.append(with_a(i, j, -base.a[i][j]))
        mutants.append(with_a(i, j, base.a[i][j] + tenth))
    mutants.append(with_a(0, 1, base.a[0][1] - tenth, one_sided=True))
    mutants.append(replace(base, gap=base.gap + tenth))
    mutants.append(replace(base, minimizer=frozenset({0, 1, 2})))
    rejected = sum(1 for cert in mutants if not verify_certificate(cert, target)[0])
    ok = len(mutants) == 20 and rejected == 20
    report_line(9, ok, f"{rejected}/20 mutated certificates rejected by independent re-verification")


def test_criterion_10_suite_duration():
    elapsed = time.time() - SESSION_T0
    ok = elapsed < 300.0
    report_line(10, ok, f"test session at {elapsed:.0f}s, within the 5-minute budget")
