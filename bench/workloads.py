"""Seeded instance generators for the four benchmark workloads.

Each generator writes JSON instance files and returns the requests of one
pass: a CLI argument list, the exit code the generator's construction
implies, and a check that judges the report with `checks` alone. The
program only ever sees the written files; the seed never reaches it.

`tiny=True` shrinks every size so a pass takes a fraction of a second;
the self-tests use it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import fmt

WORKLOADS = ("set-realize", "pp-realize", "cert-verify", "checkers")


@dataclass
class Request:
    label: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], None]


@dataclass
class Workload:
    name: str
    requests: list[Request]
    warmup: Request


class Writer:
    """Writes instance files into one directory and hands back their paths."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, obj) -> str:
        path = self.root / name
        path.write_text(json.dumps(obj, indent=1, sort_keys=True), encoding="utf-8")
        return str(path)


def _matrix(p) -> list[list[str]]:
    return [[fmt(v) for v in row] for row in p]


def _weights(rng: random.Random, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(k)]
    return [Fraction(w, sum(raw)) for w in raw]


# ---------------------------------------------------------------- set-realize


def mixture_target(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Exact moments of a random subset mixture: a randomly relabelled cyclic
    design of n half-size subsets with random integer weights."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[Fraction(0)] * n for _ in range(n)]
    for k, w in enumerate(_weights(rng, n)):
        members = sorted(perm[(k + t) % n] for t in range(n // 2))
        for x, i in enumerate(members):
            for j in members[x:]:
                p[i][j] += w
    for i in range(n):
        for j in range(i):
            p[i][j] = p[j][i]
    return p


def non_psd_target(rng: random.Random, n: int) -> list[list[Fraction]]:
    """p_i = 1/2 and p_ij = p_i p_j - delta_ij with delta_ij >= 3/(8(n-1)).

    Every pair passes the Frechet bounds, yet the all-ones vector gives the
    covariance a negative quadratic form, so no random set has these
    moments and the LP has to prove it.
    """
    half = Fraction(1, 2)
    p = [[half if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p[i][j] = p[j][i] = half * half - Fraction(rng.randint(3, 5), 8 * (n - 1))
    form = sum(p[i][i] - p[i][i] ** 2 for i in range(n)) + sum(
        p[i][j] - p[i][i] * p[j][j] for i in range(n) for j in range(n) if i != j
    )
    if form >= 0:
        raise AssertionError("generator bug: covariance form is not negative")
    return p


def _set_request(put, label: str, p, feasible: bool, extra=()) -> Request:
    argv = ["realize-set", put(f"{label.replace('/', '-')}.json", {"p": _matrix(p)}), *extra]
    if feasible:
        return Request(label, argv, 0, lambda r: checks.check_set_feasible(r, p))
    return Request(label, argv, 1, lambda r: checks.check_set_infeasible(r, p))


def set_realize(rng: random.Random, put: Writer, tiny: bool) -> Workload:
    """n = 12..15, one feasible and one infeasible target each, solved as one
    HiGHS master over all 2^n subsets; n = 15 once more with --max-exact 14,
    which forces the column-generation engine that serves every n > 15.

    Column generation on feasible targets takes several times longer on
    some targets than on others of the same size (at n = 18, 1.8 to 36 s
    over five relabellings of one target), so that feasible target is the
    same for every seed; all others come from it.
    """
    sizes = range(4, 7) if tiny else range(12, 16)
    forced = sizes[-1]
    requests = []
    for n in sizes:
        requests.append(_set_request(put, f"set/feasible/n{n}", mixture_target(rng, n), True))
        requests.append(_set_request(put, f"set/infeasible/n{n}", non_psd_target(rng, n), False))
    flag = ("--max-exact", str(forced - 1))
    fixed = mixture_target(random.Random("set-realize:fixed"), forced)
    requests.append(_set_request(put, f"set/feasible/n{forced}/cg-fixed", fixed, True, flag))
    requests.append(_set_request(put, f"set/infeasible/n{forced}/cg", non_psd_target(rng, forced), False, flag))
    warmup = _set_request(put, "warmup/set", mixture_target(rng, 5), True)
    return Workload("set-realize", requests, warmup)


# ----------------------------------------------------------------- pp-realize

# (n, cap, simple): 21 to 35 admissible configurations
PP_SPECS = [(5, 2, False), (6, 2, False), (5, 4, True), (4, 3, False),
            (7, 2, True), (6, 2, True)]
PP_TINY = [(3, 2, False), (3, 3, True)]
PP_ROUNDS = 6
PP_ROLES = ("feasible", "no-intensity", "objective", "infeasible")
OBJECTIVES = ("card2", "chi-hc", "card4")
PSI_STEPS = [["0", "4"], ["1/2", "2"], ["1", "1"]]


def random_space(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Rational metric: shortest-path closure of random positive weights."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 8), 4)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def _space_json(d) -> dict:
    return {"labels": [f"x{i}" for i in range(len(d))], "dist": _matrix(d)}


def _pp_target(n, cap, simple, rho, rho1) -> dict:
    return {
        "n": n,
        "cap": cap,
        "simple": simple,
        "rho": [[i, j, fmt(w)] for (i, j), w in sorted(rho.items()) if w != 0],
        "rho1": [fmt(v) for v in rho1] if rho1 is not None else None,
    }


def _pair_mass(rho) -> Fraction:
    """E[N(N-1)]: the ordered pair total (off-diagonal atoms count twice)."""
    return sum((w if i == j else 2 * w) for (i, j), w in rho.items())


def _pp_mixture(rng: random.Random, n: int, cap: int, simple: bool):
    """Moments of five random non-empty configurations with random weights,
    redrawn until the law has pairs and a mean above one (both infeasibility
    constructions need that)."""
    configs = list(checks.admissible_configs(n, cap, simple))
    while True:
        atoms = list(zip(rng.sample(configs[1:], 5), _weights(rng, 5)))
        rho, rho1 = checks.pp_moments(atoms, n)
        if _pair_mass(rho) > 0 and sum(rho1) > 1:
            return rho, rho1


def _pp_infeasible(rho, rho1, cap: int, too_many_pairs: bool):
    """Rescale the pair part so an inequality every point process with mass
    at most cap obeys fails: E[N(N-1)] <= (cap-1) E[N], or Var N >= 0."""
    mean, pairs = sum(rho1), _pair_mass(rho)
    if too_many_pairs:
        factor = Fraction(9, 8) * (cap - 1) * mean / pairs
    else:
        factor = Fraction(7, 8) * (mean * mean - mean) / pairs
    rho = {k: w * factor for k, w in rho.items()}
    pairs = _pair_mass(rho)
    if not (pairs > (cap - 1) * mean or pairs < mean * mean - mean):
        raise AssertionError("generator bug: pp target is not infeasible")
    return rho


def pp_instances(rng: random.Random, put: Writer, specs, roles, prefix: str = "pp") -> list[Request]:
    requests = []
    psi_steps = [(Fraction(t), Fraction(v)) for t, v in PSI_STEPS]
    for idx, ((n, cap, simple), role) in enumerate(zip(specs, roles)):
        rho, rho1 = _pp_mixture(rng, n, cap, simple)
        tag = f"{idx}/n{n}c{cap}{'s' if simple else ''}/{role}"
        stem = f"{prefix}-{idx}-{tag.replace('/', '-')}"
        if role == "infeasible":
            rho = _pp_infeasible(rho, rho1, cap, too_many_pairs=(idx // 4) % 2 == 0)
            target = _pp_target(n, cap, simple, rho, rho1)
            requests.append(Request(f"pp/{tag}", ["realize-pp", put(f"{stem}.json", target)], 1,
                                    lambda r, t=target: checks.check_pp_infeasible(r, t)))
            continue
        target = _pp_target(n, cap, simple, rho, None if role == "no-intensity" else rho1)
        extra: list[str] = []
        objective = None
        if role == "objective":
            objective = OBJECTIVES[(idx // 4) % 3]
            extra = ["--objective", objective]
            if objective == "chi-hc":
                target["space"] = _space_json(random_space(rng, n))
                extra += ["--psi", put(f"{stem}-psi.json", {"steps": PSI_STEPS})]
            tag += f"/{objective}"
        requests.append(Request(
            f"pp/{tag}", ["realize-pp", put(f"{stem}.json", target), *extra], 0,
            lambda r, t=target, o=objective: checks.check_pp_feasible(r, t, o, psi_steps)))
    return requests


def pp_realize(rng: random.Random, put: Writer, tiny: bool) -> Workload:
    """Every spec in every role, PP_ROUNDS times with fresh draws."""
    specs = PP_TINY if tiny else PP_SPECS
    plan = [(spec, role) for _ in range(PP_ROUNDS) for spec in specs for role in PP_ROLES]
    requests = pp_instances(rng, put, [s for s, _ in plan], [r for _, r in plan])
    warmup = pp_instances(rng, put, [(3, 2, False)], ["feasible"], prefix="warmup")[0]
    return Workload("pp-realize", requests, warmup)


# ---------------------------------------------------------------- cert-verify

TAMPERS = ("c-lowered", "gap-changed", "minimizer-moved")


def set_certificate(rng: random.Random, n: int) -> tuple[dict, list[list[Fraction]], list]:
    """Random rational a in [-1/2, 1] with max |a| = 1, c = -min of the
    quadratic part, the lexicographically first minimiser, and a target the
    certificate separates (pairing < 0)."""
    while True:
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = Fraction(rng.randint(-8, 16), 16)
        i, j = sorted(rng.sample(range(n), 2))
        a[i][j] = a[j][i] = Fraction(rng.choice((-1, 1)))
        low, mask = checks.subset_minimum(0, a, n)
        c = -low
        half = Fraction(1, 2)
        p = [[half if (i == j or a[i][j] < 0) else Fraction(0) for j in range(n)] for i in range(n)]
        pairing = c + sum(a[i][j] * p[i][j] for i in range(n) for j in range(i, n))
        if pairing < 0:
            break
    cert = {
        "kind": "set", "n": n, "c": fmt(c), "a": _matrix(a), "gap": fmt(-pairing),
        "minimizer": [k for k in range(n) if (mask >> k) & 1],
    }
    return cert, p, a


def tamper(cert: dict, how: str, a=None) -> dict:
    """A copy of the certificate that no longer verifies: c lowered below
    the minimum, the gap changed, or the minimiser moved to a subset where
    the functional is positive (a is needed for that one)."""
    bad = json.loads(json.dumps(cert))
    if how == "c-lowered":
        bad["c"] = fmt(Fraction(bad["c"]) - Fraction(1, 16))
    elif how == "gap-changed":
        bad["gap"] = fmt(Fraction(bad["gap"]) + Fraction(1, 16))
    else:
        members = set(bad["minimizer"])
        bad["minimizer"] = next(
            moved for moved in (sorted(members ^ {i}) for i in range(bad["n"]))
            if checks.subset_value(Fraction(bad["c"]), a, sum(1 << k for k in moved)) > 0
        )
    return bad


def pp_certificate(rng: random.Random, n: int, cap: int) -> tuple[dict, dict]:
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = Fraction(rng.randint(-8, 8), 8)
    a[0][n - 1] = a[n - 1][0] = Fraction(-1)
    configs = list(checks.admissible_configs(n, cap, False))
    values = [checks.config_functional(0, a, None, m) for m in configs]
    low = min(values)
    c = -low
    negative = -sum(a[i][j] for i in range(n) for j in range(i, n) if a[i][j] < 0)
    level = c / negative + 1
    rho = {(i, j): level for i in range(n) for j in range(i, n) if a[i][j] < 0}
    target = _pp_target(n, cap, False, rho, None)
    pairing = c - level * negative
    cert = {
        "kind": "pp", "n": n, "c": fmt(c), "a": _matrix(a), "blin": None,
        "gap": fmt(-pairing), "minimizer": list(configs[values.index(low)]),
    }
    return cert, target


def cert_verify(rng: random.Random, put: Writer, tiny: bool) -> Workload:
    sizes = [6, 7, 8, 9] if tiny else [18, 19, 20] * 8
    requests = []
    for k, n in enumerate(sizes):
        cert, p, a = set_certificate(rng, n)
        how = TAMPERS[(k // 4) % 3] if k % 4 == 3 else None
        if how:
            cert = tamper(cert, how, a)
        label = f"cert/set/n{n}/{how or 'valid'}/{k}"
        stem = label.replace("/", "-")
        argv = ["verify-cert", put(f"{stem}-target.json", {"p": _matrix(p)}), put(f"{stem}.json", cert)]
        requests.append(Request(label, argv, 1 if how else 0,
                                lambda r, v=not how: checks.check_verdict(r, v)))
    # n = 21 is past enumeration, so qubo_min runs branch and bound, whose
    # time varies several-fold between certificates of one size: this one
    # certificate is the same for every seed
    n = 7 if tiny else 21
    cert, p, _ = set_certificate(random.Random("cert-verify:fixed"), n)
    stem = f"cert-set-n{n}-fixed"
    argv = ["verify-cert", put(f"{stem}-target.json", {"p": _matrix(p)}), put(f"{stem}.json", cert)]
    requests.append(Request(f"cert/set/n{n}/fixed", argv, 0, lambda r: checks.check_verdict(r, True)))
    for k, (n, cap) in enumerate([(4, 3), (5, 3), (4, 4)]):
        cert, target = pp_certificate(rng, n, cap)
        how = "c-lowered" if k == 2 else None
        if how:
            cert = tamper(cert, how)
        label = f"cert/pp/n{n}c{cap}/{how or 'valid'}"
        stem = label.replace("/", "-")
        argv = ["verify-cert", put(f"{stem}-target.json", target), put(f"{stem}.json", cert)]
        requests.append(Request(label, argv, 1 if how else 0,
                                lambda r, v=not how: checks.check_verdict(r, v)))
    cert, p, _ = set_certificate(rng, 8)
    argv = ["verify-cert", put("warmup-target.json", {"p": _matrix(p)}), put("warmup-cert.json", cert)]
    warmup = Request("warmup/cert", argv, 0, lambda r: checks.check_verdict(r, True))
    return Workload("cert-verify", requests, warmup)


# ------------------------------------------------------------------- checkers


def _expect(report: dict, key: str, value) -> None:
    """Payload entry equals `value`; exact numbers are compared as rationals,
    since the report may write 1/4 as "0.25"."""
    got = report["payload"].get(key)
    if isinstance(value, Fraction):
        same = checks.num(got) == value
    elif isinstance(value, list) and value and isinstance(value[0], Fraction):
        same = [checks.num(g) for g in got] == value
    else:
        same = got == value
    if not same:
        raise checks.CheckFailed(f"payload {key} = {got!r}, expected {value!r}")


def _exit_of(status: str) -> int:
    return 0 if status == "pass" else 1


def _metric_requests(rng: random.Random, put: Writer, r: int, d) -> list[Request]:
    """Packing numbers and minimal close-pair counts, against brute force."""
    requests = []
    space = put(f"space9-{r}.json", _space_json(d))
    for t in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
        want = checks.brute_packing(d, t)
        requests.append(Request(f"packing/{r}/{fmt(t)}", ["packing", space, "--t", fmt(t)], 0,
                                lambda rep, w=want: _expect(rep, "packing_number", w)))
    d5 = random_space(rng, 5)
    space5 = put(f"space5-{r}.json", _space_json(d5))
    for mass in (3, 4):
        want = checks.brute_gamma(d5, mass, Fraction(1))
        requests.append(Request(f"gamma/{r}/{mass}", ["gamma", space5, "--n", str(mass), "--t", "1"], 0,
                                lambda rep, w=want: _expect(rep, "gamma", w)))
    return requests


def _regularity_requests(rng: random.Random, put: Writer, r: int, d) -> list[Request]:
    """Every `regularity --check`, with the value recomputed here."""
    requests = []
    n = len(d)
    atoms = [(i, j, Fraction(rng.randint(1, 8), 8)) for i in range(n) for j in range(n)
             if i != j and rng.random() < 0.3]
    measure = put(f"measure-{r}.json", {"space": _space_json(d),
                                         "rho": [[i, j, fmt(w)] for i, j, w in atoms]})
    psi = put(f"psi-{r}.json", {"steps": PSI_STEPS})
    steps = [(Fraction(t), Fraction(v)) for t, v in PSI_STEPS]
    packing = {t: checks.brute_packing(d, t) for t in {x for row in d for x in row}}

    chi = sum(w * checks.step_value(steps, d[i][j]) for i, j, w in atoms)
    for bound in (chi * Fraction(11, 10), chi * Fraction(9, 10)):
        status = checks.bound_verdict(chi, bound)
        requests.append(Request(
            f"regularity/chi/{r}/{status}",
            ["regularity", measure, "--check", "chi", "--psi", psi, "--r", fmt(bound)], _exit_of(status),
            lambda rep, s=status, v=chi: (checks.check_status(rep, s), _expect(rep, "value", v))))
    pack = sum(w * packing[d[i][j]] for i, j, w in atoms)
    requests.append(Request(
        f"regularity/packing/{r}", ["regularity", measure, "--check", "packing", "--r", fmt(pack)], 0,
        lambda rep, v=pack: (checks.check_status(rep, "pass"), _expect(rep, "value", v))))
    d_min = min(d[i][j] for i in range(n) for j in range(i + 1, n))
    ratio = checks.step_value(steps, d_min) / packing[d_min]
    for threshold in (ratio / 2, ratio * 2):
        status = "pass" if ratio > threshold else "fail"
        requests.append(Request(
            f"regularity/psi/{r}/{status}",
            ["regularity", measure, "--check", "psi", "--psi", psi, "--r", fmt(threshold)], _exit_of(status),
            lambda rep, s=status, v=ratio: (checks.check_status(rep, s),
                                            _expect(rep, "ratio_at_smallest_distance", v))))

    # inverse-power masses in the plane, where |x|^-2 is rational
    pts = [[rng.randint(-6, 6), rng.randint(-6, 6)] for _ in range(12)]
    pairs = [(pts[k], pts[k + 1], Fraction(rng.randint(1, 4), 4)) for k in range(0, 12, 2)
             if pts[k] != pts[k + 1]]
    radii = [Fraction(3), Fraction(6), Fraction(9)]
    beta = [Fraction(1), Fraction(1, 2)]
    shells = put(f"shells-{r}.json", {
        "d": 2, "radii": [fmt(x) for x in radii],
        "atoms": [[[str(c) for c in x], [str(c) for c in y], fmt(w)] for x, y, w in pairs]})
    beta_file = put(f"beta-{r}.json", {"beta": [fmt(b) for b in beta]})
    masses = [sum(w / checks.norm_sq(x, y) for x, y, w in pairs
                  if checks.norm_sq(x) < R * R and checks.norm_sq(y) < R * R) for R in radii]
    series = sum(b * (masses[k + 1] - masses[k]) for k, b in enumerate(beta))
    requests.append(Request(
        f"regularity/shells/{r}",
        ["regularity", shells, "--check", "shells", "--beta", beta_file, "--r", fmt(series)], 0,
        lambda rep, v=series: (checks.check_status(rep, "pass"), _expect(rep, "series", [v, v]))))
    ys = [([rng.randint(-2, 2), rng.randint(1, 3)], Fraction(rng.randint(1, 4), 4)) for _ in range(10)]
    reduced = put(f"reduced-{r}.json", {"d": 2, "ball_radius": "4",
                                        "atoms": [[[str(c) for c in y], fmt(w)] for y, w in ys]})
    value = sum(w / checks.norm_sq(y) for y, w in ys if checks.norm_sq(y) < 16)
    requests.append(Request(
        f"regularity/reduced/{r}", ["regularity", reduced, "--check", "reduced", "--r", fmt(value / 2)], 1,
        lambda rep, v=value: (checks.check_status(rep, "fail"), _expect(rep, "value", [v, v]))))
    return requests


def _contact_requests(rng: random.Random, put: Writer, r: int) -> list[Request]:
    """Sandwich checks, a single cdf, a ball screen and one simulation."""
    requests = []

    def cdf():
        rs = sorted(rng.sample(range(1, 13), 4))
        vs = sorted(rng.sample(range(1, 9), 4))
        return [(Fraction(x, 2), Fraction(v, 8)) for x, v in zip(rs, vs)]

    def jumps(tau):
        return {"jumps": [[fmt(x), fmt(v)] for x, v in tau]}

    tau1, tau2 = cdf(), cdf()
    f1, f2 = put(f"tau1-{r}.json", jumps(tau1)), put(f"tau2-{r}.json", jumps(tau2))
    for l in (Fraction(1, 2), Fraction(3), Fraction(7)):
        feasible = not checks.sandwich_violated(tau1, tau2, l)
        status = "pass" if feasible else "fail"
        requests.append(Request(
            f"contact/check/{r}/{fmt(l)}", ["contact", "check", "--tau1", f1, "--tau2", f2, "--l", fmt(l)],
            _exit_of(status),
            lambda rep, s=status, ok=feasible: (checks.check_status(rep, s), _expect(rep, "feasible", ok))))
    requests.append(Request(f"contact/single/{r}", ["contact", "check", "--tau1", f2], 0,
                            lambda rep: _expect(rep, "feasible", True)))

    centers = [str(rng.randint(0, 4)) for _ in range(3)]
    radii = [Fraction(rng.randint(1, 4), 2) for _ in range(3)]
    coeffs = [Fraction(rng.randint(-2, 4)) for _ in range(3)]
    probes = [Fraction(rng.randint(-2, 12), 2) for _ in range(6)]
    taus = {c: tau1 if k % 2 == 0 else tau2 for k, c in enumerate(centers)}
    screen = put(f"screen-{r}.json", {
        "system": {"centers": [[c] for c in centers], "radii": [fmt(x) for x in radii],
                   "coefficients": [fmt(x) for x in coeffs]},
        "taus": [{"point": [c], "cdf": jumps(tau)} for c, tau in taus.items()],
        "probe_points": [[fmt(x)] for x in probes],
    })
    # the system's value on a probe subset only depends on which balls it hits
    hits = [{k for k in range(3) if abs(x - Fraction(centers[k])) <= radii[k]} for x in probes]
    worst = min(sum(coeffs[k] for k in set().union(*(hits[i] for i in range(6) if (mask >> i) & 1)))
                for mask in range(1 << 6))
    if worst < 0:
        status, want = "pass", {"system_nonnegative": False}
    else:
        total = sum(coeffs[k] * (checks.step_value(taus[centers[k]], radii[k]) or 0) for k in range(3))
        status = "pass" if total >= 0 else "fail"
        want = {"system_nonnegative": True, "tau_sum": Fraction(total)}
    requests.append(Request(
        f"contact/screen/{r}", ["contact", "screen", screen], _exit_of(status),
        lambda rep, s=status, w=want: (checks.check_status(rep, s), [_expect(rep, k, v) for k, v in w.items()])))

    # a cdf against itself always passes the sandwich, so the construction exists
    requests.append(Request(
        f"contact/simulate/{r}",
        ["contact", "simulate", "--tau1", f1, "--tau2", f1, "--x1", "0,0", "--x2", "3,4",
         "--samples", "20000", "--seed", str(rng.randint(0, 10**6))], 0,
        lambda rep, t=tau1: _check_simulation(rep, t, t)))
    return requests


def _screen_and_sample_requests(rng: random.Random, put: Writer, r: int) -> list[Request]:
    """screen-pp on feasible targets (a sound screen never fires) and sample."""
    requests = []
    for spec in ((4, 3, True), (4, 2, False)):
        configs = list(checks.admissible_configs(*spec))
        atoms = list(zip(rng.sample(configs[1:], 4), _weights(rng, 4)))
        rho, rho1 = checks.pp_moments(atoms, spec[0])
        target = put(f"screen-pp-{r}-{spec[0]}{spec[1]}.json", _pp_target(*spec, rho, rho1))
        requests.append(Request(
            f"screen-pp/{r}/{spec}", ["screen-pp", target, "--trials", "20", "--seed", str(r)], 0,
            lambda rep: (checks.check_status(rep, "pass"), _expect(rep, "violations", []))))
    subsets = sorted({tuple(sorted(rng.sample(range(6), rng.randint(0, 6)))) for _ in range(5)})
    mixture = put(f"mixture-{r}.json", {"mixture": [
        {"subset": list(s), "weight": fmt(w)} for s, w in zip(subsets, _weights(rng, len(subsets)))]})
    requests.append(Request(f"sample/{r}", ["sample", mixture, "--n", "200", "--seed", str(r)], 0,
                            lambda rep, s=set(subsets): _check_draws(rep, s, 200)))
    return requests


def checkers(rng: random.Random, put: Writer, tiny: bool) -> Workload:
    """21 requests per round on fresh instances, 20 rounds per pass."""
    requests: list[Request] = []
    for r in range(1 if tiny else 20):
        d = random_space(rng, 9)
        requests += _metric_requests(rng, put, r, d)
        requests += _regularity_requests(rng, put, r, d)
        requests += _contact_requests(rng, put, r)
        requests += _screen_and_sample_requests(rng, put, r)
    warmup = Request("warmup/packing", requests[0].argv, 0, requests[0].check)
    return Workload("checkers", requests, warmup)


def _check_simulation(report: dict, tau1, tau2) -> None:
    payload = report["payload"]
    for key, tau in (("1", tau1), ("2", tau2)):
        targets = [float(checks.step_value(tau, Fraction(x)) or 0) for x in payload["abscissae"]]
        if payload["target" + key] != targets:
            raise checks.CheckFailed(f"target{key} differs from the cdf")
        deviation = max(abs(e - t) for e, t in zip(payload["empirical" + key], targets))
        if deviation > 0.02 or deviation != payload["max_deviation" + key]:
            raise checks.CheckFailed(f"empirical cdf {key} deviates by {deviation}")


def _check_draws(report: dict, support: set, count: int) -> None:
    draws = report["payload"]["draws"]
    if len(draws) != count or any(tuple(d) not in support for d in draws):
        raise checks.CheckFailed("draws outside the mixture support")


GENERATORS = {
    "set-realize": set_realize,
    "pp-realize": pp_realize,
    "cert-verify": cert_verify,
    "checkers": checkers,
}


def build(name: str, seed: int, root: Path, tiny: bool = False) -> Workload:
    """Generate the workload's instance files under `root`, from `seed` alone."""
    rng = random.Random(f"{name}:{seed}")
    return GENERATORS[name](rng, Writer(root), tiny)
