"""Command-line front end: JSON instances in, deterministic JSON reports out.

Exit codes: 0 feasible/pass, 1 infeasible/fail, 2 invalid input,
3 indeterminate (also for an input past the size cap of an exact method),
4 internal error (the report then has status "error").
Reports are byte-identical across reruns with identical inputs, seeds and
flags: numbers are serialised as exact decimal or fraction strings, keys
are sorted, and no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import __version__
from .contact import (
    BallSystem,
    StepCdf,
    ball_positivity_screen,
    check_two_point,
    monte_carlo_contact,
)
from .errors import CapExceeded, InvalidInstance, RealkitError
from .lp import Certificate
from .metric import FiniteMetricSpace, gamma_min_pairs, packing_number
from .numbers import (
    INF, field, format_rational, parse_int, parse_list, parse_rational, parse_rationals,
    parse_square,
)
from .pp import (
    CorrelationTarget,
    objective_cardinality,
    positivity_screen,
    realize_pinned,
    realize_pp,
    rho_atoms,
    verify_pp_certificate,
)
from .regularity import (
    AtomicMeasure2D,
    PsiFunction,
    chi_hc_integral,
    packing_integral,
    psi_admissibility,
    reduced_measure_check,
    shell_series,
)
from .setrealize import (
    SubsetMixture,
    TwoPointTarget,
    moments_of_mixture,
    realize_subsets,
    symmetrize,
    validate_group,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INDETERMINATE = 3
EXIT_ERROR = 4

# count caps, measured on a 2-core Xeon: `contact simulate --samples` 10**7
# took 0.6 s and 199 MB peak (about 17 bytes a draw); `sample --n` 10**6 on
# the golden four-atom mixture took 3.1 s, 274 MB and a 34 MB report
MAX_SAMPLES = 10**7
MAX_DRAWS = 10**6

_STATUS_EXIT = {
    "feasible": EXIT_OK,
    "pass": EXIT_OK,
    "infeasible": EXIT_FAIL,
    "fail": EXIT_FAIL,
    "invalid": EXIT_INVALID,
    "indeterminate": EXIT_INDETERMINATE,
}


def _load(path: str, digests: dict, key: str):
    """The JSON document at `path`, read once; the sha256 of its bytes goes
    into digests[key]."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise InvalidInstance(f"file not found: {path}") from exc
    except OSError as exc:
        raise InvalidInstance(f"{path}: cannot read ({exc.strerror})") from exc
    digests[key] = hashlib.sha256(data).hexdigest()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidInstance(f"{path}: not UTF-8 ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"{path}: malformed JSON ({exc})") from exc


def _psi(args, digests: dict, command: str) -> PsiFunction:
    if not args.psi:
        raise InvalidInstance(f"{command} needs --psi")
    return PsiFunction.from_json(_load(args.psi, digests, "psi"))


def _fmt(value):
    return None if value is None else format_rational(value)


def _mixture_payload(mix: SubsetMixture) -> list[dict]:
    return [
        {"subset": sorted(subset), "weight": _fmt(w)}
        for subset, w in mix.atoms
    ]


def _pp_mixture_payload(mix) -> list[dict]:
    return [
        {"multiplicity": list(cfg.multiplicity), "weight": _fmt(w)}
        for cfg, w in mix.atoms
    ]


def _certificate_payload(cert: Certificate) -> dict:
    payload = {
        "kind": cert.kind,
        "n": cert.n,
        "c": _fmt(cert.c),
        "a": [[_fmt(v) for v in row] for row in cert.a],
        "gap": _fmt(cert.gap),
        "minimizer": list(cert.minimizer),
    }
    if cert.kind == "pp":
        payload["blin"] = None if cert.blin is None else [_fmt(v) for v in cert.blin]
    return payload


def _certificate_from_payload(obj: dict) -> Certificate:
    kind = field(obj, "kind", "certificate")
    if kind not in ("set", "pp"):
        raise InvalidInstance("certificate: 'kind' must be 'set' or 'pp'")
    n = parse_int(field(obj, "n", "certificate"), "/n")
    if n < 1:
        raise InvalidInstance("/n: expected a positive integer")
    blin = field(obj, "blin", "certificate", None) if kind == "pp" else None
    minimizer = parse_list(field(obj, "minimizer", "certificate"), "/minimizer")
    return Certificate.from_functional(
        kind=kind,
        n=n,
        c=parse_rational(field(obj, "c", "certificate"), "/c"),
        a=parse_square(field(obj, "a", "certificate"), "/a", n),
        blin=None if blin is None else parse_rationals(blin, "/blin", n),
        gap=parse_rational(field(obj, "gap", "certificate"), "/gap"),
        minimizer=tuple(parse_int(v, f"/minimizer/{k}") for k, v in enumerate(minimizer)),
    )


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(command: str, status: str, payload: dict, digests: dict, **extra) -> dict:
    report = {
        "command": command,
        "status": status,
        "payload": payload,
        "version": __version__,
        "input_digest": digests,
    }
    for key, value in extra.items():
        if value is not None:
            report[key] = value
    return report


# ---------------------------------------------------------------- commands


def _cmd_packing(args, digests: dict) -> dict:
    space = FiniteMetricSpace.from_json(_load(args.instance, digests, "instance"))
    t = parse_rational(args.t, "--t")
    value = packing_number(space, t)
    payload = {"packing_number": value, "t": _fmt(t), "points": space.n}
    return _report("packing", "pass", payload, digests)


def _cmd_gamma(args, digests: dict) -> dict:
    space = FiniteMetricSpace.from_json(_load(args.instance, digests, "instance"))
    t = parse_rational(args.t, "--t")
    value = gamma_min_pairs(space, args.n, t)
    payload = {"gamma": value, "n": args.n, "t": _fmt(t)}
    return _report("gamma", "pass", payload, digests)


def _verdict_report(command: str, result, digests: dict, mixture) -> dict:
    """The report of a `lp.RealizeResult`; `mixture` serialises the target's mixture."""
    payload: dict = {"method": result.method}
    if result.mixture is not None:
        payload["mixture"] = mixture(result.mixture)
    if result.certificate is not None:
        payload["certificate"] = _certificate_payload(result.certificate)
    if result.objective_value is not None:
        payload["objective_value"] = _fmt(result.objective_value)
    if result.dual_value is not None:
        payload["dual_value"] = _fmt(result.dual_value)
    return _report(
        command,
        result.status,
        payload,
        digests,
        residual=_fmt(result.residual),
        gap=_fmt(result.gap),
        note=result.note,
    )


def _cmd_realize_set(args, digests: dict) -> dict:
    target = TwoPointTarget.from_json(_load(args.instance, digests, "instance"))
    result = realize_subsets(target, args.max_exact)
    if result.status == "feasible" and args.group:
        perms = [
            [parse_int(v, f"/{k}/{i}") for i, v in enumerate(parse_list(perm, f"/{k}"))]
            for k, perm in enumerate(parse_list(_load(args.group, digests, "group"), "group"))
        ]
        validate_group(perms, target.n)
        for g in perms:
            for i in range(target.n):
                for j in range(target.n):
                    if target.p[g[i]][g[j]] != target.p[i][j]:
                        raise InvalidInstance(
                            "target moments are not invariant under the supplied group"
                        )
        mix = symmetrize(result.mixture, perms)
        hat = moments_of_mixture(mix)
        if hat.p != target.p:
            raise RuntimeError("symmetrised mixture lost the target moments")
        result.mixture = mix
    return _verdict_report("realize-set", result, digests, _mixture_payload)


def _cmd_verify_cert(args, digests: dict) -> dict:
    instance = _load(args.instance, digests, "instance")
    cert = _certificate_from_payload(_load(args.certificate, digests, "certificate"))
    if cert.kind == "set":
        ok, reason = verify_certificate(cert, TwoPointTarget.from_json(instance))
    else:
        ok, reason = verify_pp_certificate(cert, CorrelationTarget.from_json(instance))
    payload = {"kind": cert.kind, "valid": ok, "reason": reason}
    status = "pass" if ok else "fail"
    return _report(
        "verify-cert", status, payload, digests, note=None if ok else "certificate invalid"
    )


def _cmd_realize_pp(args, digests: dict) -> dict:
    target = CorrelationTarget.from_json(_load(args.instance, digests, "instance"))
    # the moment rows pin chi-hc, and card2 when there is an intensity
    if args.objective == "chi-hc":
        psi = _psi(args, digests, "--objective chi-hc")
        if target.space is None:
            raise InvalidInstance("a chi-hc objective needs the target's space")
        result = realize_pinned(target, chi_hc_integral(AtomicMeasure2D.from_target(target), psi))
    elif args.objective == "card2" and target.rho1 is not None:
        result = realize_pinned(target, target.pair_mass + sum(target.rho1))
    elif args.objective:
        result = realize_pp(target, objective=objective_cardinality(int(args.objective[4:])))
    else:
        result = realize_pp(target)
    return _verdict_report("realize-pp", result, digests, _pp_mixture_payload)


def _cmd_screen_pp(args, digests: dict) -> dict:
    target = CorrelationTarget.from_json(_load(args.instance, digests, "instance"))
    screen = positivity_screen(target, trials=args.trials, seed=args.seed)
    violations = [
        {
            "trial": t,
            "h": [[format_rational(v) for v in row] for row in h],
            "pairing": _fmt(phi),
            "infimum": _fmt(inf_val),
        }
        for t, h, phi, inf_val in screen.violations
    ]
    payload = {"trials": screen.trials, "violations": violations, "seed": args.seed}
    status = "pass" if not violations else "fail"
    note = None if not violations else "a sampled test functional violates positivity"
    return _report("screen-pp", status, payload, digests, note=note)


def _finite_measure(obj) -> tuple[FiniteMetricSpace, AtomicMeasure2D]:
    space = FiniteMetricSpace.from_json(field(obj, "space", "instance"))
    return space, AtomicMeasure2D.on_space(space, rho_atoms(field(obj, "rho", "instance", [])))


def _euclidean(obj, size: int) -> tuple[int, list]:
    """The dimension and the atoms of a Euclidean measure: lists of `size`
    entries, points (lists of d entries) and then a weight."""
    d = parse_int(field(obj, "d", "instance"), "/d")
    if d < 1:
        raise InvalidInstance("/d: expected a positive integer")
    atoms = parse_list(field(obj, "atoms", "instance"), "/atoms")
    for k, atom in enumerate(atoms):
        for i, point in enumerate(parse_list(atom, f"/atoms/{k}", size)[:-1]):
            parse_list(point, f"/atoms/{k}/{i}", d)
    return d, atoms


def _verdict_from_enclosure(value, bound) -> str:
    lo, hi = value
    if bound is None:
        return "pass" if hi < INF else "fail"
    if hi <= bound:
        return "pass"
    if lo > bound:
        return "fail"
    return "indeterminate"


def _cmd_regularity(args, digests: dict) -> dict:
    obj = _load(args.instance, digests, "instance")
    bound = parse_rational(args.r, "--r") if args.r is not None else None
    payload: dict = {"check": args.check}
    if args.check == "psi":
        space = FiniteMetricSpace.from_json(field(obj, "space", "instance"))
        psi = _psi(args, digests, "--check psi")
        threshold = bound if bound is not None else Fraction(1)
        rep = psi_admissibility(psi, space, threshold)
        payload["profile"] = [
            {
                "t": _fmt(t),
                "psi": _fmt(pv),
                "packing": pk,
                "ratio": _fmt(ratio),
            }
            for t, pv, pk, ratio in rep.profile
        ]
        payload["threshold"] = _fmt(threshold)
        payload["ratio_at_smallest_distance"] = _fmt(rep.ratio_at_smallest)
        payload["note"] = (
            "finite-data proxy: the growth condition is a limit statement "
            "and is judged at the smallest positive distance"
        )
        return _report("regularity", "pass" if rep.passes else "fail", payload, digests)
    # every other check reports a value enclosure and judges it against the bound
    if args.check in ("chi", "packing"):
        space, measure = _finite_measure(obj)
        if args.check == "chi":
            value = chi_hc_integral(measure, _psi(args, digests, "--check chi"))
        else:
            value = packing_integral(measure, space)
        payload["value"] = _fmt(value)
        enclosure = (value, value)
    elif args.check == "shells":
        measure = AtomicMeasure2D.euclidean(*_euclidean(obj, 3))
        radii = parse_rationals(field(obj, "radii", "instance"), "/radii")
        if not args.beta:
            raise InvalidInstance("--check shells needs --beta")
        beta = field(_load(args.beta, digests, "beta"), "beta", "beta file")
        result = shell_series(measure, radii, parse_rationals(beta, "/beta"))
        payload["r_values"] = [[_fmt(lo), _fmt(hi)] for lo, hi in result.r_values]
        enclosure = result.series
        payload["series"] = [_fmt(v) for v in enclosure]
    elif args.check == "reduced":
        d, atoms = _euclidean(obj, 2)
        radius = parse_rational(field(obj, "ball_radius", "instance"), "/ball_radius")
        result = reduced_measure_check(atoms, radius, d)
        enclosure = result.value
        payload["value"] = [_fmt(v) for v in enclosure]
        payload["origin_atom"] = result.origin_atom
    else:
        raise InvalidInstance(f"unknown regularity check {args.check!r}")
    payload["bound"] = _fmt(bound)
    return _report("regularity", _verdict_from_enclosure(enclosure, bound), payload, digests)


def _parse_point(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_contact_check(args, digests: dict) -> dict:
    tau1 = StepCdf.from_json(_load(args.tau1, digests, "tau1"))
    if args.tau2 is None:
        payload = {
            "feasible": True,
            "note": "a single valid step cdf is always realisable",
        }
        return _report("contact-check", "pass", payload, digests)
    tau2 = StepCdf.from_json(_load(args.tau2, digests, "tau2"))
    if args.l is None:
        raise InvalidInstance("checking two cdfs needs --l")
    result = check_two_point(tau1, tau2, parse_rational(args.l, "--l"))
    payload = {
        "feasible": result.feasible,
        "violation_at": _fmt(result.violation_at),
        "side": result.side,
    }
    status = "pass" if result.feasible else "fail"
    return _report("contact-check", status, payload, digests)


def _cmd_contact_simulate(args, digests: dict) -> dict:
    if args.samples < 1:
        raise InvalidInstance("--samples must be a positive draw count")
    if args.samples > MAX_SAMPLES:
        raise CapExceeded(f"--samples {args.samples} above the draw cap {MAX_SAMPLES}")
    tau1 = StepCdf.from_json(_load(args.tau1, digests, "tau1"))
    tau2 = StepCdf.from_json(_load(args.tau2, digests, "tau2"))
    x1 = _parse_point(args.x1)
    x2 = _parse_point(args.x2)
    report_mc = monte_carlo_contact(tau1, tau2, x1, x2, samples=args.samples, seed=args.seed)
    return _report("contact-simulate", "pass", dataclasses.asdict(report_mc), digests)


def _cmd_contact_screen(args, digests: dict) -> dict:
    obj = _load(args.instance, digests, "instance")
    system = BallSystem.from_json(field(obj, "system", "instance"))
    taus = {}
    for k, entry in enumerate(parse_list(field(obj, "taus", "instance"), "/taus")):
        point = parse_rationals(field(entry, "point", f"/taus/{k}"), f"/taus/{k}/point")
        if point in taus:
            raise InvalidInstance(f"/taus/{k}/point: repeats an earlier reference point")
        taus[point] = StepCdf.from_json(field(entry, "cdf", f"/taus/{k}"))
    probes = parse_list(field(obj, "probe_points", "instance"), "/probe_points")
    probes = [parse_rationals(p, f"/probe_points/{k}") for k, p in enumerate(probes)]
    rep = ball_positivity_screen(taus, system, probes, trials=args.trials or 0, seed=args.seed)
    payload = {
        "label": rep.label,
        "system_nonnegative": rep.system_nonnegative,
        "negative_mask": rep.negative_mask,
        "tau_sum": _fmt(rep.tau_sum),
        "method": rep.method,
    }
    if not rep.system_nonnegative:
        status = "pass"  # system rejected, nothing to test against the cdfs
        payload["note"] = "system is not non-negative on the probe subsets; no cdf test"
    else:
        status = "pass" if rep.passes else "fail"
    return _report("contact-screen", status, payload, digests)


def _cmd_sample(args, digests: dict) -> dict:
    if args.n < 0:
        raise InvalidInstance("--n must be a non-negative draw count")
    if args.n > MAX_DRAWS:
        raise CapExceeded(f"--n {args.n} above the draw cap {MAX_DRAWS}")
    obj = _load(args.source, digests, "source")
    # a report holds its mixture under "payload", a bare mixture file at the top
    holder = field(obj, "payload", "source", obj)
    payload_mix = parse_list(field(holder, "mixture", "source"), "/mixture")
    weights, outcomes = [], []
    for k, atom in enumerate(payload_mix):
        where = f"/mixture/{k}"
        weights.append(parse_rational(field(atom, "weight", where), f"{where}/weight"))
        key = "subset" if "subset" in atom else "multiplicity"
        if key not in atom:
            raise InvalidInstance(f"{where}: expected key 'subset' or 'multiplicity'")
        outcomes.append(parse_list(atom[key], f"{where}/{key}"))
    total = sum(weights)
    if any(w < 0 for w in weights) or total <= 0:
        raise InvalidInstance("mixture weights must be non-negative, with a positive sum")
    # normalised exactly, so no weight overflows or underflows before the division
    weights = np.array([float(w / total) for w in weights])
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(len(payload_mix), size=args.n, p=weights)
    payload = {"draws": [outcomes[k] for k in picks], "n": args.n, "seed": args.seed}
    return _report("sample", "pass", payload, digests)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (it costs milliseconds)."""
    parser = argparse.ArgumentParser(
        prog="realkit",
        description="Realisability checks for second-order data of random sets "
        "and point processes on finite carriers",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("packing", parents=[common], help="packing number of a finite metric space")
    p.add_argument("instance")
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_packing)

    p = sub.add_parser("gamma", parents=[common], help="minimal ordered close-pair count at mass n")
    p.add_argument("instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", required=True)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("realize-set", parents=[common], help="realise a two-point covering target")
    p.add_argument("instance")
    p.add_argument("--max-exact", type=int, default=12, dest="max_exact")
    p.add_argument("--group", help="JSON list of permutations to symmetrise with")
    p.set_defaults(func=_cmd_realize_set)

    p = sub.add_parser("verify-cert", parents=[common], help="re-verify an infeasibility certificate")
    p.add_argument("instance")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("realize-pp", parents=[common], help="realise a correlation target")
    p.add_argument("instance")
    p.add_argument("--objective", choices=["card2", "card3", "card4", "chi-hc"])
    p.add_argument("--psi", help="step-function weight for the chi-hc objective")
    p.set_defaults(func=_cmd_realize_pp)

    p = sub.add_parser("screen-pp", parents=[common], help="sampled positivity screen for a correlation target")
    p.add_argument("instance")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_screen_pp)

    p = sub.add_parser("regularity", parents=[common], help="integrability-side checkers")
    p.add_argument("instance")
    p.add_argument("--check", required=True, choices=["chi", "packing", "psi", "shells", "reduced"])
    p.add_argument("--psi")
    p.add_argument("--r", help="bound for pass/fail (threshold for --check psi)")
    p.add_argument("--beta", help="JSON file with the shell weight sequence")
    p.set_defaults(func=_cmd_regularity)

    p = sub.add_parser("contact", help="contact distribution tools")
    contact_sub = p.add_subparsers(dest="contact_command", required=True)

    pc = contact_sub.add_parser("check", parents=[common], help="two-point sandwich test")
    pc.add_argument("--tau1", required=True)
    pc.add_argument("--tau2")
    pc.add_argument("--l")
    pc.set_defaults(func=_cmd_contact_check)

    pc = contact_sub.add_parser(
        "simulate", parents=[common],
        help="build the two-point set for sampled draws; compare distance cdfs with the targets",
    )
    pc.add_argument("--tau1", required=True)
    pc.add_argument("--tau2", required=True)
    pc.add_argument("--x1", required=True, help="comma-separated rational coordinates")
    pc.add_argument("--x2", required=True)
    pc.add_argument("--samples", type=int, default=100000, help=f"uniform draws (1 to {MAX_SAMPLES})")
    pc.add_argument("--seed", type=int, required=True)
    pc.set_defaults(func=_cmd_contact_simulate)

    pc = contact_sub.add_parser("screen", parents=[common], help="ball-system positivity screen")
    pc.add_argument("instance")
    pc.add_argument("--trials", type=int, default=0)
    pc.add_argument("--seed", type=int)
    pc.set_defaults(func=_cmd_contact_screen)

    p = sub.add_parser("sample", parents=[common], help="draw realisations from a reported mixture")
    p.add_argument("source", help="report or mixture JSON")
    p.add_argument("--n", type=int, required=True, help=f"draws (0 to {MAX_DRAWS})")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a command fills the dict with the digests of the files it reads
        report = args.func(args, {})
    except CapExceeded as exc:
        # a size cap of an exact method, not a fault of the input
        _emit(_report(args.command, "indeterminate", {"error": str(exc)}, {}), args.out)
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except RealkitError as exc:
        _emit(_report(args.command, "invalid", {"error": str(exc)}, {}), args.out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        # a fault of the program, not a verdict: never let it exit as 1 (infeasible)
        _emit(_report(args.command, "error", {"error": str(exc)}, {}), args.out)
        traceback.print_exc(file=sys.stderr)
        return EXIT_ERROR
    _emit(report, args.out)
    return _STATUS_EXIT[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
