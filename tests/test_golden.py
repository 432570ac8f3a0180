"""Regression corpus: every CLI command on small committed instances.

Each case runs `cli.main` on files under `golden/instances` and compares
the exit code and the report bytes with `golden/reports/<case>.json`; every
certificate a report carries must pass `verify-cert` against its instance.
After a deliberate change of output, rewrite the reports with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from realkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCES = GOLDEN / "instances"
REPORTS = GOLDEN / "reports"

# case -> (argv with file names relative to golden/instances, exit code)
CASES = {
    "packing": (["packing", "space5.json", "--t", "1"], 0),
    "gamma": (["gamma", "space1.json", "--n", "3", "--t", "1"], 0),
    "realize-set-feasible": (["realize-set", "set-feasible.json"], 0),
    "realize-set-infeasible": (["realize-set", "set-infeasible.json"], 1),
    "realize-set-frechet": (["realize-set", "set-frechet.json"], 1),
    # n = 20: the Fréchet certificate ties on 2^18 subsets at full LOW_BITS
    "realize-set-frechet-n20": (["realize-set", "set-frechet-n20.json"], 1),
    "realize-set-single": (["realize-set", "set-single.json"], 0),
    "realize-set-cg-feasible": (["realize-set", "set-cg-feasible.json", "--max-exact", "3"], 0),
    "realize-set-cg-infeasible": (["realize-set", "set-cg-infeasible.json", "--max-exact", "3"], 1),
    "realize-set-enum-6-feasible": (["realize-set", "set-cg-feasible.json"], 0),
    "realize-set-enum-6-infeasible": (["realize-set", "set-cg-infeasible.json"], 1),
    "realize-set-group": (["realize-set", "set-symmetric.json", "--group", "group-c3.json"], 0),
    # passes every screen, so the LP proves it, by enumeration and by column generation
    "realize-set-pentagonal": (["realize-set", "set-pentagonal.json"], 1),
    "realize-set-cg-pentagonal": (["realize-set", "set-pentagonal.json", "--max-exact", "3"], 1),
    "verify-cert-set": (["verify-cert", "set-infeasible.json", "cert-set.json"], 0),
    "verify-cert-set-tampered": (["verify-cert", "set-infeasible.json", "cert-set-tampered.json"], 1),
    "verify-cert-pp": (["verify-cert", "pp-infeasible.json", "cert-pp.json"], 0),
    "verify-cert-pp-tampered": (["verify-cert", "pp-infeasible.json", "cert-pp-tampered.json"], 1),
    "verify-cert-pp-lowered": (["verify-cert", "pp-infeasible.json", "cert-pp-lowered.json"], 1),
    "verify-cert-pp-minimizer-moved": (
        ["verify-cert", "pp-infeasible.json", "cert-pp-minimizer-moved.json"], 1
    ),
    "realize-pp-feasible": (["realize-pp", "pp-feasible.json"], 0),
    "realize-pp-infeasible": (["realize-pp", "pp-infeasible.json"], 1),
    "realize-pp-diagonal": (["realize-pp", "pp-diagonal.json"], 1),
    "realize-pp-pentagonal": (["realize-pp", "pp-pentagonal.json"], 1),
    "realize-pp-card2": (["realize-pp", "pp-objective.json", "--objective", "card2"], 0),
    "realize-pp-card3": (["realize-pp", "pp-objective.json", "--objective", "card3"], 0),
    "realize-pp-card4": (["realize-pp", "pp-objective.json", "--objective", "card4"], 0),
    # the cost LP on an infeasible target: its Farkas maximum comes from the configuration search
    "realize-pp-card3-infeasible": (
        ["realize-pp", "pp-card3-infeasible.json", "--objective", "card3"], 1
    ),
    "realize-pp-chi-hc": (
        ["realize-pp", "pp-objective.json", "--objective", "chi-hc", "--psi", "psi-finite.json"], 0
    ),
    "realize-pp-chi-hc-infinite-head": (
        ["realize-pp", "pp-objective.json", "--objective", "chi-hc", "--psi", "psi.json"], 0
    ),
    "realize-pp-chi-hc-infinite": (
        ["realize-pp", "pp-feasible.json", "--objective", "chi-hc", "--psi", "psi.json"], 0
    ),
    # the paper's hard-core case: a mixture of configurations with no two
    # points closer than hardcore_eps, and mass inside that distance
    "realize-pp-hardcore-feasible": (["realize-pp", "pp-hardcore-feasible.json"], 0),
    "realize-pp-hardcore-inside": (["realize-pp", "pp-hardcore-inside.json"], 1),
    "screen-pp-pass": (["screen-pp", "pp-feasible.json", "--trials", "50", "--seed", "3"], 0),
    "screen-pp-fail": (["screen-pp", "pp-diagonal.json", "--trials", "50", "--seed", "7"], 1),
    "regularity-chi": (
        ["regularity", "measure.json", "--check", "chi", "--psi", "psi-finite.json", "--r", "10"], 0
    ),
    "regularity-packing": (["regularity", "measure.json", "--check", "packing", "--r", "1"], 1),
    "regularity-psi": (
        ["regularity", "measure.json", "--check", "psi", "--psi", "psi-steep.json", "--r", "5"], 0
    ),
    "regularity-psi-fail": (
        ["regularity", "measure.json", "--check", "psi", "--psi", "psi-finite.json", "--r", "5"], 1
    ),
    "regularity-shells": (
        ["regularity", "shells.json", "--check", "shells", "--beta", "beta.json", "--r", "1"], 0
    ),
    "regularity-reduced": (["regularity", "reduced.json", "--check", "reduced", "--r", "10"], 0),
    "contact-check-single": (["contact", "check", "--tau1", "tau1.json"], 0),
    "contact-check-pass": (
        ["contact", "check", "--tau1", "tau1.json", "--tau2", "tau2.json", "--l", "1"], 0
    ),
    "contact-check-fail": (
        ["contact", "check", "--tau1", "tau1.json", "--tau2", "tau3.json", "--l", "1"], 1
    ),
    "contact-simulate": (
        [
            "contact", "simulate", "--tau1", "tau1.json", "--tau2", "tau2.json",
            "--x1", "0,0", "--x2", "1,0", "--samples", "500", "--seed", "7",
        ],
        0,
    ),
    "contact-screen": (["contact", "screen", "contact-screen.json"], 0),
    "sample": (["sample", "sample-source.json", "--n", "12", "--seed", "3"], 0),
}


def _run(case: str, out: Path) -> int:
    argv, _ = CASES[case]
    argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
    with contextlib.redirect_stderr(io.StringIO()):
        return main([*argv, "--out", str(out)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_byte_identical(case, tmp_path):
    out = tmp_path / "report.json"
    assert _run(case, out) == CASES[case][1]
    assert out.read_bytes() == (REPORTS / f"{case}.json").read_bytes()


def _certified() -> list[str]:
    """Cases whose committed report carries a certificate."""
    return sorted(
        case
        for case in CASES
        if (REPORTS / f"{case}.json").exists()
        and "certificate" in json.loads((REPORTS / f"{case}.json").read_text())["payload"]
    )


@pytest.mark.parametrize("case", _certified())
def test_certificate_passes_verify_cert(case, tmp_path):
    report = json.loads((REPORTS / f"{case}.json").read_text())
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report["payload"]["certificate"]))
    instance = next(a for a in CASES[case][0] if a.endswith(".json"))
    out = tmp_path / "verdict.json"
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify-cert", str(INSTANCES / instance), str(cert), "--out", str(out)])
    assert code == 0, json.loads(out.read_text())["payload"]["reason"]


if __name__ == "__main__":
    REPORTS.mkdir(exist_ok=True)
    for name, (_, expected) in sorted(CASES.items()):
        code = _run(name, REPORTS / f"{name}.json")
        if code != expected:
            sys.exit(f"{name}: exit {code}, expected {expected}")
