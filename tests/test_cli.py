import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from test_golden import CASES, INSTANCES, REPORTS

import realkit
from realkit import cli, contact, pp
from realkit.cli import main

EQ3 = {
    "labels": ["a", "b", "c"],
    "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}
DISJOINT = {"p": [["0.5", "0", "0"], ["0", "0.5", "0"], ["0", "0", "0.5"]]}
PRODUCT5 = {
    "p": [
        ["0.5" if i == j else "0.25" for j in range(5)]
        for i in range(5)
    ]
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _child_env():
    """The environment of a fresh interpreter that imports this realkit."""
    src = str(Path(realkit.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestPackingGamma:
    def test_packing(self, tmp_path):
        inst = write(tmp_path, "space.json", EQ3)
        code, report = run(tmp_path, "packing", inst, "--t", "0.5")
        assert code == 0
        assert report["payload"]["packing_number"] == 3

    def test_gamma(self, tmp_path):
        inst = write(tmp_path, "space.json", {"labels": ["a"], "dist": [["0"]]})
        code, report = run(tmp_path, "gamma", inst, "--n", "3", "--t", "1")
        assert code == 0
        assert report["payload"]["gamma"] == 6

    @pytest.mark.parametrize("mass", ["3", "9"])
    def test_gamma_negative_t_is_invalid(self, tmp_path, mass):
        # a negative t is invalid input, also at a mass past the cap (exit 3)
        inst = write(tmp_path, "space.json", {"labels": ["a"], "dist": [["0"]]})
        code, report = run(tmp_path, "gamma", inst, "--n", mass, "--t", "-1")
        assert code == 2
        assert report["payload"]["error"] == "t must be non-negative"

    def test_missing_dist_is_schema_error(self, tmp_path):
        inst = write(tmp_path, "space.json", {"labels": ["a"]})
        code, report = run(tmp_path, "packing", inst, "--t", "0.5")
        assert code == 2
        assert report["status"] == "invalid"
        assert "dist" in report["payload"]["error"]


class TestRealizeSet:
    def test_feasible_exit_zero(self, tmp_path):
        inst = write(tmp_path, "t.json", PRODUCT5)
        code, report = run(tmp_path, "realize-set", inst)
        assert code == 0
        assert report["status"] == "feasible"
        assert report["residual"] == "0"
        assert report["payload"]["mixture"]
        assert "certificate" not in report["payload"]

    def test_infeasible_exit_one(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        code, report = run(tmp_path, "realize-set", inst)
        assert code == 1
        assert report["status"] == "infeasible"
        assert report["payload"]["certificate"]
        assert "mixture" not in report["payload"]

    def test_out_of_range_entry_pointer(self, tmp_path):
        inst = write(tmp_path, "t.json", {"p": [["0.5", "1.5"], ["1.5", "0.5"]]})
        code, report = run(tmp_path, "realize-set", inst)
        assert code == 2
        assert "/p/0/1" in report["payload"]["error"]

    def test_group_symmetrisation(self, tmp_path):
        inst = write(
            tmp_path,
            "t.json",
            {"p": [["0.5", "0.25", "0.25"], ["0.25", "0.5", "0.25"], ["0.25", "0.25", "0.5"]]},
        )
        group = write(tmp_path, "g.json", [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        code, report = run(tmp_path, "realize-set", inst, "--group", group)
        assert code == 0
        atoms = {tuple(a["subset"]): a["weight"] for a in report["payload"]["mixture"]}
        # orbit weights must coincide under the rotation group
        assert atoms.get((0,)) == atoms.get((1,)) == atoms.get((2,))

    def test_size_cap_is_indeterminate(self, tmp_path):
        # 31 points is past the exact pricing cap: no verdict, but no invalid input either
        n = 31
        p = [["0.5" if i == j else "0.25" if (i + j) % 2 else "0.2" for j in range(n)] for i in range(n)]
        inst = write(tmp_path, "t.json", {"p": p})
        code, report = run(tmp_path, "realize-set", inst)
        assert code == 3
        assert report["status"] == "indeterminate"
        assert "n > 30" in report["payload"]["error"]

    def test_byte_identical_reruns(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["realize-set", inst, "--out", str(out1)]) == 1
        assert main(["realize-set", inst, "--out", str(out2)]) == 1
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyCert:
    def test_round_trip(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        code, report = run(tmp_path, "realize-set", inst)
        cert = write(tmp_path, "cert.json", report["payload"]["certificate"])
        code2, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code2 == 0
        assert report2["payload"]["valid"] is True

    def test_tampered_certificate_rejected(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        _, report = run(tmp_path, "realize-set", inst)
        cert_obj = report["payload"]["certificate"]
        cert_obj["a"][0][0] = cert_obj["a"][0][0].lstrip("-") or "1"  # sign flip
        cert_obj["a"][0] = list(cert_obj["a"][0])
        cert = write(tmp_path, "cert.json", cert_obj)
        code, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code == 1
        assert report2["note"] == "certificate invalid"

    @pytest.mark.parametrize(
        "minimizer", [[0, 0], [-1], [5]], ids=["repeated", "negative", "out-of-range"]
    )
    def test_set_minimizer_that_is_no_subset(self, tmp_path, minimizer):
        inst = write(tmp_path, "t.json", DISJOINT)
        _, report = run(tmp_path, "realize-set", inst)
        cert_obj = {**report["payload"]["certificate"], "minimizer": minimizer}
        cert = write(tmp_path, "cert.json", cert_obj)
        code, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code == 1
        assert report2["payload"]["reason"] == "stored minimizer is not an admissible configuration"

    def test_pp_certificate_scaled_by_two(self, tmp_path):
        inst = write(
            tmp_path,
            "pp.json",
            {"n": 3, "rho": [], "rho1": ["0.5", "0.5", "0.5"], "cap": 3, "simple": True},
        )
        _, report = run(tmp_path, "realize-pp", inst)
        cert_obj = report["payload"]["certificate"]

        def double(v):
            return str(2 * Fraction(v))

        cert_obj.update(
            c=double(cert_obj["c"]),
            a=[[double(v) for v in row] for row in cert_obj["a"]],
            blin=[double(v) for v in cert_obj["blin"]],
            gap=double(cert_obj["gap"]),
        )
        cert = write(tmp_path, "cert.json", cert_obj)
        code, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code == 1
        assert report2["payload"]["reason"].startswith("normalisation violated")


class TestMalformedCertificate:
    def test_set_certificate_without_n(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        _, report = run(tmp_path, "realize-set", inst)
        cert_obj = report["payload"]["certificate"]
        del cert_obj["n"]
        cert = write(tmp_path, "cert.json", cert_obj)
        code, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code == 2
        assert report2["status"] == "invalid"
        assert "n" in report2["payload"]["error"]

    def test_pp_certificate_with_a_too_small(self, tmp_path):
        inst = write(tmp_path, "pp.json", {"n": 2, "rho": [[0, 1, "1"]], "cap": 2})
        cert = write(
            tmp_path,
            "cert.json",
            {"kind": "pp", "n": 2, "c": "0", "a": [["-1"]], "blin": None, "gap": "1",
             "minimizer": [0, 0]},
        )
        code, report = run(tmp_path, "verify-cert", inst, cert)
        assert code == 2
        assert report["status"] == "invalid"
        assert "2 x 2" in report["payload"]["error"]


    @pytest.mark.parametrize(
        "fields",
        [{"n": True}, {"minimizer": [False]}, {"n": True, "minimizer": [False]}],
        ids=["n", "minimizer", "both"],
    )
    def test_boolean_integer_fields(self, tmp_path, fields):
        inst = write(tmp_path, "t.json", {"p": [["0.5"]]})
        cert_obj = {"kind": "set", "n": 1, "c": "1", "a": [["-1"]], "gap": "1/2", "minimizer": [0]}
        cert = write(tmp_path, "cert.json", {**cert_obj, **fields})
        code, report = run(tmp_path, "verify-cert", inst, cert)
        assert code == 2
        assert report["status"] == "invalid"


class TestSetCertificateEntries:
    # the disjointness certificate of DISJOINT, golden cert-set.json
    CERT = {"kind": "set", "n": 3, "c": "1", "gap": "0.5", "minimizer": [0]}

    def test_mirrored_spellings_verify(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        a = [["-1", "1", "1"], ["1.0", "-1", "1/1"], ["1", "1", "-1.0"]]
        cert = write(tmp_path, "cert.json", {**self.CERT, "a": a})
        code, report = run(tmp_path, "verify-cert", inst, cert)
        assert code == 0
        assert report["payload"]["valid"] is True

    def test_repeated_unparsable_entry_named_first(self, tmp_path):
        inst = write(tmp_path, "t.json", DISJOINT)
        a = [["-1", "1/0", "1"], ["1/0", "-1", "1"], ["1", "1", "-1"]]
        cert = write(tmp_path, "cert.json", {**self.CERT, "a": a})
        code, report = run(tmp_path, "verify-cert", inst, cert)
        assert code == 2
        assert report["payload"]["error"] == "/a/0/1: cannot parse '1/0' as a rational"

    def test_asymmetric_matrix_is_a_verdict(self, tmp_path):
        # an asymmetric a parses; it is an invalid certificate (1), not invalid input (2)
        inst = write(tmp_path, "t.json", DISJOINT)
        a = [["-1", "1", "1"], ["1", "-1", "1/2"], ["1", "1", "-1"]]
        cert = write(tmp_path, "cert.json", {**self.CERT, "a": a})
        code, report = run(tmp_path, "verify-cert", inst, cert)
        assert code == 1
        assert report["payload"] == {
            "kind": "set", "valid": False, "reason": "coefficient matrix not symmetric at (1,2)"
        }


class TestContactScreenCap:
    """Past HIT_PATTERN_LIMIT reachable hit patterns the exhaustive screen
    stops: without --trials and --seed that is a size cap (exit 3)."""

    INSTANCE = {
        "system": {
            "centers": [[str(10 * k)] for k in range(4)],
            "radii": ["1"] * 4,
            "coefficients": ["1"] * 4,
        },
        "taus": [{"point": [str(10 * k)], "cdf": {"jumps": [["1", "1/2"]]}} for k in range(4)],
        "probe_points": [[str(10 * k)] for k in range(4)],
    }

    @pytest.fixture(autouse=True)
    def low_limit(self, monkeypatch):
        # four probes, one per ball, reach 2^4 = 16 hit patterns
        monkeypatch.setattr(contact, "HIT_PATTERN_LIMIT", 8)

    def test_cap_without_trials_is_indeterminate(self, tmp_path):
        inst = write(tmp_path, "screen.json", self.INSTANCE)
        code, report = run(tmp_path, "contact", "screen", inst)
        assert code == 3
        assert report["status"] == "indeterminate"
        assert "hit patterns" in report["payload"]["error"]

    def test_trials_and_seed_sample(self, tmp_path):
        inst = write(tmp_path, "screen.json", self.INSTANCE)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            argv = ["contact", "screen", inst, "--trials", "50", "--seed", "7", "--out", str(out)]
            assert main(argv) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["payload"]["method"] == "sampled"


class TestRealizePP:
    INSTANCE = {
        "n": 2,
        "rho": [[0, 1, "1"]],
        "rho1": None,
        "cap": 2,
        "simple": True,
        "hardcore_eps": None,
    }
    # diagonal mass on a simple target: infeasible at any n, with no LP
    DIAGONAL = {"rho": [[0, 0, "1"]], "cap": 2, "simple": True}

    def test_feasible_with_objective(self, tmp_path):
        inst = write(tmp_path, "pp.json", self.INSTANCE)
        code, report = run(tmp_path, "realize-pp", inst, "--objective", "card2")
        assert code == 0
        assert report["payload"]["objective_value"] == "4"

    def test_chi_hc_objective(self, tmp_path):
        instance = dict(self.INSTANCE)
        instance["space"] = {"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
        inst = write(tmp_path, "pp.json", instance)
        psi = write(tmp_path, "psi.json", {"steps": [["0", "2"], ["1", "1"]]})
        code, report = run(tmp_path, "realize-pp", inst, "--objective", "chi-hc", "--psi", psi)
        assert code == 0
        assert report["payload"]["objective_value"] == "2"

    def test_chi_hc_value_past_the_float_range(self, tmp_path):
        # psi(1) = 10^400 at both atoms of pp-objective.json, each counted in
        # both orders: 2 (1/2 + 1/4) 10^400, summed exactly
        psi = write(tmp_path, "psi.json", {"steps": [["0", "inf"], ["1/2", "1e400"]]})
        inst = str(INSTANCES / "pp-objective.json")
        code, report = run(tmp_path, "realize-pp", inst, "--objective", "chi-hc", "--psi", psi)
        assert code == 0
        payload = report["payload"]
        assert payload["objective_value"] == payload["dual_value"] == str(15 * 10**399)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("rho1", 0), "1e400", "/rho1/0 is above the largest float"),
            (("rho1", 2), "1e400", "/rho1/2 is above the largest float"),
            (("rho", 0, 2), "1e400", "/rho/0/2 is above the largest float"),
            (("rho", 1, 2), "1e400", "/rho/1/2 is above the largest float"),
            # multiplicities up to 10^400 on three points: the search cap comes first
            (("cap",), 10**400, "/cap: multiplicities up to the cap on 3 points allow more "
             "than 2000000 configurations"),
        ],
        ids=["rho1", "rho1-last", "rho", "rho-second", "cap"],
    )
    def test_value_past_the_float_range_is_a_cap(self, tmp_path, path, value, message):
        instance = json.loads((INSTANCES / "pp-objective.json").read_text())
        *parents, last = path
        entry = instance
        for key in parents:
            entry = entry[key]
        entry[last] = value
        code, report = run(tmp_path, "realize-pp", write(tmp_path, "pp.json", instance))
        assert code == 3
        assert report["status"] == "indeterminate"
        assert report["payload"]["error"] == message

    def test_cap_past_the_float_range_on_a_simple_target(self, tmp_path):
        # one multiplicity per point, so only the float range bounds the cap
        instance = json.loads((INSTANCES / "pp-objective.json").read_text())
        instance.update(simple=True, cap=10**400)
        code, report = run(tmp_path, "realize-pp", write(tmp_path, "pp.json", instance))
        assert code == 3
        assert report["payload"]["error"] == (
            "/cap: the pair count cap (cap - 1) is above the largest float"
        )

    def test_point_cap(self, tmp_path):
        # DIAGONAL needs no LP, so the cap is all that tells the sizes apart
        top = pp.MAX_POINTS
        for n, expected in [(top, 1), (top + 1, 3)]:
            inst = write(tmp_path, "pp.json", {**self.DIAGONAL, "n": n})
            code, report = run(tmp_path, "realize-pp", inst)
            assert code == expected
        assert report["payload"]["error"] == f"/n: {top + 1} points above the point cap {top}"

    def test_point_cap_of_a_space(self, tmp_path):
        n = pp.MAX_POINTS + 1
        dist = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
        space = {"labels": list(range(n)), "dist": dist}
        inst = write(tmp_path, "pp.json", {**self.DIAGONAL, "space": space})
        code, report = run(tmp_path, "realize-pp", inst)
        assert code == 3
        assert report["payload"]["error"] == f"/space/labels: {n} points above the point cap {n - 1}"

    def test_huge_carrier_is_a_cap_within_bounded_memory(self, tmp_path):
        # 5 * 10^9 pairs: without the cap the process runs out of its
        # address space (exit 4) or, unlimited, of the host's memory; every
        # command that reads a pp target stops at the cap
        inst = write(tmp_path, "pp.json", {**self.DIAGONAL, "n": 100000})
        cert = str(INSTANCES / "cert-pp.json")
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from realkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = str(tmp_path / "report.json")
        for argv in (
            ["realize-pp", inst],
            ["screen-pp", inst, "--trials", "5", "--seed", "1"],
            ["verify-cert", inst, cert],
        ):
            proc = subprocess.run(
                [sys.executable, "-c", probe, *argv, "--out", out],
                capture_output=True, text=True, env=_child_env(), timeout=120,
            )
            assert proc.returncode == 3, (argv[0], proc.stderr)
            assert "/n: 100000 points above the point cap" in proc.stderr, argv[0]

    def test_screen_stays_exact_past_the_float_range(self, tmp_path):
        instance = json.loads((INSTANCES / "pp-objective.json").read_text())
        instance["rho1"][0] = "1e400"
        inst = write(tmp_path, "pp.json", instance)
        code, _ = run(tmp_path, "screen-pp", inst, "--trials", "5", "--seed", "1")
        assert code == 0

    def test_infeasible_diagonal(self, tmp_path):
        inst = write(
            tmp_path,
            "pp.json",
            {"n": 2, "rho": [[0, 0, "1"]], "cap": 2, "simple": True},
        )
        code, report = run(tmp_path, "realize-pp", inst)
        assert code == 1
        assert report["payload"]["certificate"]["kind"] == "pp"

    def test_pp_certificate_round_trip(self, tmp_path):
        inst = write(
            tmp_path,
            "pp.json",
            {"n": 3, "rho": [], "rho1": ["0.5", "0.5", "0.5"], "cap": 3, "simple": True},
        )
        code, report = run(tmp_path, "realize-pp", inst)
        assert code == 1
        cert = write(tmp_path, "cert.json", report["payload"]["certificate"])
        code2, report2 = run(tmp_path, "verify-cert", inst, cert)
        assert code2 == 0 and report2["payload"]["valid"] is True


class TestScreenPP:
    def test_pass(self, tmp_path):
        inst = write(
            tmp_path,
            "pp.json",
            {"n": 2, "rho": [[0, 1, "1"]], "cap": 2, "simple": True},
        )
        code, report = run(tmp_path, "screen-pp", inst, "--trials", "100", "--seed", "7")
        assert code == 0 and report["payload"]["violations"] == []

    def test_fail_on_diagonal_atom(self, tmp_path):
        inst = write(
            tmp_path,
            "pp.json",
            {"n": 2, "rho": [[0, 0, "1"]], "cap": 2, "simple": True},
        )
        code, report = run(tmp_path, "screen-pp", inst, "--trials", "200", "--seed", "7")
        assert code == 1 and report["payload"]["violations"]


class TestRegularityCli:
    def test_chi_pass(self, tmp_path):
        inst = write(tmp_path, "m.json", {"space": EQ3, "rho": [[0, 1, "2"]]})
        psi = write(tmp_path, "psi.json", {"steps": [["0", "4"], ["1", "0.25"]]})
        code, report = run(
            tmp_path, "regularity", inst, "--check", "chi", "--psi", psi, "--r", "1"
        )
        assert code == 0
        assert report["payload"]["value"] == "0.5"

    def test_packing_fail(self, tmp_path):
        inst = write(tmp_path, "m.json", {"space": EQ3, "rho": [[0, 1, "2"]]})
        code, report = run(tmp_path, "regularity", inst, "--check", "packing", "--r", "1")
        assert code == 1  # value 2 exceeds the bound 1

    def test_psi_profile(self, tmp_path):
        inst = write(tmp_path, "m.json", {"space": EQ3})
        psi = write(tmp_path, "psi.json", {"steps": [["0", "inf"], ["2", "1"]]})
        code, report = run(
            tmp_path, "regularity", inst, "--check", "psi", "--psi", psi, "--r", "5"
        )
        assert code == 0
        assert report["payload"]["ratio_at_smallest_distance"] == "inf"

    def test_shells(self, tmp_path):
        inst = write(
            tmp_path,
            "m.json",
            {"d": 1, "atoms": [[["0"], ["0.5"], "1"]], "radii": ["1", "2"]},
        )
        beta = write(tmp_path, "beta.json", {"beta": ["1"]})
        code, report = run(
            tmp_path, "regularity", inst, "--check", "shells", "--beta", beta, "--r", "0"
        )
        assert code == 0
        assert report["payload"]["series"] == ["0", "0"]

    def test_reduced_infinite_fails(self, tmp_path):
        inst = write(
            tmp_path,
            "m.json",
            {"d": 1, "atoms": [[["0"], "1"]], "ball_radius": "1"},
        )
        code, report = run(tmp_path, "regularity", inst, "--check", "reduced", "--r", "10")
        assert code == 1
        assert report["payload"]["origin_atom"] is True

    @pytest.mark.parametrize("weight", ["1e-400", "1e400"])
    def test_infinity_beside_a_weight_past_the_float_range(self, tmp_path, weight):
        # w * inf converts w to a float: nan below the smallest, OverflowError above the largest
        rho = [[0, 1, "1e400"], [0, 0, weight], [1, 1, "1"]]
        inst = write(tmp_path, "m.json", {"space": EQ3, "rho": rho})
        psi = write(tmp_path, "psi.json", {"steps": [["0", "inf"], ["1", "1"]]})
        code, report = run(tmp_path, "regularity", inst, "--check", "chi", "--psi", psi)
        assert (code, report["payload"]["value"]) == (1, "inf")
        atoms = [[["1/2"], "1e400"], [["0"], weight], [["0"], "1"]]
        inst = write(tmp_path, "r.json", {"d": 1, "atoms": atoms, "ball_radius": "1"})
        code, report = run(tmp_path, "regularity", inst, "--check", "reduced", "--r", "1")
        assert (code, report["payload"]["value"]) == (1, ["inf", "inf"])


class TestContactCli:
    def test_check_violation(self, tmp_path):
        t1 = write(tmp_path, "t1.json", {"jumps": [["1", "1"]]})
        t2 = write(tmp_path, "t2.json", {"jumps": [["3", "1"]]})
        code, report = run(
            tmp_path, "contact", "check", "--tau1", t1, "--tau2", t2, "--l", "1"
        )
        assert code == 1
        assert report["payload"]["violation_at"] == "2"
        assert report["payload"]["side"] == "lower"

    def test_check_accept(self, tmp_path):
        t1 = write(tmp_path, "t1.json", {"jumps": [["1", "1"]]})
        t2 = write(tmp_path, "t2.json", {"jumps": [["1.5", "1"]]})
        code, report = run(
            tmp_path, "contact", "check", "--tau1", t1, "--tau2", t2, "--l", "1"
        )
        assert code == 0

    def test_single_tau_always_ok(self, tmp_path):
        t1 = write(tmp_path, "t1.json", {"jumps": [["1", "0.5"], ["2", "0.9"]]})
        code, report = run(tmp_path, "contact", "check", "--tau1", t1)
        assert code == 0

    def test_screen(self, tmp_path):
        inst = write(
            tmp_path,
            "screen.json",
            {
                "system": {
                    "centers": [["0"], ["0"]],
                    "radii": ["2", "1"],
                    "coefficients": ["1", "-1"],
                },
                "taus": [
                    {"point": ["0"], "cdf": {"jumps": [["1", "0.4"], ["2", "1"]]}}
                ],
                "probe_points": [["0"], ["0.5"], ["1.5"], ["3"]],
            },
        )
        code, report = run(tmp_path, "contact", "screen", inst)
        assert code == 0
        assert report["payload"]["label"] == "screen"
        assert report["payload"]["tau_sum"] == "0.6"

    def test_simulate_deterministic(self, tmp_path):
        t1 = write(tmp_path, "t1.json", {"jumps": [["1", "1"]]})
        t2 = write(tmp_path, "t2.json", {"jumps": [["1.5", "1"]]})
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = [
            "contact", "simulate", "--tau1", t1, "--tau2", t2,
            "--x1", "0,0", "--x2", "1,0", "--samples", "2000", "--seed", "7",
        ]
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_radius_past_float_range_is_a_cap(self, tmp_path):
        # the exact sandwich test passes; only the float report cannot hold 1e400
        tau = write(tmp_path, "tau.json", {"jumps": [["1", "1/2"], ["1e400", "1"]]})
        code, report = run(
            tmp_path, "contact", "simulate", "--tau1", tau, "--tau2", tau,
            "--x1", "0", "--x2", "1", "--samples", "10", "--seed", "1",
        )
        assert code == 3
        assert report["status"] == "indeterminate"
        assert report["payload"]["error"].startswith("tau1 /jumps/1/0:")

    def test_simulate_cap_names_the_given_entry(self, tmp_path):
        # the flat jump at index 1 is dropped from the cdf; the message still
        # names the entry as written in the file
        tau = write(tmp_path, "tau.json", {"jumps": [["1", "1/2"], ["2", "1/2"], ["1e400", "1"]]})
        code, report = run(
            tmp_path, "contact", "simulate", "--tau1", tau, "--tau2", tau,
            "--x1", "0", "--x2", "1", "--samples", "10", "--seed", "1",
        )
        assert code == 3
        assert report["payload"]["error"].startswith("tau1 /jumps/2/0:")
        # the exact checks take the same radius as it is
        code, report = run(tmp_path, "contact", "check", "--tau1", tau, "--tau2", tau, "--l", "1")
        assert code == 0


class TestSample:
    def test_draws_from_report(self, tmp_path):
        inst = write(tmp_path, "t.json", PRODUCT5)
        code, report = run(tmp_path, "realize-set", inst)
        src = write(tmp_path, "rep.json", report)
        out1 = tmp_path / "s1.json"
        out2 = tmp_path / "s2.json"
        assert main(["sample", src, "--n", "20", "--seed", "3", "--out", str(out1)]) == 0
        assert main(["sample", src, "--n", "20", "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        draws = json.loads(out1.read_text())["payload"]["draws"]
        assert len(draws) == 20

    @pytest.mark.parametrize("huge, tiny", [("1e400", "1"), ("1", "1e-400")])
    def test_weights_are_normalised_exactly(self, tmp_path, huge, tiny):
        # as floats, 1e400 overflows and 1e-400 rounds to 0
        mixture = {"mixture": [{"subset": [0], "weight": huge}, {"subset": [1], "weight": tiny}]}
        src = write(tmp_path, "mix.json", mixture)
        code, report = run(tmp_path, "sample", src, "--n", "50", "--seed", "1")
        assert code == 0
        assert report["payload"]["draws"] == [[0]] * 50

    def test_tiny_weight_alone_is_drawn(self, tmp_path):
        src = write(tmp_path, "mix.json", {"mixture": [{"subset": [2], "weight": "1e-400"}]})
        code, report = run(tmp_path, "sample", src, "--n", "3", "--seed", "1")
        assert code == 0
        assert report["payload"]["draws"] == [[2]] * 3


class TestCountCaps:
    """A draw count past its cap exits 3 before anything is allocated."""

    SIMULATE = [
        "contact", "simulate", "--tau1", str(INSTANCES / "tau1.json"),
        "--tau2", str(INSTANCES / "tau2.json"), "--x1", "0,0", "--x2", "1,0", "--seed", "7",
    ]
    SAMPLE = ["sample", str(INSTANCES / "sample-source.json"), "--seed", "3"]

    def test_one_past_each_cap(self, tmp_path):
        for argv, flag, cap in (
            (self.SIMULATE, "--samples", cli.MAX_SAMPLES),
            (self.SAMPLE, "--n", cli.MAX_DRAWS),
        ):
            code, report = run(tmp_path, *argv, flag, str(cap + 1))
            assert code == 3
            assert report["payload"]["error"] == f"{flag} {cap + 1} above the draw cap {cap}"

    def test_screen_pp_trials_past_the_cap(self, tmp_path, monkeypatch):
        # 10^9 trials had not finished after 10 s; none is drawn past the cap
        def never(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(cli, "positivity_screen", never)
        inst = str(INSTANCES / "pp-feasible.json")
        for trials in (cli.MAX_TRIALS + 1, 10**9):
            code, report = run(tmp_path, "screen-pp", inst, "--trials", str(trials), "--seed", "3")
            assert code == 3
            assert report["payload"]["error"] == (
                f"--trials {trials} above the trial cap {cli.MAX_TRIALS}"
            )

    def test_huge_count_is_a_cap_within_bounded_memory(self, tmp_path):
        # 10^10 uniforms are 75 GiB: without the cap numpy runs out of the
        # address space and the command exits 4
        probe = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from realkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        out = str(tmp_path / "report.json")
        for argv, flag in ((self.SIMULATE, "--samples"), (self.SAMPLE, "--n")):
            proc = subprocess.run(
                [sys.executable, "-c", probe, *argv, flag, str(10**10), "--out", out],
                capture_output=True, text=True, env=_child_env(), timeout=120,
            )
            assert proc.returncode == 3, (flag, proc.stderr)
            assert f"{flag} 10000000000 above the draw cap" in proc.stderr


class TestMalformedInput:
    """Malformed fields are invalid input (exit 2), not internal errors."""

    def assert_invalid(self, tmp_path, *argv):
        code, report = run(tmp_path, *argv)
        assert code == 2
        assert report["status"] == "invalid"
        return report["payload"]["error"]

    def test_pp_cap_not_an_integer(self, tmp_path):
        inst = write(tmp_path, "pp.json", {**TestRealizePP.INSTANCE, "cap": "abc"})
        assert "/cap" in self.assert_invalid(tmp_path, "realize-pp", inst)

    def test_pp_atom_index_not_an_integer(self, tmp_path):
        inst = write(tmp_path, "pp.json", {**TestRealizePP.INSTANCE, "rho": [["a", 0, "1/2"]]})
        assert "/rho/0" in self.assert_invalid(tmp_path, "realize-pp", inst)

    @pytest.mark.parametrize("flag", ["simple", "hardcore_strict"])
    def test_pp_flag_not_a_boolean(self, tmp_path, flag):
        # a string "false" is truthy: it must not switch the flag on
        inst = write(tmp_path, "pp.json", {**TestRealizePP.INSTANCE, flag: "false"})
        assert f"/{flag}" in self.assert_invalid(tmp_path, "realize-pp", inst)

    def test_sample_negative_weight(self, tmp_path):
        mixture = {"mixture": [{"subset": [0], "weight": "-1/2"}, {"subset": [], "weight": "3/2"}]}
        src = write(tmp_path, "mix.json", mixture)
        self.assert_invalid(tmp_path, "sample", src, "--n", "5", "--seed", "1")

    def test_sample_atom_without_weight(self, tmp_path):
        src = write(tmp_path, "mix.json", {"mixture": [{"subset": [0]}]})
        error = self.assert_invalid(tmp_path, "sample", src, "--n", "5", "--seed", "1")
        assert "'weight'" in error

    def test_reduced_dimension_not_an_integer(self, tmp_path):
        inst = write(tmp_path, "m.json", {"d": "x", "atoms": [[["1"], "1"]], "ball_radius": "2"})
        error = self.assert_invalid(tmp_path, "regularity", inst, "--check", "reduced")
        assert "/d" in error

    @pytest.mark.parametrize(
        "d, point, where",
        [(0, ["1"], "/d"), (-1, ["1"], "/d"), (2, ["1", "0", "0"], "/atoms/0/0")],
        ids=["d-zero", "d-negative", "three-coordinates-in-the-plane"],
    )
    def test_reduced_dimension_and_point(self, tmp_path, d, point, where):
        inst = write(tmp_path, "m.json", {"d": d, "atoms": [[point, "1"]], "ball_radius": "2"})
        error = self.assert_invalid(tmp_path, "regularity", inst, "--check", "reduced")
        assert error.startswith(f"{where}: ")

    def test_shells_point_of_the_wrong_dimension(self, tmp_path):
        atoms = [[["0"], ["1", "1"], "1"]]
        inst = write(tmp_path, "m.json", {"d": 1, "atoms": atoms, "radii": ["1"]})
        beta = write(tmp_path, "beta.json", {"beta": []})
        error = self.assert_invalid(
            tmp_path, "regularity", inst, "--check", "shells", "--beta", beta
        )
        assert error == "/atoms/0/1: expected a list of 1 entries, got 2"

    def test_sample_atom_without_an_outcome(self, tmp_path):
        # an atom without an outcome is invalid, never drawn as null
        src = write(tmp_path, "mix.json", {"mixture": [{"weight": "1"}]})
        error = self.assert_invalid(tmp_path, "sample", src, "--n", "2", "--seed", "1")
        assert error == "/mixture/0: expected key 'subset' or 'multiplicity'"

    def test_sample_outcome_not_a_list(self, tmp_path):
        src = write(tmp_path, "mix.json", {"mixture": [{"multiplicity": 3, "weight": "1"}]})
        error = self.assert_invalid(tmp_path, "sample", src, "--n", "2", "--seed", "1")
        assert error.startswith("/mixture/0/multiplicity: ")

    def test_shells_atom_of_two_entries(self, tmp_path):
        inst = write(tmp_path, "m.json", {"d": 1, "atoms": [[["0"], "1"]], "radii": ["1", "2"]})
        beta = write(tmp_path, "beta.json", {"beta": ["1"]})
        error = self.assert_invalid(
            tmp_path, "regularity", inst, "--check", "shells", "--beta", beta
        )
        assert "/atoms/0" in error

    def test_instance_not_utf8(self, tmp_path):
        inst = tmp_path / "space.json"
        inst.write_bytes(b"\xff\xfe{}")
        assert "UTF-8" in self.assert_invalid(tmp_path, "packing", str(inst), "--t", "1")

    def test_instance_is_a_directory(self, tmp_path):
        self.assert_invalid(tmp_path, "packing", str(tmp_path), "--t", "1")

    CONTACT = {
        "system": {"centers": [["0"]], "radii": ["1"], "coefficients": ["1"]},
        "probe_points": [["0"]],
    }

    def test_contact_tau_without_point(self, tmp_path):
        taus = [{"cdf": {"jumps": [["1", "1"]]}}]
        inst = write(tmp_path, "screen.json", {**self.CONTACT, "taus": taus})
        assert "/taus/0" in self.assert_invalid(tmp_path, "contact", "screen", inst)

    @pytest.mark.parametrize("first, second", [("0", "0"), ("0", "0.0"), ("0.0", "0")])
    def test_contact_repeated_reference_point(self, tmp_path, first, second):
        # a later cdf at the same point would replace the earlier one, so the
        # order of the file would decide the verdict
        taus = [{"point": [first], "cdf": {"jumps": [["1", "0.4"], ["2", "1"]]}},
                {"point": [second], "cdf": {"jumps": [["1", "1"]]}}]
        inst = write(tmp_path, "screen.json", {**self.CONTACT, "taus": taus})
        error = self.assert_invalid(tmp_path, "contact", "screen", inst)
        assert error.startswith("/taus/1/point: ")

    def test_contact_taus_not_a_list(self, tmp_path):
        inst = write(tmp_path, "screen.json", {**self.CONTACT, "taus": {"point": ["0"]}})
        assert "/taus" in self.assert_invalid(tmp_path, "contact", "screen", inst)

    SAMPLE = ["sample", "--n", "1", "--seed", "1"]

    @pytest.mark.parametrize(
        "command, document",
        [
            (SAMPLE, []),
            (SAMPLE, 5),
            (SAMPLE, {"payload": 5}),
            (["realize-set"], {"p": 5}),
            (["realize-set"], {"p": [5]}),
            (["regularity", "--check", "chi", "--psi", "psi.json"], 5),
            (["regularity", "--check", "packing"], 5),
            (["regularity", "--check", "reduced"], 5),
            (["regularity", "--check", "shells", "--beta", "beta.json"], 5),
            (["regularity", "--check", "psi", "--psi", "psi.json"], []),
        ],
        ids=[
            "sample-list", "sample-number", "sample-payload-number", "set-p-number",
            "set-row-number", "chi", "packing", "reduced", "shells", "psi-list",
        ],
    )
    def test_document_of_the_wrong_type(self, tmp_path, command, document):
        write(tmp_path, "psi.json", {"steps": [["0", "4"], ["1", "0.25"]]})
        write(tmp_path, "beta.json", {"beta": ["1"]})
        inst = write(tmp_path, "input.json", document)
        flags = [str(tmp_path / a) if a.endswith(".json") else a for a in command[1:]]
        self.assert_invalid(tmp_path, command[0], inst, *flags)

    def test_sample_negative_count(self, tmp_path):
        src = write(tmp_path, "mix.json", {"mixture": [{"subset": [0], "weight": "1"}]})
        error = self.assert_invalid(tmp_path, "sample", src, "--n", "-1", "--seed", "1")
        assert "--n" in error

    @pytest.mark.parametrize(
        "argv",
        [
            ["screen-pp", str(INSTANCES / "pp-feasible.json"), "--trials", "-5", "--seed", "3"],
            ["contact", "screen", str(INSTANCES / "contact-screen.json"), "--trials", "-3"],
        ],
        ids=["screen-pp", "contact-screen"],
    )
    def test_negative_trials(self, tmp_path, argv):
        assert self.assert_invalid(tmp_path, *argv) == "--trials must be a non-negative trial count"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_simulate_sample_count_not_positive(self, tmp_path, samples):
        tau = write(tmp_path, "tau.json", {"jumps": [["1", "1"]]})
        error = self.assert_invalid(
            tmp_path, "contact", "simulate", "--tau1", tau, "--tau2", tau,
            "--x1", "0", "--x2", "1", "--samples", samples, "--seed", "1",
        )
        assert "--samples" in error


class TestInternalError:
    def test_runtime_error_is_not_a_verdict(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("simulated fault")

        monkeypatch.setattr(cli, "realize_subsets", broken)
        inst = write(tmp_path, "t.json", PRODUCT5)
        code, report = run(tmp_path, "realize-set", inst)
        assert code == cli.EXIT_ERROR == 4
        assert report["status"] == "error"
        assert report["command"] == "realize-set"
        assert "simulated fault" in report["payload"]["error"]

    def test_options_highs_rejects(self, tmp_path, monkeypatch):
        from realkit import lp

        options = lp._highs_core().HighsOptions()
        options.output_flag = options.log_to_console = False
        options.simplex_strategy = 99  # past HiGHS's range
        monkeypatch.setattr(lp, "_highs_options", lambda: options)
        inst = write(tmp_path, "t.json", PRODUCT5)
        code, report = run(tmp_path, "realize-set", inst)
        assert code == cli.EXIT_ERROR == 4
        assert "HiGHS rejected the options" in report["payload"]["error"]


class TestImportBoundary:
    """The HiGHS binding loads with the first float LP, by itself: a command
    that solves none never loads it, and none imports `scipy.optimize`.
    Each case runs in a fresh interpreter."""

    PROBE = (
        "import contextlib, io, sys\n"
        "from realkit import lp\n"
        "from realkit.cli import main\n"
        "{patch}"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "binding = 'scipy.optimize._highspy._core' in sys.modules\n"
        "print(code, binding, 'scipy.optimize' in sys.modules, 'scipy' in sys.modules)\n"
    )

    def probe(self, tmp_path, case, patch=""):
        argv, _ = CASES[case]
        out = tmp_path / "report.json"
        argv = [str(INSTANCES / a) if a.endswith(".json") else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE.format(patch=patch), *argv, "--out", str(out)],
            capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
        )
        return proc.stdout.split(), out

    @pytest.mark.parametrize(
        "case, loads_binding",
        [
            ("verify-cert-set", False),
            ("verify-cert-pp", False),
            ("packing", False),
            ("gamma", False),
            ("screen-pp-pass", False),
            ("sample", False),
            ("contact-check-pass", False),
            ("regularity-chi", False),
            # the cases that solve a float LP, by HiGHS
            ("realize-set-feasible", True),
            ("realize-pp-feasible", True),
        ],
    )
    def test_scipy_only_with_a_float_lp(self, tmp_path, case, loads_binding):
        (code, binding, optimize, scipy), out = self.probe(tmp_path, case)
        assert [code, binding, optimize] == [str(CASES[case][1]), str(loads_binding), "False"]
        if loads_binding:
            # the binding loaded by itself still gives HiGHS's golden report
            assert out.read_bytes() == (REPORTS / f"{case}.json").read_bytes()
        else:
            assert scipy == "False"

    def test_plain_import_without_the_binding_file(self, tmp_path):
        # a scipy whose layout lacks the file gets `scipy.optimize`'s own import
        patch = "lp._HIGHS_DIR = ('no-such-dir',)\n"
        printed, out = self.probe(tmp_path, "realize-set-feasible", patch)
        assert printed == ["0", "True", "True", "True"]
        assert out.read_bytes() == (REPORTS / "realize-set-feasible.json").read_bytes()
