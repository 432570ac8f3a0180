"""Self-tests for the benchmark: run with `python3 -m pytest bench -q`.

They cover a tiny-size smoke pass of every workload in both modes, the
checks' ability to reject corrupted reports, the exhaustive oracle
against plain enumeration, and the refusal to run without the sources.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from realkit import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_pass(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_workloads_in_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("checkers", 9, tmp_path / "a", tiny=True)
    b = workloads.build("checkers", 9, tmp_path / "b", tiny=True)
    files_a = sorted((tmp_path / "a").iterdir())
    assert [f.name for f in files_a] == sorted(f.name for f in (tmp_path / "b").iterdir())
    assert all(f.read_bytes() == (tmp_path / "b" / f.name).read_bytes() for f in files_a)
    assert [r.expect_exit for r in a.requests] == [r.expect_exit for r in b.requests]


def _report(request, tmp_path: Path) -> tuple[int, dict]:
    out = tmp_path / "report.json"
    code = cli.main([*request.argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def _judge(request, code, report) -> str | None:
    return run.verdict(request, code, json.dumps(report).encode())


def test_checks_catch_a_mixture_weight_off_by_a_thousandth(tmp_path):
    wl = workloads.build("set-realize", 2, tmp_path / "in", tiny=True)
    request = next(r for r in wl.requests if r.label.startswith("set/feasible"))
    code, report = _report(request, tmp_path)
    assert _judge(request, code, report) is None
    atom = report["payload"]["mixture"][0]
    atom["weight"] = checks.fmt(Fraction(atom["weight"]) + Fraction(1, 1000))
    assert _judge(request, code, report) is not None


def test_checks_catch_a_float_mixture_weight(tmp_path):
    wl = workloads.build("set-realize", 2, tmp_path / "in", tiny=True)
    request = next(r for r in wl.requests if r.label.startswith("set/feasible"))
    code, report = _report(request, tmp_path)
    atom = report["payload"]["mixture"][0]
    atom["weight"] = float(Fraction(atom["weight"]))
    assert _judge(request, code, report) is not None


def test_checks_catch_a_pp_mixture_weight_off_by_a_thousandth(tmp_path):
    wl = workloads.build("pp-realize", 2, tmp_path / "in", tiny=True)
    request = next(r for r in wl.requests if r.label.endswith("/feasible"))
    code, report = _report(request, tmp_path)
    assert _judge(request, code, report) is None
    atom = report["payload"]["mixture"][-1]
    atom["weight"] = checks.fmt(Fraction(atom["weight"]) - Fraction(1, 1000))
    assert _judge(request, code, report) is not None


@pytest.mark.parametrize("workload", ["set-realize", "pp-realize"])
def test_checks_catch_a_certificate_with_c_lowered(tmp_path, workload):
    wl = workloads.build(workload, 2, tmp_path / "in", tiny=True)
    request = next(r for r in wl.requests if "infeasible" in r.label)
    code, report = _report(request, tmp_path)
    assert code == 1 and _judge(request, code, report) is None
    cert = report["payload"]["certificate"]
    cert["c"] = checks.fmt(Fraction(cert["c"]) - Fraction(1, 1000))
    assert "< 0" in _judge(request, code, report)


def test_checks_catch_a_wrong_exit_code(tmp_path):
    wl = workloads.build("cert-verify", 2, tmp_path / "in", tiny=True)
    request = next(r for r in wl.requests if r.expect_exit == 1)
    code, report = _report(request, tmp_path)
    assert _judge(request, code, report) is None
    assert _judge(request, 0, report) is not None


def test_subset_minimum_matches_plain_enumeration():
    rng = random.Random(3)
    for n in range(1, 8):
        for big in (False, True):
            scale = 2**70 + 1 if big else 8  # big denominators take the Python-int path
            a = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = Fraction(rng.randint(-scale, scale), scale)
            c = Fraction(rng.randint(-4, 4), 3)
            values = {
                mask: checks.subset_value(c, a, mask) for mask in range(1 << n)
            }
            low = min(values.values())
            lex_first = min(
                (mask for mask, v in values.items() if v == low),
                key=lambda m: [i for i in range(n) if (m >> i) & 1],
            )
            assert checks.subset_minimum(c, a, n) == (low, lex_first)


def test_admissible_configs_count():
    assert sum(1 for _ in checks.admissible_configs(7, 4, False)) == 330
    assert sum(1 for _ in checks.admissible_configs(6, 4, True)) == 57
    assert all(
        sum(m) <= 3 for m in checks.admissible_configs(4, 3, False)
    )
    assert len(set(itertools.islice(checks.admissible_configs(5, 2, False), 100))) == 21


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail([float(x) for x in range(19)]) == (50.0, 9.0)
    assert run.tail([float(x) for x in range(40)]) == (50.0, 19.5)
    assert run.tail([float(x) for x in range(41)]) == (75.0, 30.0)
    assert run.tail([float(x) for x in range(200)]) == (90.0, 180.0)
    assert run.tail([float(x) for x in range(2000)]) == (99.0, 1980.0)


def test_request_latency_is_the_mean_over_passes():
    passes = [run.Pass(3.0, [1.0, 2.0], []), run.Pass(5.0, [3.0, 2.0], [])]
    assert run.request_latencies(passes) == [2.0, 2.0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "checkers", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_labels_are_unique(tmp_path, workload):
    wl = workloads.build(workload, 4, tmp_path, tiny=True)
    labels = [r.label for r in wl.requests]
    assert len(set(labels)) == len(labels)


def test_all_workloads_from_one_command():
    proc = _bench("--workload", "all", "--seed", "6", "--seconds", "0.1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["claim"] is None
    assert list(summary["workloads"]) == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for metric in SPEC["end_to_end"]:
            assert any(line.startswith(f"{workload} {metric['name']} = ") and line.endswith(metric["unit"])
                       for line in lines)
