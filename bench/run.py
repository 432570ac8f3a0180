"""realkit benchmark: seeded CLI workloads, exact report checks, layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload set-realize --seed 1 --seconds 27 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 27 --trace 0

The program is imported from `src/` of the checkout and driven in process
through `realkit.cli.main([...])` with `--out`, one request in flight
(a closed loop with one client). Instances are generated from `--seed`
into `.bench_build/realkit-bench/`; the program only sees those files.

`--trace 0` measures with nothing wrapped and reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of `layertrace`. Every report is checked by `checks`
after the timed loop. The last line of stdout is the result object
`{"correct", "attempted", "failed", "metrics"}`; the line before it is the
full record (environment, counts, tail percentile, failures), which is
also written to `.bench_build/realkit-bench/results/`.
"""

import time

SETUP_START = time.perf_counter()  # set-up is timed from before numpy, scipy and realkit load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from math import floor  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # must precede the first numpy import

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "realkit-bench"
SETUP_PROBES = 2  # set-ups in fresh processes besides the measuring process's own
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken sizes, for self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir: Path):
    """Import realkit, generate the instances and finish one warm-up call.

    Returns (seconds since the process started timing, workload, cli module,
    warm-up failure reason or None).
    """
    sys.path.insert(0, str(SRC))
    from realkit import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"realkit was imported from {cli.__file__}, not from {SRC}")
    wl = workloads.build(args.workload, args.seed, workdir / "instances", tiny=args.tiny)
    warm = run_pass(cli, [wl.warmup], workdir)
    failure = outcome_failure(wl.warmup, warm.outcomes[0])
    return time.perf_counter() - SETUP_START, wl, cli, failure


def outcome_failure(request, outcome):
    """Why one executed request failed, or None."""
    code, err, report_bytes = outcome
    return f"raised {err}" if err is not None else verdict(request, code, report_bytes)


def verdict(request, code, report_bytes):
    """None when the exit code and the report are what the generator
    expects, else the reason."""
    if code != request.expect_exit:
        return f"exit code {code}, expected {request.expect_exit}"
    if report_bytes is None:
        return "no report written"
    try:
        request.check(json.loads(report_bytes))
    except checks.CheckFailed as exc:
        return str(exc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {exc!r}"
    return None


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes doing exactly what this one did."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Pass(NamedTuple):
    """One timed pass over the workload's requests."""

    seconds: float
    latencies: list[float]
    outcomes: list[tuple]  # (exit code or None, exception text or None, report bytes or None)


def run_pass(cli, requests, outdir: Path, tracer=None, tag: str = "") -> Pass:
    outs = [str(outdir / f"{k}.json") for k in range(len(requests))]
    argvs = [[*req.argv, "--out", out] for req, out in zip(requests, outs)]
    latencies, results = [], []
    clock = time.perf_counter
    start = clock()
    for k, argv in enumerate(argvs):
        if tracer is not None:
            tracer.request = f"{tag}{k}"
        t0 = clock()
        try:
            code, err = cli.main(argv), None
        except (Exception, SystemExit) as exc:
            code, err = None, repr(exc)
        latencies.append(clock() - t0)
        results.append((code, err))
    seconds = clock() - start
    outcomes = []
    for (code, err), out in zip(results, outs):
        path = Path(out)
        data = path.read_bytes() if path.exists() else None
        if data is not None:
            path.unlink()
        outcomes.append((code, err, data))
    return Pass(seconds, latencies, outcomes)


def measure(cli, wl, workdir: Path, seconds: float, traced: bool):
    """Whole passes while at least half a typical pass fits before
    `seconds` (at least one pass), so the run measures about `seconds` on
    average whatever the pass length. Traced runs alternate an untraced
    and a traced pass."""
    outdir = workdir / "reports"
    outdir.mkdir(parents=True, exist_ok=True)
    plain, with_trace = [], []
    tracer = layertrace.Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(cli, wl.requests, outdir))
        if traced:
            with tracer:
                with_trace.append(run_pass(cli, wl.requests, outdir, tracer, f"{len(with_trace)}:"))
        typical = statistics.median(p.seconds for p in plain)
        if traced:
            typical += statistics.median(p.seconds for p in with_trace)
        if time.perf_counter() + typical / 2 > deadline:
            return plain, with_trace, tracer


def judge(wl, passes) -> tuple[int, int, list[str]]:
    """Check every executed request; identical report bytes are judged once."""
    attempted = failed = 0
    reasons: list[str] = []
    cache: dict[tuple, str | None] = {}
    for p in passes:
        for k, outcome in enumerate(p.outcomes):
            request = wl.requests[k]
            attempted += 1
            if (k, outcome) not in cache:
                cache[k, outcome] = outcome_failure(request, outcome)
            reason = cache[k, outcome]
            if reason is not None:
                failed += 1
                reasons.append(f"{request.label}: {reason}")
    return attempted, failed, reasons


def _rank(q: float, n: int) -> int:
    """1-based rank of percentile q among n sorted samples: the first sample
    with more than q percent of the samples at or below it."""
    return min(floor(q / 100 * n) + 1, n)


def request_latencies(passes) -> list[float]:
    """Each request's latency, averaged over the passes of the run. The
    mean over passes spread through the run evens out the host's swings in
    speed better than any single sample or a median of few."""
    return [statistics.fmean(x) for x in zip(*(p.latencies for p in passes))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it, or
    the median when none qualifies (fewer than 41 samples)."""
    n = len(latencies)
    q = next((q for q in TAIL_LADDER if n - _rank(q, n) >= 10), 50.0)
    if q == 50.0:
        return q, statistics.median(latencies)
    return q, sorted(latencies)[_rank(q, n) - 1]


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core as highs

        highs_version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs_version = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": args.seed,
        "thread_pins": THREAD_PINS,
    }


def run_all(args) -> int:
    """Every workload in a fresh process, one after another; prints their
    metric lines and then one object holding every result."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({"claim": None, "workloads": results}))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "realkit" / "__init__.py").is_file():
        print(f"error: no realkit sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{'probe-' if args.setup_probe else ''}{os.getpid()}"
    try:
        setup_s, wl, cli, warmup_failure = set_up(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if warmup_failure is None else 1
        setups = [setup_s, *probe_setups(args)]
        plain, traced, tracer = measure(cli, wl, workdir, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, reasons = judge(wl, plain + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if warmup_failure is not None:
        attempted += 1
        failed += 1
        reasons.insert(0, f"warm-up: {warmup_failure}")

    batch_s = statistics.fmean(p.seconds for p in plain)
    latencies = request_latencies(plain)
    tail_q, tail_s = tail(latencies)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "claim": None,
        "environment": environment(args),
        "passes": len(plain),
        "requests_per_pass": len(wl.requests),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": reasons[:20],
        "setup_samples_s": setups,
        "pass_seconds": [p.seconds for p in plain],
        "request_mean_s": {req.label: x for req, x in zip(wl.requests, latencies)},
        "verdict_tail_percentile": tail_q,
        "verdict_samples": len(latencies),
    }
    if args.trace:
        traced_batch_s = statistics.fmean(p.seconds for p in traced)
        metrics = tracer.layer_metrics(len(traced), statistics.fmean(p.seconds for p in traced))
        metrics["trace_overhead"] = traced_batch_s / batch_s - 1
        record["traced_pass_seconds"] = [p.seconds for p in traced]
        units = {m["name"]: m["unit"] for m in layertrace.per_layer_spec()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "batch_s": batch_s,
            "verdict_p50_s": statistics.median(latencies),
            "verdict_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        (results / f"{tag}-spans.json").write_text(
            json.dumps({"spans": tracer.spans, "counts": tracer.counts}) + "\n", encoding="utf-8")

    for name, entry in record["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload} fail_ratio = {failed}/{attempted}")
    for reason in reasons[:5]:
        print(f"{args.workload} FAILED {reason}")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
