"""Every function in `src/realkit` is reached by a command, or listed here.

`cli.main` runs every golden case under cProfile. A function or method
defined in the package that never runs must be named in UNREACHED with the
reason it stays; a listed name that does run fails too, so the list shrinks
with the code.
"""

from __future__ import annotations

import ast
import cProfile
import pstats
from pathlib import Path

import realkit
from realkit import cli, lp
from test_golden import CASES, _run

PACKAGE = Path(realkit.__file__).resolve().parent

# "module.qualified.name" -> why it stays although no golden case runs it
GATE = "imported by the acceptance gate (tests/test_acceptance.py)"
FALLBACK = "the exact rounds of lp.column_generation, when HiGHS cannot confirm a master"
PROTOCOL = "a stub of the ColumnOracle protocol; the oracles implement it"
VALIDATE = "checks that a reported mixture is a probability law; the tests call it"
UNREACHED: dict[str, str] = {
    "contact.construct_two_point_set": (
        "the construction for one draw from unparsed points; contact simulate runs its "
        "body, _place_two_points, on points parsed once"
    ),
    **{f"lp.ColumnOracle.{name}": PROTOCOL for name in (
        "best", "certify", "column", "key", "matrix", "mixture", "name", "price",
    )},
    "lp.exact_simplex": f"{GATE}; {FALLBACK}",
    **{f"lp.exact_simplex.{name}": FALLBACK for name in ("extract_x", "pivot", "run_phase")},
    "metric.MetricReport.messages": "the error message of a distance matrix that is not a metric",
    "metric.close_pair_count": GATE,
    "metric.close_pair_envelope": GATE,
    "metric.make_space": GATE,
    "metric.spread_configuration": GATE,
    "numbers.validate_mixture": VALIDATE,
    "pp.ConfigMixture.validate": VALIDATE,
    "setrealize.SubsetMixture.validate": VALIDATE,
    "pp.pp_moments": GATE,
    "qubo.evaluate_g": GATE,
    "regularity.hardcore_split_check": GATE,
}


def _defined() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> "module.qualified.name" of
    every function and method in the package, nested ones included."""
    names = {}

    def visit(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                names[(path, first)] = name
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return names


def _reached(out: Path) -> set[tuple[str, int]]:
    """(file, first line) of every function called while the golden cases run."""
    # their bodies must run under the profile
    cli.build_parser.cache_clear()
    lp._highs_core.cache_clear()
    lp._highs_options.cache_clear()
    profile = cProfile.Profile()
    profile.enable()
    try:
        for case in CASES:
            _run(case, out)
    finally:
        profile.disable()
    return {(str(Path(f).resolve()), line) for f, line, _ in pstats.Stats(profile).stats}


def test_every_function_is_reached_or_listed(tmp_path):
    defined = _defined()
    reached = {defined[key] for key in _reached(tmp_path / "report.json") if key in defined}
    unreached = set(defined.values()) - reached
    assert sorted(unreached - set(UNREACHED)) == [], "neither reached nor listed"
    assert sorted(set(UNREACHED) & reached) == [], "listed but reached"
    assert sorted(set(UNREACHED) - set(defined.values())) == [], "listed but not defined"
