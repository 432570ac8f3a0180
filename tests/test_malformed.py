"""Malformed input never looks like a fault of the program.

Every golden instance is cut to the first three entries of each list, and
then every JSON node of it is replaced, one at a time, by each value in
`REPLACEMENTS`. Each mutant runs through `cli.main` once for every command
that reads the file (the first golden case of that command). A mutant may
end in a verdict, as invalid input (exit 2) or as indeterminate, but never
in an internal error: exit 4, or a report with status "error".
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest

from realkit.cli import EXIT_ERROR, main
from test_golden import CASES, INSTANCES

REPLACEMENTS = ["x", [], {}, None, True, 0.5, 5, [5], ["x"]]


def _truncated(doc):
    if isinstance(doc, list):
        return [_truncated(v) for v in doc[:3]]
    if isinstance(doc, dict):
        return {k: _truncated(v) for k, v in doc.items()}
    return doc


def _paths(doc, prefix=()):
    yield prefix
    items = enumerate(doc) if isinstance(doc, list) else doc.items() if isinstance(doc, dict) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def _replaced(doc, path, value):
    if not path:
        return copy.deepcopy(value)
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = copy.deepcopy(value)
    return doc


def _cases_reading(name: str) -> list[list[str]]:
    """The argv of the first golden case, per command, that reads `name`."""
    first: dict[str, list[str]] = {}
    for case in sorted(CASES):
        argv = CASES[case][0]
        if name in argv:
            first.setdefault(argv[0], argv)
    return list(first.values())


FILES = sorted(p.name for p in INSTANCES.glob("*.json"))


@pytest.mark.parametrize("name", FILES)
def test_no_mutant_is_an_internal_error(name, tmp_path):
    doc = _truncated(json.loads((INSTANCES / name).read_text()))
    mutant = tmp_path / name
    out = tmp_path / "report.json"
    faults = []
    for argv in _cases_reading(name):
        for path in _paths(doc):
            for value in REPLACEMENTS:
                mutant.write_text(json.dumps(_replaced(doc, path, value)))
                args = [
                    str(mutant) if a == name else str(INSTANCES / a) if a.endswith(".json") else a
                    for a in argv
                ]
                with contextlib.redirect_stderr(io.StringIO()):
                    code = main([*args, "--out", str(out)])
                status = json.loads(out.read_text())["status"]
                if code == EXIT_ERROR or status == "error":
                    pointer = "/" + "/".join(map(str, path))
                    faults.append(f"{argv[0]} {pointer} = {json.dumps(value)}: exit {code}")
    assert not faults, f"{len(faults)} internal errors:\n" + "\n".join(faults)
