"""Independent correctness checks for realkit reports.

Nothing here imports realkit. Every check recomputes what a report claims
from the instance the generator wrote, in exact rational or integer
arithmetic, with code of its own:

* feasible mixtures: the moments are rebuilt from the reported weights
  with `Fraction` and compared exactly; a float or inexact weight fails;
* certificates: the minimum of the certificate functional is found by
  exhaustive enumeration over all subsets or all admissible
  configurations, never by realkit's minimiser.

A check returns quietly when the report is correct and raises
`CheckFailed` with a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

INT64_SAFE = 1 << 62


def fmt(x) -> str:
    """Exact string for a rational, as instance files expect."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def num(value) -> Fraction:
    """Parse a number a report wrote; anything but an exact string is an error."""
    if not isinstance(value, str):
        raise ValueError(f"number {value!r} is not an exact string")
    return Fraction(value)


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def _lex_first(masks) -> int:
    """Subset (as a bitmask) whose sorted index tuple is smallest: keep the
    masks with the lowest smallest member, strip it, repeat; a mask that
    runs out first is a prefix of the others and wins."""
    cand = np.asarray(masks, dtype=np.int64)
    prefix = 0
    while not (cand == 0).any():
        low = cand & -cand
        lo = low.min()
        cand = cand[low == lo] ^ lo
        prefix |= int(lo)
    return prefix


# ------------------------------------------------------------ subset minima


def subset_minimum(c, a, n: int) -> tuple[Fraction, int]:
    """Exact min over all subsets F of c + sum_{i<=j in F} a_ij, and the
    lexicographically first minimising subset as a bitmask.

    Denominators are cleared first; the enumeration runs in int64 when the
    scaled coefficients cannot overflow and in Python integers otherwise.
    """
    c = Fraction(c)
    upper = [[Fraction(a[i][j]) for j in range(n)] for i in range(n)]
    scale = lcm(c.denominator, *(upper[i][j].denominator for i in range(n) for j in range(i, n)))
    ci = int(c * scale)
    ai = [[int(upper[i][j] * scale) for j in range(n)] for i in range(n)]
    bound = abs(ci) + sum(abs(ai[i][j]) for i in range(n) for j in range(i, n))
    if bound < INT64_SAFE:
        vals = np.array([ci], dtype=np.int64)
        for k in range(n):
            lin = np.zeros(1, dtype=np.int64)
            for j in range(k):
                lin = np.concatenate([lin, lin + ai[j][k]])
            vals = np.concatenate([vals, vals + (ai[k][k] + lin)])
        best = int(vals.min())
        ties = np.flatnonzero(vals == best)
    else:
        vals = [ci]
        for k in range(n):
            lin = [0]
            for j in range(k):
                w = ai[j][k]
                lin = lin + [v + w for v in lin]
            d = ai[k][k]
            vals = vals + [v + d + t for v, t in zip(vals, lin)]
        best = min(vals)
        ties = [m for m, v in enumerate(vals) if v == best]
    return Fraction(best, scale), _lex_first(ties)


def subset_value(c, a, mask: int) -> Fraction:
    members = _members(mask)
    total = Fraction(c)
    for p, i in enumerate(members):
        for j in members[p:]:
            total += a[i][j]
    return total


# ------------------------------------------------------- configuration minima


def admissible_configs(n: int, cap: int, simple: bool):
    """Every multiplicity vector of total mass <= cap, simple if asked."""
    per_point = 1 if simple else cap
    for m in itertools.product(range(per_point + 1), repeat=n):
        if sum(m) <= cap:
            yield m


def config_functional(c, a, blin, m) -> Fraction:
    n = len(m)
    total = Fraction(c)
    for i in range(n):
        if not m[i]:
            continue
        if blin is not None:
            total += blin[i] * m[i]
        total += a[i][i] * (m[i] * (m[i] - 1))
        for j in range(i + 1, n):
            total += a[i][j] * (m[i] * m[j])
    return total


def pp_moments(atoms, n: int) -> tuple[dict, list[Fraction]]:
    """Ordered pair counts (keyed i <= j) and intensities of a law on
    multiplicity vectors."""
    rho: dict[tuple[int, int], Fraction] = {}
    rho1 = [Fraction(0)] * n
    for m, w in atoms:
        for i in range(n):
            rho1[i] += w * m[i]
            for j in range(i, n):
                count = m[i] * (m[i] - 1) if i == j else m[i] * m[j]
                if count:
                    rho[(i, j)] = rho.get((i, j), Fraction(0)) + w * count
    return rho, rho1


# ------------------------------------------------------------- report checks


def check_status(report: dict, expected: str) -> None:
    _require(report.get("status") == expected, f"status {report.get('status')!r}, expected {expected!r}")


def _weights(atoms, key: str) -> list[tuple[tuple, Fraction]]:
    out = []
    for atom in atoms:
        w = num(atom["weight"])
        _require(w > 0, "non-positive mixture weight")
        out.append((tuple(atom[key]), w))
    _require(len({s for s, _ in out}) == len(out), "duplicate mixture atoms")
    _require(sum(w for _, w in out) == 1, "mixture weights do not sum to 1")
    return out


def check_set_feasible(report: dict, p) -> None:
    check_status(report, "feasible")
    _require(num(report.get("residual", "missing")) == 0, "residual is not exactly 0")
    n = len(p)
    atoms = _weights(report["payload"]["mixture"], "subset")
    acc = [[Fraction(0)] * n for _ in range(n)]
    for subset, w in atoms:
        _require(list(subset) == sorted(set(subset)), "subset not sorted and distinct")
        _require(all(0 <= i < n for i in subset), "subset index out of range")
        for x, i in enumerate(subset):
            for j in subset[x:]:
                acc[i][j] += w
    for i in range(n):
        for j in range(i, n):
            _require(acc[i][j] == p[i][j], f"moment ({i},{j}) is {acc[i][j]}, target {p[i][j]}")


def _set_certificate(obj: dict, p) -> None:
    """Every invariant of a set certificate, rechecked from scratch."""
    n = len(p)
    _require(obj.get("kind") == "set" and obj.get("n") == n, "certificate kind or size")
    a = [[num(v) for v in row] for row in obj["a"]]
    _require(len(a) == n and all(len(row) == n for row in a), "certificate shape")
    _require(all(a[i][j] == a[j][i] for i in range(n) for j in range(n)), "certificate asymmetric")
    _require(max(abs(a[i][j]) for i in range(n) for j in range(i, n)) == 1, "max |a| is not 1")
    c = num(obj["c"])
    low, _ = subset_minimum(c, a, n)
    _require(low >= 0, f"certificate functional attains {low} < 0")
    mask = sum(1 << i for i in obj["minimizer"])
    _require(subset_value(c, a, mask) == low, "stored minimiser is not a global minimiser")
    pairing = c + sum(a[i][j] * p[i][j] for i in range(n) for j in range(i, n))
    _require(pairing < 0, "certificate pairing is not negative")
    _require(num(obj["gap"]) == -pairing, "stored gap differs from the pairing")


def check_set_infeasible(report: dict, p) -> None:
    check_status(report, "infeasible")
    _set_certificate(report["payload"]["certificate"], p)


def _pp_admissible(m, target: dict) -> bool:
    return sum(m) <= target["cap"] and not (target.get("simple") and max(m, default=0) > 1)


def _rho_of(target: dict) -> tuple[dict, list[Fraction] | None]:
    rho = {}
    for i, j, w in target["rho"]:
        rho[(min(i, j), max(i, j))] = Fraction(w)
    rho1 = [Fraction(v) for v in target["rho1"]] if target.get("rho1") else None
    return rho, rho1


def objective_value(kind: str, m, space_dist=None, psi_steps=None) -> Fraction:
    total_mass = sum(m)
    if kind.startswith("card"):
        return Fraction(total_mass ** int(kind[4:]))
    total = Fraction(0)
    n = len(m)
    for i in range(n):
        for j in range(n):
            count = m[i] * (m[i] - 1) if i == j else m[i] * m[j]
            if count:
                d = Fraction(0) if i == j else space_dist[i][j]
                total += count * step_value(psi_steps, d)
    return total


def step_value(steps, t: Fraction) -> Fraction:
    """Right-continuous step function: value of the last step with threshold <= t."""
    value = None
    for threshold, v in steps:
        if threshold <= t:
            value = v
    return value


def check_pp_feasible(report: dict, target: dict, objective=None, psi_steps=None) -> None:
    check_status(report, "feasible")
    _require(num(report.get("residual", "missing")) == 0, "residual is not exactly 0")
    n = target["n"]
    atoms = _weights(report["payload"]["mixture"], "multiplicity")
    for m, _ in atoms:
        _require(len(m) == n and min(m) >= 0 and _pp_admissible(m, target), f"inadmissible configuration {m}")
    rho_hat, rho1_hat = pp_moments(atoms, n)
    rho, rho1 = _rho_of(target)
    for i in range(n):
        for j in range(i, n):
            got = rho_hat.get((i, j), Fraction(0))
            _require(got == rho.get((i, j), Fraction(0)), f"pair moment ({i},{j}) is {got}")
    if rho1 is not None:
        _require(rho1_hat == rho1, "intensity not reproduced")
    if objective is not None:
        dist = None
        if "space" in target:
            dist = [[Fraction(v) for v in row] for row in target["space"]["dist"]]
        expected = sum(w * objective_value(objective, m, dist, psi_steps) for m, w in atoms)
        reported = num(report["payload"]["objective_value"])
        _require(reported == expected, f"objective value {reported} is not the mixture's {expected}")
        _require(num(report["payload"]["dual_value"]) == reported, "dual value differs from the optimum")


def check_pp_certificate(obj: dict, target: dict) -> None:
    n = target["n"]
    _require(obj.get("kind") == "pp" and obj.get("n") == n, "certificate kind or size")
    a = [[num(v) for v in row] for row in obj["a"]]
    _require(all(a[i][j] == a[j][i] for i in range(n) for j in range(n)), "certificate asymmetric")
    blin = [num(v) for v in obj["blin"]] if obj.get("blin") else None
    c = num(obj["c"])
    low = min(
        config_functional(c, a, blin, m)
        for m in admissible_configs(n, target["cap"], bool(target.get("simple")))
    )
    _require(low >= 0, f"certificate functional attains {low} < 0")
    rho, rho1 = _rho_of(target)
    pairing = c + sum(a[i][j] * rho.get((i, j), 0) for i in range(n) for j in range(i, n))
    if blin is not None:
        _require(rho1 is not None, "linear certificate part without an intensity")
        pairing += sum(b * r for b, r in zip(blin, rho1))
    _require(pairing < 0, "certificate pairing is not negative")
    _require(num(obj["gap"]) == -pairing, "stored gap differs from the pairing")


def check_pp_infeasible(report: dict, target: dict) -> None:
    check_status(report, "infeasible")
    check_pp_certificate(report["payload"]["certificate"], target)


def check_verdict(report: dict, valid: bool) -> None:
    check_status(report, "pass" if valid else "fail")
    _require(report["payload"].get("valid") is valid, f"certificate judged valid={report['payload'].get('valid')}")


# ------------------------------------------------------------ checker oracles


def brute_packing(dist, t: Fraction) -> int:
    """Largest set of points with pairwise distances > t, by trying every subset."""
    n = len(dist)
    best = 0
    for mask in range(1 << n):
        members = _members(mask)
        if len(members) > best and all(
            dist[i][j] > t for i, j in itertools.combinations(members, 2)
        ):
            best = len(members)
    return best


def brute_gamma(dist, mass: int, t: Fraction) -> int:
    """Fewest ordered particle pairs at distance <= t over all placements of
    `mass` particles; co-located particles count as close."""
    n = len(dist)
    best = None
    for m in itertools.product(range(mass + 1), repeat=n):
        if sum(m) != mass:
            continue
        pairs = sum(
            m[i] * (m[i] - 1) if i == j else m[i] * m[j]
            for i in range(n)
            for j in range(n)
            if i == j or dist[i][j] <= t
        )
        best = pairs if best is None else min(best, pairs)
    return best


def bound_verdict(value: Fraction, bound: Fraction) -> str:
    return "pass" if value <= bound else "fail"


def norm_sq(x, y=None) -> Fraction:
    y = y or [0] * len(x)
    return sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(x, y))


def sandwich_violated(tau1, tau2, l: Fraction) -> bool:
    """Does tau1(max(R-l,0)) <= tau2(R) <= tau1(R+l) fail for some R >= 0?
    Both sides only change at jump abscissae shifted by 0 or +-l."""
    grid = {Fraction(0)}
    for r, _ in tau1 + tau2:
        grid.update(x for x in (r - l, r, r + l) if x >= 0)
    zero = Fraction(0)
    for R in grid:
        low = step_value(tau1, max(R - l, zero)) or zero
        mid = step_value(tau2, R) or zero
        high = step_value(tau1, R + l) or zero
        if low > mid or mid > high:
            return True
    return False
