"""Linear programming over exact rationals: HiGHS locates, rationals confirm.

* `column_generation` — the one LP driver. It decides feasibility for
  every set and point-process target that reaches an LP and, given an exact
  cost per column, minimises it for `realize-pp --objective`. A caller's
  oracle prices the columns, unless its first master holds them all (as
  it must under a cost). HiGHS solves the float masters (`float_phase1`, or `float_lp_min`
  under a cost); a point or optimum is rebuilt on its support, an optimum's
  duals and reduced costs are checked exactly, and "no column prices out"
  becomes an exact Farkas vector. Whatever fails to confirm continues with
  exact masters (`exact_simplex`) and exact pricing.

* `exact_farkas` — the one step that turns a float or exact dual into an
  exact Farkas vector, in integers: its normalisation entry becomes minus
  the exact maximum of y.A_j over every column.

* Zero rows. A row whose right-hand side is 0, and which every column
  meets with an entry >= 0, is forcing: a column that meets it carries
  weight 0 in every solution (Andersen & Andersen, Presolving in linear
  programming, Math. Program. 71 (1995)). The oracle names such rows
  (`ColumnOracle.zero_rows`, the pairs with p_ij = 0 of a set target), the
  caller keeps the columns that meet them out of the seed, and
  `column_generation` lowers the dual on each to -(1 + sum |y|) before it
  prices or calls `exact_farkas`. Then no such column prices out, the
  exact maximum lands on a column that meets none, and y.b does not
  change; the certificate carries a large coefficient on each zero row,
  and is >= 0 on every column.

* `screen` and `verdict` — the two ways a set or point-process target
  gets its `RealizeResult`: the first exact moment screen that fires, or
  the driver's answer (an exact mixture, a certificate from the exact
  Farkas vector, or no verdict within MAX_ROUNDS).

* `Certificate`, `certificate` and `check_certificate` — the one
  infeasibility proof of both targets: its type, one integer vector over the
  LP rows and a denominator; its builder from an exact Farkas vector; its
  re-verification in integers. A target supplies only what differs, in one
  object, its `ColumnOracle`: its columns, their exact maximum under integer
  prices, and the target's certificate, mixture and column names.

* `negative_direction` / `negative_square` — the moment screens' test for
  a rational matrix that is not positive semidefinite (`numpy.linalg.eigh`
  locates a direction, integers confirm it), and its square, expanded.

* `exact_simplex` — a dense two-phase tableau simplex with Bland's rule over
  `Fraction`, returning exact primal/dual solutions and, on infeasibility,
  an exact Farkas vector. Deterministic and immune to cycling; the
  fallback of last resort.

* `solve_nonneg_exact` — given a candidate support (usually located by a
  float solve, heaviest column first), reconstructs an exact non-negative
  solution of A q = b by fraction-free elimination, or reports that the
  support does not work.

* `float_phase1` / `float_lp_min` — locate supports and dual vectors
  quickly through `_highs`, the one HiGHS call: a fresh solver per LP
  through scipy's vendored binding, posed as `linprog(method="highs")`
  poses it; every verdict derived from them is re-verified exactly by the
  callers. A float master is a `Csc`, the int32 `start` and `index` and
  float64 `value` arrays of its nonzeros column by column, which
  `column_generation` grows by each round's new columns and
  `float_phase1` extends by its slack columns; `_highs` hands the arrays
  to the binding's array `passModel`, with one 0 per column as the
  integrality (an empty array leaves the model empty). `_highs_core`
  loads that binding by itself on the first float LP, so commands that
  solve none never load it and `scipy.optimize` is never imported; a
  scipy without the binding's file where it is expected gets the plain
  import instead.

Columns are lists of integers or `Fraction`s; in every LP the callers
build, the last row is the normalisation sum q = 1, which every column
meets with a 1.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Protocol

import numpy as np

from .errors import InvalidInstance
from .numbers import clear_denominators
from .qubo import check_symmetric, pair_list, pair_matrix


@dataclass
class ExactLPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    duals: list[Fraction] | None = None
    farkas: list[Fraction] | None = None


# float zero for phase-1 values, prices and reduced costs; it only picks a
# branch, every answer is then checked exactly
FLOAT_TOL = 1e-9
# float rounds of column generation before it gives up without a verdict
MAX_ROUNDS = 2000
# priced columns asked for per round
PRICING_BATCH = 64
# largest entry of a rounded eigenvector in `negative_direction`
DIRECTION_SCALE = 1 << 10


def _rebuild_on_support(oracle: ColumnOracle, master: list, b, q):
    """Exact x >= 0 with A x = b on the master columns where the float q is
    positive, heaviest first, as (support, weights) with support indexing
    `master`. None if that support has no exact solution."""
    support = [int(j) for j in np.argsort(-q, kind="stable") if q[j] > 0]
    weights = solve_nonneg_exact([oracle.column(master[j]) for j in support], b)
    return None if weights is None else (support, weights)


def exact_farkas(y: Sequence, oracle: ColumnOracle) -> tuple[list[int], Hashable]:
    """The dual y made exact and integral (a positive scaling), with its last,
    normalisation entry set to minus the exact maximum of y.A_j.

    `oracle.best` finds a column maximising y.A_j over every column, and
    that maximum, for the integer y with its last entry 0. The result
    satisfies y.A_j <= 0 for every column, with equality at the returned
    column, so it is an exact Farkas vector exactly when y.b > 0, which the
    caller checks. Returns (y, the maximising column).
    """
    y, _ = clear_denominators([*y[:-1], 0])
    key, top = oracle.best(y)
    y[-1] = -top
    return y, key


class ColumnOracle(Protocol):
    """The columns of one LP, keyed by hashable keys (bitmasks,
    configurations). `column_generation` reads size, zero_rows, matrix,
    column and best, and price while its master lacks a column; `screen`,
    `verdict` and `check_certificate` the rest."""

    size: int | None  # the number of columns that meet no zero row, when counted
    target: object  # the target whose LP these columns span, with .n and .rhs()
    # rows with right-hand side 0 that every column meets with an entry >= 0:
    # no solution uses a column meeting one, so none joins a master
    zero_rows: tuple[int, ...]

    def matrix(self, keys: list) -> np.ndarray:
        """Float matrix with one column per key."""

    def column(self, key) -> list:
        """Exact column of one key."""

    def price(self, y: np.ndarray, k: int) -> list:
        """Up to k keys whose columns have y.A_j > FLOAT_TOL in floats, best first."""

    def best(self, y: list[int]) -> tuple[Hashable, int]:
        """A key maximising y.A_j over every column for integer prices y, and the maximum."""

    def certify(self, y: list[int], key) -> Certificate:
        """`certificate` of the exact Farkas vector y, minimal at column `key`."""

    def mixture(self, keys: list, weights: list[Fraction]):
        """The target's mixture with `weights` on the columns `keys`."""

    def key(self, minimizer: tuple[int, ...]):
        """The column a certificate's stored minimiser names, or None."""

    def name(self, key) -> str:
        """The column `key` as a failure reason names it."""


@dataclass
class ColumnGenerationResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    keys: list = field(default_factory=list)  # columns with weights x
    x: list[Fraction] | None = None
    duals: list[Fraction] | None = None  # exact optimal duals, under a cost
    farkas: list[int] | None = None
    witness: Hashable = None  # the column where farkas.A_j attains its maximum 0
    exact_rounds: bool = False  # the verdict came from exact masters


@dataclass(frozen=True)
class Certificate:
    """Proof that a set ("set") or point-process ("pp") target has no
    realisation: G(Y) = c + sum_i blin_i m_i + sum_{i<=j} a_ij count_ij(Y)
    is non-negative on every column Y, with minimum 0 at `minimizer`, while
    its pairing with the target is -gap < 0. count_ij(F) = 1{i,j in F} for
    a subset F; for a configuration m it is m_i m_j (i < j) or
    m_i (m_i - 1) (i = j). `minimizer` is written as the report writes it:
    the sorted members of a subset, or the multiplicity vector of a
    configuration. G is stored once, as the integers g = den (a on the
    pairs i <= j, blin if any, c) over the LP rows; c, a and blin are
    views. Normalised: max |g| off the constant is den."""

    kind: str  # "set" | "pp"
    n: int
    g: tuple[int, ...]
    den: int
    gap: Fraction
    minimizer: tuple[int, ...]
    defect: str | None = None

    @classmethod
    def from_functional(cls, kind, n, c, a, blin, gap, minimizer) -> Certificate:
        """The certificate of G = (c, n x n a, blin or None) in any numbers;
        the first shape defect ("must be n x n", "not symmetric at (i,j)",
        "linear part has wrong length") is kept for `check_certificate`."""
        try:
            check_symmetric(a, n)
            if blin is not None and len(blin) != n:
                raise InvalidInstance("linear part has wrong length")
        except InvalidInstance as exc:
            return cls(kind, n, (), 1, gap, minimizer, str(exc))
        g, den = clear_denominators([*(a[i][j] for i, j in pair_list(n)), *(blin or ()), c])
        return cls(kind, n, tuple(g), den, gap, minimizer)

    @property
    def c(self) -> Fraction:
        return Fraction(self.g[-1], self.den)

    @cached_property
    def a(self) -> tuple[tuple[Fraction, ...], ...]:
        # pair_matrix takes the pair entries off the front of g
        return tuple(map(tuple, pair_matrix(self.n, [Fraction(v, self.den) for v in self.g])))

    @property
    def blin(self) -> tuple[Fraction, ...] | None:
        return tuple(Fraction(v, self.den) for v in self.g[self.n * (self.n + 1) // 2 : -1]) or None

    def on_rows(self, target) -> list[int]:
        """g on the target's LP rows; without blin the linear rows get 0."""
        missing = len(target.rhs()) - len(self.g)
        if missing < 0:
            raise InvalidInstance("certificate has a linear part but the target no intensity")
        return [*self.g[:-1], *(0,) * missing, self.g[-1]]

    def pairing(self, target) -> Fraction:
        """G paired with the target's moments `target.rhs()`."""
        b, scale = clear_denominators(target.rhs())
        return Fraction(_dot(self.on_rows(target), b), self.den * scale)


def certificate(kind: str, y: Sequence[int], minimizer: tuple[int, ...], target) -> Certificate:
    """The certificate of an integer Farkas vector y from `exact_farkas` on
    the target's rows: g = -y and den its largest entry off the constant,
    so max |(a, blin)| = 1. The normalisation price is minus the exact
    maximum over every column, so G has its minimum 0 at `minimizer`, the
    column `exact_farkas` returned."""
    g = tuple(-v for v in y)
    cert = Certificate(kind, target.n, g, max(map(abs, g[:-1])), Fraction(0), minimizer)
    return replace(cert, gap=-cert.pairing(target))


def check_certificate(cert: Certificate, oracle: ColumnOracle) -> tuple[bool, str]:
    """Independent exact re-verification of every invariant of `cert`
    against the oracle's target, in integers: G(Y) = -y.A_Y / den under
    the prices y = -g, so its minimum is -`oracle.best(y)` / den.

    The checks run in this order: size, the shape defect (n x n, symmetry,
    length of blin), max |g| off the constant = den, a linear part only on
    a target with linear rows (invalid input, raised), minimum >= 0, stored
    minimiser a column attaining the minimum, pairing < 0, stored gap.
    """
    target = oracle.target
    if cert.n != target.n:
        return False, "certificate size does not match target"
    if cert.defect is not None:
        return False, cert.defect
    if max(map(abs, cert.g[:-1])) != cert.den:
        which = "|a_ij|" if cert.blin is None else "|(a, blin)|"
        return False, f"normalisation violated: max {which} must equal 1"
    y = [-v for v in cert.on_rows(target)]
    where, top = oracle.best(y)
    if top > 0:
        return False, f"functional attains {Fraction(-top, cert.den)} < 0 at {oracle.name(where)}"
    key = oracle.key(cert.minimizer)
    if key is None:
        return False, "stored minimizer is not an admissible configuration"
    if _dot(y, oracle.column(key)) != top:
        return False, "stored minimizer does not attain the global minimum"
    pairing = cert.pairing(target)
    if pairing >= 0:
        return False, f"pairing with the target is {pairing} >= 0"
    if -pairing != cert.gap:
        return False, "stored gap does not match the recomputed pairing"
    return True, "certificate valid"


@dataclass
class RealizeResult:
    """The verdict on a set or point-process target. `mixture` is the
    target's (`SubsetMixture` or `ConfigMixture`) and `certificate` a
    `Certificate`; the objective and dual values are set only under a pp
    objective."""

    status: str  # "feasible" | "infeasible" | "indeterminate"
    mixture: object | None = None
    certificate: object | None = None
    note: str | None = None
    method: str = ""
    objective_value: object | None = None
    dual_value: object | None = None

    @property
    def gap(self) -> Fraction | None:
        """The certificate's gap, when there is a certificate."""
        return None if self.certificate is None else self.certificate.gap

    @property
    def residual(self) -> Fraction | None:
        """0 when there is a mixture: every mixture solves the moment rows exactly."""
        return None if self.mixture is None else Fraction(0)


def screen(screens, oracle: ColumnOracle) -> RealizeResult | None:
    """The verdict of the first of `screens` that fires on the oracle's
    target, or None.

    `screens` holds (method, functional, note). A functional returns None
    or the integer coefficients ({(i, j): a_ij, i <= j}, linear part) of a
    functional that is non-negative on every column and pairs negatively
    with the target, both confirmed exactly; an empty linear part (set
    targets, pp validation) leaves the linear rows at 0. Their negation is
    a dual y on the target's rows (pairs, then the linear rows, then
    normalisation). `exact_farkas` sets its constant to
    minus the exact maximum `oracle.best` finds, which is never above the
    screen's own constant, so the pairing stays negative; `oracle.certify`
    turns it into the target's certificate.
    """
    target = oracle.target
    for method, functional, note in screens:
        found = functional(target)
        if found is not None:
            a, linear = found
            y = [-a.get(pair, 0) for pair in pair_list(target.n)] + [-v for v in linear] + [0]
            cert = oracle.certify(*exact_farkas(y, oracle))
            return RealizeResult("infeasible", certificate=cert, note=note, method=method)
    return None


def verdict(
    res: ColumnGenerationResult, method: str, oracle: ColumnOracle, note=None
) -> RealizeResult:
    """The verdict of a `column_generation` result `res`: a feasible one
    gets `oracle.mixture(keys, weights)` and `note`, an infeasible one
    `oracle.certify(farkas, witness)`, whose gap must be positive. `method`
    turns into "exact-column-generation" when exact rounds decided."""
    if res.exact_rounds:
        method = "exact-column-generation"
    if res.status == "infeasible":
        cert = oracle.certify(res.farkas, res.witness)
        if cert.gap <= 0:
            raise RuntimeError("exact Farkas vector failed certification")
        return RealizeResult("infeasible", certificate=cert, method=method)
    if res.status == "indeterminate":
        return RealizeResult(
            "indeterminate",
            note=f"column generation found no verdict in {MAX_ROUNDS} rounds",
            method=method,
        )
    return RealizeResult(
        "feasible", mixture=oracle.mixture(res.keys, res.x), note=note, method=method
    )


def column_generation(
    oracle: ColumnOracle, b: list, seed: list, cost=None
) -> ColumnGenerationResult:
    """Decide A q = b, q >= 0 over every column the oracle knows; under a
    `cost` (cost[key], the exact cost of a column), minimise cost.q.

    Float rounds: `float_phase1` solves the master, which starts as `seed`;
    the oracle prices up to PRICING_BATCH columns under the float dual, and
    the new ones join the master for good. The float master is one `Csc`:
    each round converts only its new columns and appends them, never
    rebuilding the old ones. The master is degenerate on
    these instances (new columns often enter at weight zero), so wide
    rounds without eviction take far fewer rounds than narrow ones with it
    (Lübbecke & Desrosiers, Selected topics in column generation, Oper.
    Res. 53 (2005)). A feasible float master is rebuilt exactly on its
    support; when no column prices out, `exact_farkas` with the oracle's
    exact maximum proves infeasibility. Pricing and `exact_farkas` see the
    dual `_lowered` on the oracle's zero rows, so a column that meets one
    never joins the master and never is the maximum.

    A cost is priced by nothing, so `seed` must hold every column.
    `float_lp_min` solves the master, whose optimum is rebuilt on its
    support and certified by `_exact_duals` (Applegate, Cook, Dash &
    Espinoza, Oper. Res. Lett. 35 (2007)) from reduced costs over the
    master's dense matrix, which never grows; a float "infeasible" goes
    through `float_phase1` and `exact_farkas` as above.

    Exact rounds: if a confirmation fails, `exact_simplex` solves masters
    seeded with the float support when the float master was feasible, and
    with every master column when it was not (an infeasible master's
    phase-1 point says nothing about where a solution lies); under a cost
    it solves the whole master with the cost. Each exact Farkas vector that
    `exact_farkas` cannot confirm hands over its maximising column, which
    prices out and joins the master. Every round enlarges the master, so
    the exact rounds always end with a verdict; only the float rounds are
    capped, at MAX_ROUNDS.
    """
    bf = np.array(b, dtype=float)
    master = list(seed)
    if cost is not None and len(set(master)) != oracle.size:
        raise ValueError("a cost needs every column in the first master")
    dense = oracle.matrix(master)
    A = Csc.from_dense(dense)
    for _ in range(MAX_ROUNDS):
        if cost is not None:
            c = np.array([float(cost[key]) for key in master])
            status, q, y, _ = float_lp_min(A, bf, c)
            if status == "optimal":
                found = _rebuild_on_support(oracle, master, b, q)
                # the reduced costs in numpy's dense order, which fixes the float-tight set
                duals = found and _exact_duals(oracle, master, cost, b, y, c - y @ dense, *found)
                if duals:
                    keys = [master[j] for j in found[0]]
                    return ColumnGenerationResult("feasible", keys, x=found[1], duals=duals)
            if status != "infeasible":
                break
        value, q, y = float_phase1(A, bf)
        if value < FLOAT_TOL:
            if cost is None:
                found = _rebuild_on_support(oracle, master, b, q)
                if found is not None:
                    support, weights = found
                    keys = [master[j] for j in support]
                    return ColumnGenerationResult("feasible", keys, x=weights)
                master = [key for key, w in zip(master, q) if w > 0]
            break
        known = set(master)
        y = _lowered(y, oracle.zero_rows)
        # a master holding every column leaves nothing to price
        priced = [] if len(known) == oracle.size else oracle.price(y, PRICING_BATCH)
        new = [key for key in priced if key not in known]
        if not new:
            farkas, witness = exact_farkas(y, oracle)
            if _dot(farkas, b) > 0:
                return ColumnGenerationResult("infeasible", farkas=farkas, witness=witness)
            break
        master.extend(new)
        A = A.append(Csc.from_dense(oracle.matrix(new)))
    else:
        return ColumnGenerationResult("indeterminate")
    while True:
        cols = [oracle.column(key) for key in master]
        res = exact_simplex(cols, b, None if cost is None else [cost[key] for key in master])
        if res.status == "optimal":
            return ColumnGenerationResult(
                "feasible", master, x=res.x, duals=res.duals, exact_rounds=True
            )
        farkas, witness = exact_farkas(_lowered(res.farkas, oracle.zero_rows), oracle)
        if _dot(farkas, b) > 0:
            return ColumnGenerationResult(
                "infeasible", farkas=farkas, witness=witness, exact_rounds=True
            )
        # y.A_witness > 0 under the master's Farkas vector, so it is new
        if witness in master:
            raise RuntimeError("exact pricing returned a column of the master")
        master.append(witness)


def _lowered(y, rows: tuple[int, ...]):
    """The dual y (floats or exact) with its entry on each of the zero `rows`
    set to -(1 + sum |y|): then y.A_j < 0 for every column j that meets one,
    whatever the other entries, while y.b and y.A_j of every other column
    stay as they were."""
    if not rows:
        return y
    low = -(1 + sum(abs(v) for v in y))
    y = y.copy()
    for r in rows:
        y[r] = low
    return y


def _exact_duals(oracle, master, cost, b, y, reduced, support, weights) -> list[Fraction] | None:
    """Exact duals proving `weights` on `support` (indices into `master`)
    optimal under `cost`, or None. The master's float duals y are corrected
    so that the primal support and the other float-tight columns (by the
    float `reduced` costs) have reduced cost exactly 0; coordinates those
    columns do not pin keep their float value. Every reduced cost and the
    duality gap are then checked in rationals."""
    cols = [oracle.column(key) for key in master]
    costs = [cost[key] for key in master]
    y0 = [Fraction(float(v)) for v in y]
    primal = {j for j, w in zip(support, weights) if w > 0}
    rows = [j for j in range(len(master)) if j in primal or abs(reduced[j]) <= FLOAT_TOL]
    shift = _solve_exact(
        [[cols[j][i] for j in rows] for i in range(len(b))],
        [costs[j] - _dot(y0, cols[j]) for j in rows],
    )
    if shift is None:
        return None
    duals = [u + v for u, v in zip(y0, shift)]
    value = sum((costs[j] * w for j, w in zip(support, weights)), Fraction(0))
    if _dot(duals, b) != value or any(c < _dot(duals, col) for c, col in zip(costs, cols)):
        return None
    return duals


def negative_direction(M: Sequence[Sequence[Fraction]]) -> list[int] | None:
    """An integer vector v with v.M.v < 0 for the symmetric rational matrix
    M, or None if none is found.

    `numpy.linalg.eigh` locates the eigenvector of the smallest eigenvalue,
    taken only when that eigenvalue is below -FLOAT_TOL; it is rounded to
    integers with max |v| = DIRECTION_SCALE, and v.M.v < 0 is confirmed in
    integers after clearing denominators.
    """
    values, vectors = np.linalg.eigh(np.array(M, dtype=float))
    if values[0] >= -FLOAT_TOL:
        return None
    u = vectors[:, 0]
    v = [int(x) for x in np.rint(u * (DIRECTION_SCALE / np.abs(u).max()))]
    m = len(M)
    flat, _ = clear_denominators([x for row in M for x in row])
    form = sum(v[i] * v[j] * flat[i * m + j] for i in range(m) for j in range(m) if v[i] and v[j])
    return v if form < 0 else None


def negative_square(M: Sequence[Sequence[Fraction]]) -> tuple[dict, list[int]] | None:
    """The square G = (v_0 + sum_i v_i x_i)^2 of v = `negative_direction(M)`,
    or None: (a, lin) with a_ii = v_i^2 on x_i^2, a_ij = 2 v_i v_j (i < j)
    on x_i x_j and lin_i = 2 v_0 v_i on x_i; the constant v_0^2 is left to
    `exact_farkas`. With M the second-moment matrix of (1, x), G pairs to
    v.M.v < 0."""
    v = negative_direction(M)
    if v is None:
        return None
    v0, v = v[0], v[1:]
    a = {(i, j): (2 - (i == j)) * v[i] * v[j] for i, j in pair_list(len(v))}
    return a, [2 * v0 * x for x in v]


def _dot(y: list, col: list):
    return sum(u * v for u, v in zip(y, col) if u and v)


def exact_simplex(
    cols: list[list[Fraction]],
    b: list[Fraction],
    obj: list[Fraction] | None = None,
) -> ExactLPResult:
    """Solve min obj.q s.t. [cols] q = b, q >= 0 exactly.

    With obj=None this is a pure feasibility solve. Bland's rule (lowest
    eligible index enters; ties in the ratio test go to the lowest basic
    index) guarantees termination. `farkas` in an infeasible result is an
    exact vector y with y.A_j <= 0 for every column j and y.b > 0.
    """
    m = len(b)
    n_struct = len(cols)
    for col in cols:
        if len(col) != m:
            raise ValueError("column length does not match b")
    sign = [(-1 if bi < 0 else 1) for bi in b]
    width = n_struct + m
    T: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(sign[i]) * cols[j][i] for j in range(n_struct)]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(Fraction(sign[i]) * b[i])
        T.append(row)
    basis = [n_struct + i for i in range(m)]
    can_enter = [True] * width  # artificials blocked once they leave / in phase 2

    def pivot(z: list[Fraction], e: int, r: int) -> None:
        pv = T[r][e]
        T[r] = [v / pv for v in T[r]]
        for i in range(m):
            if i != r and T[i][e] != 0:
                f = T[i][e]
                Ti, Tr = T[i], T[r]
                T[i] = [a - f * c for a, c in zip(Ti, Tr)]
        if z[e] != 0:
            f = z[e]
            Tr = T[r]
            for j in range(width + 1):
                z[j] -= f * Tr[j]
        if basis[r] >= n_struct:
            can_enter[basis[r]] = False
        basis[r] = e

    def run_phase(z: list[Fraction]) -> str:
        while True:
            e = -1
            for j in range(width):
                # basic columns have reduced cost 0, so z[j] < 0 skips them
                if can_enter[j] and z[j] < 0:
                    e = j
                    break
            if e < 0:
                return "optimal"
            rows = [i for i in range(m) if T[i][e] > 0]
            if not rows:
                return "unbounded"
            best_ratio = None
            r = -1
            for i in rows:
                ratio = T[i][width] / T[i][e]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[r]
                ):
                    best_ratio = ratio
                    r = i
            pivot(z, e, r)

    # phase 1: minimise the sum of artificials
    z1 = [Fraction(0)] * (width + 1)
    for j in range(width):
        z1[j] = (Fraction(1) if j >= n_struct else Fraction(0)) - sum(T[i][j] for i in range(m))
    z1[width] = -sum(T[i][width] for i in range(m))
    status = run_phase(z1)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise RuntimeError("phase-1 simplex reported unbounded")
    phase1_obj = sum(T[i][width] for i in range(m) if basis[i] >= n_struct)
    if phase1_obj > 0:
        y = [Fraction(1) - z1[n_struct + i] for i in range(m)]
        farkas = [sign[i] * y[i] for i in range(m)]
        return ExactLPResult(status="infeasible", farkas=farkas)

    # drive basic artificials out where a structural pivot exists
    for r in range(m):
        if basis[r] >= n_struct:
            for e in range(n_struct):
                if can_enter[e] and T[r][e] != 0 and basis.count(e) == 0:
                    pivot(z1, e, r)
                    break
    for j in range(n_struct, width):
        can_enter[j] = False

    def extract_x() -> list[Fraction]:
        x = [Fraction(0)] * n_struct
        for i in range(m):
            if basis[i] < n_struct:
                x[basis[i]] = T[i][width]
        return x

    if obj is None:
        return ExactLPResult(status="optimal", x=extract_x(), objective=Fraction(0))

    cost = list(obj) + [Fraction(0)] * m
    z2 = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        z2[j] = (cost[j] if j < width else Fraction(0)) - sum(
            cost[basis[i]] * T[i][j] for i in range(m)
        )
    status = run_phase(z2)
    if status == "unbounded":
        return ExactLPResult(status="unbounded")
    x = extract_x()
    value = sum((obj[j] * x[j] for j in range(n_struct)), Fraction(0))
    duals = [sign[i] * (-z2[n_struct + i]) for i in range(m)]
    return ExactLPResult(status="optimal", x=x, objective=value, duals=duals)


def solve_nonneg_exact(cols: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact q >= 0 with sum_j q_j cols[j] = b, pivoting on the columns in
    their given order.

    Free (non-pivot) columns are fixed to zero, so when the columns are the
    support of a float solution ranked by weight this reproduces that
    vertex exactly. Returns None if the system is inconsistent or the
    resulting q has a negative entry.
    """
    q = _solve_exact(cols, b)
    if q is None or any(v < 0 for v in q):
        return None
    return q


def _solve_exact(cols: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Exact q with sum_j q_j cols[j] = b by fraction-free elimination.

    Pivots are taken from the columns in their given order, first come
    first; every non-pivot column is fixed to zero. Returns None if the
    system is inconsistent.
    """
    m = len(b)
    k = len(cols)
    flat, _ = clear_denominators([*b, *(f for col in cols for f in col)])
    rhs = flat[:m]
    A = [flat[m * (j + 1) : m * (j + 2)] for j in range(k)]
    M = [list(row) for row in zip(*A, rhs)]

    prev = 1
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(k):
        if r == m:
            break
        pr = next((i for i in range(r, m) if M[i][col] != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        p = M[r][col]
        for i in range(r + 1, m):
            Mi, Mr = M[i], M[r]
            f = Mi[col]
            # one-step fraction-free update; division by the previous pivot is exact
            M[i] = [(p * a - f * c) // prev for a, c in zip(Mi, Mr)]
        prev = p
        pivots.append((r, col))
        r += 1

    # every column was tried, so the rows past the pivots are 0 on the left
    if any(M[i][k] for i in range(r, m)):
        return None

    q = [Fraction(0)] * k
    for prow, pcol in reversed(pivots):
        acc = Fraction(M[prow][k])
        for _, c2 in pivots:
            if c2 != pcol and q[c2] != 0:
                acc -= M[prow][c2] * q[c2]
        q[pcol] = acc / M[prow][pcol]

    # confirm against the original system in integers; elimination bugs must not leak
    qi, d = clear_denominators(q)
    used = [(A[j], v) for j, v in enumerate(qi) if v]
    for i in range(m):
        if sum(col[i] * v for col, v in used) != rhs[i] * d:
            return None
    return q


# scipy's vendored HiGHS binding, and its directory inside the scipy package
_HIGHS_NAME = "scipy.optimize._highspy._core"
_HIGHS_DIR = ("optimize", "_highspy")


@cache
def _highs_core():
    """scipy's vendored HiGHS binding, loaded by itself.

    `from scipy.optimize._highspy import _core` first runs
    `scipy/optimize/__init__.py`, which imports every solver, scipy.sparse
    and scipy.linalg for a binding that needs none of them. So the extension
    file beside scipy's `__init__.py` (found without importing scipy) is
    loaded under its own dotted name and registered in sys.modules: it never
    loads twice, and a later `import scipy.optimize` reuses it. Without that
    file, the plain import. Either way it is the same binding, so no result
    depends on the path taken.
    """
    import importlib.machinery
    import importlib.util
    import os
    import sys

    if _HIGHS_NAME in sys.modules:
        return sys.modules[_HIGHS_NAME]
    directory = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), *_HIGHS_DIR)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_core" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(_HIGHS_NAME, path)
            spec = importlib.util.spec_from_file_location(_HIGHS_NAME, path, loader=loader)
            core = importlib.util.module_from_spec(spec)
            loader.exec_module(core)
            # registered once initialised, so a failed load leaves nothing behind
            sys.modules[_HIGHS_NAME] = core
            return core
    from scipy.optimize._highspy import _core

    return _core


@dataclass(frozen=True)
class Csc:
    """A float matrix column-wise without its zeros (compressed sparse
    columns), in the arrays HiGHS takes: column j has the entries
    value[start[j]:start[j + 1]] in the rows index[start[j]:start[j + 1]],
    in increasing row order."""

    start: np.ndarray  # int32, one more entry than columns
    index: np.ndarray  # int32
    value: np.ndarray  # float64
    rows: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, len(self.start) - 1

    @classmethod
    def from_dense(cls, A: np.ndarray) -> Csc:
        cols = np.asarray(A, dtype=float).T
        nonzero = cols != 0
        start = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1)))).astype(np.int32)
        return cls(start, np.nonzero(nonzero)[1].astype(np.int32), cols[nonzero], cols.shape[1])

    def append(self, other: Csc) -> Csc:
        """This matrix with the columns of `other` after its own."""
        return Csc(
            np.concatenate((self.start, other.start[1:] + self.start[-1])),
            np.concatenate((self.index, other.index)),
            np.concatenate((self.value, other.value)),
            self.rows,
        )


@cache
def _highs_options():
    """The options `linprog(method="highs")` passes: the dual simplex after
    presolve, silent. Each solver copies them, so one object serves all."""
    options = _highs_core().HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = 1  # dual
    options.highs_debug_level = 0
    options.output_flag = options.log_to_console = False
    return options


def _highs(c: np.ndarray, A_eq: Csc, b: np.ndarray):
    """min c.q s.t. A_eq q = b, q >= 0 by one fresh HiGHS solve, as
    (status, q, row duals, objective) with `scipy.optimize.linprog`'s status
    codes: 0 optimal, 2 infeasible, 3 unbounded, 4 anything else (q, the
    duals and the objective then None).

    This is the model and the options that `linprog(method="highs")` hands
    the same binding, scipy's vendored `_highspy._core` (loaded by
    `_highs_core` without `scipy.optimize`): A_eq column-wise without its
    zeros, 0 <= q, and the dual simplex after presolve; so the vertex and
    the duals are the same. The arrays go to the binding's array overload
    of `passModel`, which takes them whole, where the `HighsLp` attributes
    copy element by element. Its integrality array must hold one 0
    (continuous) per column: an empty one leaves the model empty. Options
    or a model the binding rejects raise RuntimeError. No solver is reused:
    a warm start changes the duals, and with them the columns priced next.
    """
    highs = _highs_core()
    m, k = A_eq.shape
    nz = len(A_eq.value)
    # the binding takes nz, not the arrays' own lengths, as the entry count
    if len(A_eq.index) != nz or A_eq.start[-1] != nz or len(c) != k or len(b) != m:
        raise RuntimeError("the HiGHS model's arrays disagree in length")
    solver = highs._Highs()
    if solver.passOptions(_highs_options()) == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the options")
    b = np.asarray(b, dtype=float)
    passed = solver.passModel(
        k, m, nz, 1, 1, 0.0,  # column-wise, minimise, no offset
        np.asarray(c, dtype=float), np.zeros(k), np.full(k, highs.kHighsInf), b, b,
        A_eq.start, A_eq.index, A_eq.value, np.zeros(k, np.int32),
    )
    if passed == highs.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the model")
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        code = {highs.HighsModelStatus.kInfeasible: 2, highs.HighsModelStatus.kUnbounded: 3}
        return code.get(status, 4), None, None, None
    solution = solver.getSolution()
    value = solver.getInfo().objective_function_value
    return 0, np.array(solution.col_value), np.array(solution.row_dual), value


def float_phase1(A: Csc, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Least total slack for A q = b, q >= 0 (always solvable): the columns
    of A, then the slack columns +I and -I appended to its arrays.

    Returns (objective, q, y); objective ~ 0 means feasible and q is a
    feasible point; otherwise y is a float Farkas direction with |y|_inf <= 1.
    """
    m, n = A.shape
    rows = np.arange(m, dtype=np.int32)
    slacks = Csc(
        np.arange(2 * m + 1, dtype=np.int32), np.concatenate((rows, rows)),
        np.concatenate((np.ones(m), -np.ones(m))), m,
    )
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    status, q, y, value = _highs(c, A.append(slacks), b)
    if status != 0:
        raise RuntimeError(f"phase-1 float LP failed with status {status}")
    if float(y @ b) < 0:
        y = -y
    return value, q[:n], y


def float_lp_min(A: Csc, b: np.ndarray, c: np.ndarray):
    """min c.q s.t. A q = b, q >= 0 in floats; returns (status, q, y, value)."""
    status, q, y, value = _highs(c, A, b)
    if status == 2:
        return "infeasible", None, None, None
    if status == 3:
        return "unbounded", None, None, None
    if status != 0:
        raise RuntimeError(f"float LP failed with status {status}")
    if abs(float(y @ b) - value) > abs(float(-y @ b) - value):
        y = -y
    return "optimal", q, y, value
