import random
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import _child_env

from realkit import pp
from realkit.lp import (
    Csc, _highs, column_generation, exact_simplex, float_lp_min, float_phase1, solve_nonneg_exact,
)
from realkit.pp import CorrelationTarget, enumerate_configs
from realkit.setrealize import TwoPointTarget, _SubsetOracle
from helpers import ColumnList


def cols_from_rows(rows):
    m, k = len(rows), len(rows[0])
    return [[F(rows[i][j]) for i in range(m)] for j in range(k)]


class TestExactSimplex:
    def test_feasible_mixture_system(self):
        # two columns forced to weights (1/3, 2/3)
        cols = cols_from_rows([[1, 0], [1, 1]])
        res = exact_simplex(cols, [F(1, 3), F(1)])
        assert res.status == "optimal"
        assert res.x == [F(1, 3), F(2, 3)]

    def test_infeasible_farkas_vector(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        cols = cols_from_rows([[1, 1], [1, 1]])
        b = [F(1), F(2)]
        res = exact_simplex(cols, b)
        assert res.status == "infeasible"
        y = res.farkas
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
        for col in cols:
            assert sum(yi * ci for yi, ci in zip(y, col)) <= 0

    def test_negative_rhs_handled(self):
        cols = cols_from_rows([[-1, 0], [0, 1]])
        res = exact_simplex(cols, [F(-2), F(3)])
        assert res.status == "optimal"
        assert res.x == [F(2), F(3)]

    def test_optimisation_and_duality(self):
        # min x1 + 3 x2 s.t. x1 + x2 = 2 -> everything on x1
        cols = cols_from_rows([[1, 1]])
        res = exact_simplex(cols, [F(2)], obj=[F(1), F(3)])
        assert res.status == "optimal"
        assert res.objective == F(2)
        assert res.x == [F(2), F(0)]
        dual_obj = sum(y * b for y, b in zip(res.duals, [F(2)]))
        assert dual_obj == res.objective
        # dual feasibility: reduced costs non-negative
        for j, col in enumerate(cols):
            reduced = [F(1), F(3)][j] - sum(y * c for y, c in zip(res.duals, col))
            assert reduced >= 0

    def test_unbounded_detected(self):
        # min -x with x free to grow: x - s = 0
        cols = cols_from_rows([[1, -1]])
        res = exact_simplex(cols, [F(0)], obj=[F(-1), F(0)])
        assert res.status == "unbounded"

    def test_random_against_float_lp(self):
        rng = random.Random(31)
        for _ in range(20):
            m = rng.randint(1, 4)
            k = rng.randint(m, m + 4)
            rows = [[rng.randint(0, 3) for _ in range(k)] for _ in range(m)]
            x_true = [rng.randint(0, 2) for _ in range(k)]
            b = [F(sum(rows[i][j] * x_true[j] for j in range(k))) for i in range(m)]
            obj = [F(rng.randint(0, 4)) for _ in range(k)]
            res = exact_simplex(cols_from_rows(rows), b, obj=obj)
            assert res.status == "optimal"
            from scipy.optimize import linprog

            ref = linprog(
                [float(v) for v in obj],
                A_eq=np.array(rows, dtype=float),
                b_eq=np.array([float(v) for v in b]),
                bounds=(0, None),
                method="highs",
            )
            assert ref.status == 0
            assert abs(float(res.objective) - ref.fun) < 1e-9
            # duality identity in exact arithmetic
            dual_obj = sum(y * bi for y, bi in zip(res.duals, b))
            assert dual_obj == res.objective


class TestColumnGeneration:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agrees_with_exact_simplex(self, data):
        # random small LPs over an explicit column list; the last row is the
        # normalisation sum q = 1 that the driver's exact Farkas step needs
        m = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 6))
        entry = st.integers(-2, 3)
        rows = [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(m)]
        cols = cols_from_rows([*rows, [1] * k])
        b = [F(data.draw(st.integers(-3, 6)), data.draw(st.integers(1, 4))) for _ in rows] + [F(1)]
        obj = None
        if data.draw(st.booleans()):
            obj = [F(v) for v in data.draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))]
        got = column_generation(ColumnList(dict(enumerate(cols))), b, list(range(k)), obj)
        ref = exact_simplex(cols, b, obj)
        assert got.status == {"optimal": "feasible", "infeasible": "infeasible"}[ref.status]
        if got.status == "infeasible":
            y = got.farkas
            assert sum(yi * bi for yi, bi in zip(y, b)) > 0
            assert all(sum(yi * ci for yi, ci in zip(y, col)) <= 0 for col in cols)
            return
        assert all(v >= 0 for v in got.x)
        for i in range(len(b)):
            assert sum(cols[j][i] * v for j, v in zip(got.keys, got.x)) == b[i]
        if obj is not None:
            value = sum((obj[j] * v for j, v in zip(got.keys, got.x)), F(0))
            assert value == ref.objective
            assert sum(yi * bi for yi, bi in zip(got.duals, b)) == value
            for c, col in zip(obj, cols):
                assert c - sum(yi * ci for yi, ci in zip(got.duals, col)) >= 0


class TestSolveNonnegExact:
    def test_reconstructs_vertex(self):
        cols = cols_from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
        b = [F(1, 2), F(3, 4), F(1)]
        q = solve_nonneg_exact(cols, b)
        assert q is not None
        for i in range(3):
            assert sum(cols[j][i] * q[j] for j in range(3)) == b[i]

    def test_none_on_inconsistent(self):
        cols = cols_from_rows([[1], [1]])
        assert solve_nonneg_exact(cols, [F(1), F(2)]) is None

    def test_none_on_negative_solution(self):
        # unique solution is (-1, 2): must be rejected
        cols = cols_from_rows([[1, 1], [0, 1]])
        assert solve_nonneg_exact(cols, [F(1), F(2)]) is None

    def test_prefer_order_selects_support(self):
        # both single columns solve it; listing the second first prefers it
        cols = cols_from_rows([[1, 1]])
        prefer = [1, 0]
        got = solve_nonneg_exact([cols[j] for j in prefer], [F(1)])
        q = [got[prefer.index(j)] for j in range(len(cols))]
        assert q == [F(0), F(1)]


class TestFloatPhase1:
    def test_feasible(self):
        A = np.array([[1.0, 0.0], [1.0, 1.0]])
        obj, q, y = float_phase1(Csc.from_dense(A), np.array([0.25, 1.0]))
        assert obj < 1e-9
        assert np.allclose(A @ q, [0.25, 1.0], atol=1e-9)

    def test_infeasible_farkas_sign(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        obj, q, y = float_phase1(Csc.from_dense(A), b)
        assert obj > 0.5
        assert y @ b > 0
        assert np.all(A.T @ y < 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slacks_as_the_dense_model(self, data):
        # the appended slack arrays pose [A, I, -I] as linprog gets it densely
        from scipy.optimize import linprog

        A, b, _ = data.draw(dense_lps())
        m, n = A.shape
        c = np.concatenate([np.zeros(n), np.ones(2 * m)])
        ref = linprog(c, A_eq=np.hstack([A, np.eye(m), -np.eye(m)]), b_eq=b, method="highs")
        value, q, y = float_phase1(Csc.from_dense(A), b)
        assert np.float64(value).tobytes() == np.float64(ref.fun).tobytes()
        assert q.tobytes() == ref.x[:n].tobytes()
        marginals = ref.eqlin.marginals
        sign = -1 if float(marginals @ b) < 0 else 1
        assert y.tobytes() == (sign * marginals).tobytes()


def _arrays(A):
    return A.start.tobytes(), A.index.tobytes(), A.value.tobytes(), A.shape


class TestCsc:
    """An oracle's float matrix holds its exact columns, and the master
    grown by `Csc.append`, batch by batch, is byte for byte the one-shot
    conversion of the dense matrix of all its keys."""

    @staticmethod
    def grown(oracle, keys, cuts):
        bounds = [0, *sorted(cuts), len(keys)]
        A = Csc.from_dense(oracle.matrix(keys[: bounds[1]]))
        for lo, hi in zip(bounds[1:], bounds[2:]):
            A = A.append(Csc.from_dense(oracle.matrix(keys[lo:hi])))
        return A

    def check(self, data, oracle, every):
        keys = data.draw(st.permutations(every))
        keys = keys[: data.draw(st.integers(1, len(keys)))]
        cuts = data.draw(st.sets(st.integers(1, len(keys) - 1), max_size=4)) if len(keys) > 1 else set()
        dense = oracle.matrix(keys)
        assert dense.tobytes() == np.array([oracle.column(k) for k in keys], dtype=float).T.tobytes()
        once = Csc.from_dense(dense)
        assert _arrays(self.grown(oracle, keys, cuts)) == _arrays(once)
        assert once.index.dtype == once.start.dtype == np.int32
        assert once.value.dtype == np.float64

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_subset_oracle(self, data):
        n = data.draw(st.integers(1, 5))
        p = [[F(1, 2) if i == j else F(1, 4) for j in range(n)] for i in range(n)]
        self.check(data, _SubsetOracle(TwoPointTarget.from_matrix(p)), list(range(1 << n)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans())
    def test_config_oracle(self, data, intensity):
        target = CorrelationTarget.build(
            n=3, rho_entries=[(0, 1, "1/4"), (1, 2, "1/8"), (2, 2, "1/8")],
            rho1=["1/2", "1/2", "1/2"] if intensity else None, cap=3,
        )
        self.check(data, pp._ConfigOracle(target), enumerate_configs(target))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_column_list(self, data):
        k = data.draw(st.integers(1, 8))
        column = st.lists(st.integers(-2, 2), min_size=4, max_size=4)
        columns = data.draw(st.lists(column, min_size=k, max_size=k))
        self.check(data, ColumnList(dict(enumerate(columns))), list(range(k)))


def floats(A, b, c):
    return np.array(A, dtype=float), np.array(b, dtype=float), np.array(c, dtype=float)


@st.composite
def dense_lps(draw):
    """min c.q s.t. A q = b, q >= 0 with m <= 6 rows, k <= 10 columns and
    small integer entries; some columns zeroed or repeated."""
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 10))
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    A = np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=float)
    for j in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        A[:, j] = 0
    for j, i in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=2)):
        A[:, j] = A[:, i]
    b = draw(st.lists(st.integers(-4, 6), min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-3, 4), min_size=k, max_size=k))
    return floats(A, b, c)


class TestHighs:
    """`_highs` poses the model and options of `linprog(method="highs")`
    itself, so it must give the same status and, at an optimum, the same
    bits."""

    @settings(max_examples=200, deadline=None)
    @given(dense_lps())
    # a zero column and a duplicate column
    @example(floats([[1, 0, 1], [2, 0, 2]], [1, 2], [1, 0, 1]))
    # infeasible: q1 + q2 = 1 and q1 + q2 = 2
    @example(floats([[1, 1], [1, 1]], [1, 2], [0, 0]))
    # unbounded: q1 - q2 = 0 with cost -q1
    @example(floats([[1, -1]], [0], [-1, 0]))
    def test_same_as_linprog(self, lp):
        from scipy.optimize import linprog

        A, b, c = lp
        status, q, y, value = _highs(c, Csc.from_dense(A), b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert status == ref.status
        if status == 0:
            assert q.tobytes() == ref.x.tobytes()
            assert y.tobytes() == ref.eqlin.marginals.tobytes()
            assert np.float64(value).tobytes() == np.float64(ref.fun).tobytes()
        else:
            assert q is y is value is None

    # realkit loads the binding first; `linprog` then imports scipy.optimize,
    # which must reuse that module and give the same bits
    LOAD_FIRST = """
import sys
import numpy as np
from realkit.lp import Csc, _highs, _highs_core
core = _highs_core()
assert 'scipy.optimize' not in sys.modules
from scipy.optimize import linprog
assert sys.modules['scipy.optimize._highspy._core'] is core
rng = np.random.default_rng(3)
# the three @example cases above, then random ones
lps = [([[1, 0, 1], [2, 0, 2]], [1, 2], [1, 0, 1]), ([[1, 1], [1, 1]], [1, 2], [0, 0])]
lps.append(([[1, -1]], [0], [-1, 0]))
for _ in range(200):
    m, k = rng.integers(1, 7), rng.integers(1, 11)
    lps.append((rng.integers(-3, 4, (m, k)), rng.integers(-4, 7, m), rng.integers(-3, 5, k)))
seen = set()
for A, b, c in lps:
    A, b, c = (np.array(v, dtype=float) for v in (A, b, c))
    status, q, y, value = _highs(c, Csc.from_dense(A), b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert status == ref.status
    seen.add(status)
    if status == 0:
        assert q.tobytes() == ref.x.tobytes()
        assert y.tobytes() == ref.eqlin.marginals.tobytes()
        assert np.float64(value).tobytes() == np.float64(ref.fun).tobytes()
print(sorted(seen))
"""

    def test_same_as_linprog_after_the_direct_load(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.LOAD_FIRST],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[0,", "2,", "3]"]

    @pytest.mark.parametrize(
        "start, index, nz, error",
        [
            ([0, 1], [5], 1, "rejected the model"),
            ([0, 2], [1, 1], 2, "rejected the model"),
            ([0, 1], [0, 1], 1, "disagree in length"),
        ],
        ids=["row past the last", "row twice in a column", "more rows than values"],
    )
    def test_malformed_model_raises(self, start, index, nz, error):
        # HiGHS refuses the first two; running the solver it leaves behind can crash
        A = Csc(np.array(start, np.int32), np.array(index, np.int32), np.ones(nz), 2)
        with pytest.raises(RuntimeError, match=error):
            _highs(np.zeros(1), A, np.zeros(2))

    def test_float_lp_min_infeasible(self):
        A, b, c = floats([[1, 1], [1, 1]], [1, 2], [0, 0])
        assert float_lp_min(Csc.from_dense(A), b, c) == ("infeasible", None, None, None)

    def test_float_lp_min_unbounded(self):
        A, b, c = floats([[1, -1]], [0], [-1, 0])
        assert float_lp_min(Csc.from_dense(A), b, c) == ("unbounded", None, None, None)

    def test_float_lp_min_optimal(self):
        # min q1 + 3 q2 s.t. q1 + q2 = 2: all on q1, dual 1
        A, b, c = floats([[1, 1]], [2], [1, 3])
        status, q, y, value = float_lp_min(Csc.from_dense(A), b, c)
        assert status == "optimal" and value == 2.0
        assert q.tolist() == [2.0, 0.0] and y.tolist() == [1.0]
