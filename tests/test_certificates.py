"""`verify_certificate` and `verify_pp_certificate` against a check written
here from the documented rules.

The cases draw a functional as (c, a, blin) and the certificate under test
is built from it by `Certificate.from_functional`; the oracle reads only
the drawn (c, a, blin), never the certificate's integer vector. It
enumerates every column with itertools and evaluates the functional G
straight from its definition. It applies the checks in the order
`lp.check_certificate` documents (size, symmetry, length of blin,
normalisation, a linear part only on a target with an intensity, minimum,
stored minimiser, pairing, gap) and names the minimum's column by the tie
rules: the lexicographically smallest sorted subset, and the
lexicographically smallest multiplicity vector.
"""

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realkit.cli import _certificate_payload
from realkit.errors import InvalidInstance
from realkit.lp import Certificate
from realkit.numbers import format_rational
from realkit.pp import CorrelationTarget, verify_pp_certificate
from realkit.setrealize import TwoPointTarget, verify_certificate

SMALL = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4]))
NUDGES = st.sampled_from([F(0), F(0), F(0), F(1, 8), F(-1, 8)])


def pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class Drawn:
    """A drawn certificate as (c, a, blin): what the oracle reads."""

    kind: str
    n: int
    c: F
    a: tuple
    blin: tuple | None
    gap: F
    minimizer: tuple


def built(drawn: Drawn) -> Certificate:
    return Certificate.from_functional(
        drawn.kind, drawn.n, drawn.c, drawn.a, drawn.blin, drawn.gap, drawn.minimizer
    )


def subsets(n):
    """Every subset of range(n) as a sorted tuple, in lexicographic order."""
    found = (itertools.combinations(range(n), k) for k in range(n + 1))
    return sorted(itertools.chain.from_iterable(found))


def configurations(n, cap, simple):
    """Every admissible multiplicity vector, in lexicographic order."""
    per_point = 1 if simple else cap
    return [m for m in itertools.product(range(per_point + 1), repeat=n) if sum(m) <= cap]


def subset_name(members):
    return f"subset {list(members)}"


def set_value(c, a, blin, members):
    return c + sum((a[i][j] for i, j in itertools.combinations_with_replacement(members, 2)), F(0))


def config_value(c, a, blin, m):
    total = c + sum((blin[i] * m[i] for i in range(len(m))), F(0)) if blin else c
    for i, j in pairs(len(m)):
        total += a[i][j] * (m[i] * (m[i] - 1) if i == j else m[i] * m[j])
    return total


def shape_reason(cert, n):
    """The reason of the first failing check that needs no column, or None."""
    if cert.n != n:
        return "certificate size does not match target"
    a = cert.a
    if len(a) != n or any(len(row) != n for row in a):
        return "coefficient matrix must be n x n"
    for i, j in itertools.combinations(range(n), 2):
        if a[i][j] != a[j][i]:
            return f"coefficient matrix not symmetric at ({i},{j})"
    if cert.blin is not None and len(cert.blin) != n:
        return "linear part has wrong length"
    if max(abs(v) for v in [*(a[i][j] for i, j in pairs(n)), *(cert.blin or ())]) != 1:
        if cert.blin is None:
            return "normalisation violated: max |a_ij| must equal 1"
        return "normalisation violated: max |(a, blin)| must equal 1"
    return None


def column_reason(cert, values, stored, name, pairing):
    """The reason from the minimum on: `values` maps every column, in
    lexicographic order, to G there; `stored` is the column the stored
    minimiser names, or None."""
    low = min(values.values())
    if low < 0:
        where = next(col for col, v in values.items() if v == low)
        return False, f"functional attains {low} < 0 at {name(where)}"
    if stored is None:
        return False, "stored minimizer is not an admissible configuration"
    if values[stored] != low:
        return False, "stored minimizer does not attain the global minimum"
    if pairing >= 0:
        return False, f"pairing with the target is {pairing} >= 0"
    if -pairing != cert.gap:
        return False, "stored gap does not match the recomputed pairing"
    return True, "certificate valid"


def set_pairing(cert, target):
    return cert.c + sum((cert.a[i][j] * target.p[i][j] for i, j in pairs(cert.n)), F(0))


def pp_pairing(cert, target):
    total = cert.c + sum((cert.a[i][j] * target.rho_value(i, j) for i, j in pairs(cert.n)), F(0))
    if cert.blin is not None and target.rho1 is not None:
        total += sum((u * v for u, v in zip(cert.blin, target.rho1)), F(0))
    return total


def expected_set(cert, target):
    reason = shape_reason(cert, target.n)
    if reason is not None:
        return False, reason
    values = {s: set_value(cert.c, cert.a, None, s) for s in subsets(cert.n)}
    members = cert.minimizer
    distinct = len(set(members)) == len(members) and all(0 <= i < cert.n for i in members)
    stored = tuple(sorted(members)) if distinct else None
    return column_reason(cert, values, stored, subset_name, set_pairing(cert, target))


def expected_pp(cert, target):
    """(ok, reason), or the InvalidInstance the check must raise."""
    reason = shape_reason(cert, target.n)
    if reason is not None:
        return False, reason
    if cert.blin is not None and target.rho1 is None:
        return InvalidInstance("certificate has a linear part but the target no intensity")
    configs = configurations(cert.n, target.cap, target.simple)
    values = {m: config_value(cert.c, cert.a, cert.blin, m) for m in configs}
    stored = cert.minimizer if cert.minimizer in values else None
    return column_reason(cert, values, stored, str, pp_pairing(cert, target))


def often(draw) -> bool:
    """Mostly True: five of the six choices are."""
    return draw(st.sampled_from([True] * 5 + [False]))


@st.composite
def coefficients(draw, n, linear):
    """(a, blin) of small fractions, usually scaled to max |(a, blin)| = 1,
    now and then with a wrong shape, an asymmetry or a blin of wrong length."""
    a = [[F(0)] * n for _ in range(n)]
    for i, j in pairs(n):
        a[i][j] = a[j][i] = draw(SMALL)
    blin = [draw(SMALL) for _ in range(n)] if linear else None
    top = max(abs(v) for v in [*(a[i][j] for i, j in pairs(n)), *(blin or ())])
    if top and often(draw):
        a = [[v / top for v in row] for row in a]
        blin = blin and [v / top for v in blin]
    flaw = draw(st.sampled_from(["none"] * 12 + ["shape", "asymmetric", "blin-length"]))
    if flaw == "shape":
        a = a[:-1]
    elif flaw == "asymmetric" and n > 1:
        i, j = sorted(draw(st.permutations(range(n)))[:2])
        a[j][i] += 1
    elif flaw == "blin-length" and blin is not None:
        blin = blin[:-1]
    return tuple(map(tuple, a)), None if blin is None else tuple(blin)


@st.composite
def certificates(draw, kind, n, columns, value, minimizers):
    """A certificate on n points whose constant is usually minus the
    minimum of the rest over `columns`, nudged now and then, and whose
    minimiser is mostly a column attaining the minimum. The gap is random;
    the cases set it from the target."""
    linear = kind == "pp" and draw(st.booleans())
    cert_n = draw(st.sampled_from([n] * 9 + [n + 1]))
    a, blin = draw(coefficients(cert_n, linear))
    cert = Drawn(kind, cert_n, draw(SMALL), a, blin, draw(SMALL), ())
    if shape_reason(cert, n):
        return cert
    rest = {col: value(F(0), a, blin, col) for col in columns}
    c = -min(rest.values()) + draw(NUDGES) if often(draw) else cert.c
    low = min(c + v for v in rest.values())
    tight = [col for col in columns if c + rest[col] == low]
    return replace(cert, c=c, minimizer=tuple(draw(minimizers(tight, columns))))


def set_minimizers(n):
    def draw_one(tight, columns):
        return st.one_of(
            st.sampled_from(tight),
            st.sampled_from(tight),
            st.sampled_from(tight).flatmap(st.permutations),
            st.sampled_from(columns),
            st.sampled_from(tight).map(lambda s: (*s, s[0]) if s else (0, 0)),
            st.sampled_from(tight).map(lambda s: (*s, n)),
            st.sampled_from(tight).map(lambda s: (-1, *s)),
        )

    return draw_one


def pp_minimizers(n, cap):
    def draw_one(tight, columns):
        return st.one_of(
            st.sampled_from(tight),
            st.sampled_from(tight),
            st.sampled_from(columns),
            st.lists(st.integers(-1, cap + 1), min_size=n, max_size=n).map(tuple),
            st.sampled_from(tight).map(lambda m: (*m, 0)),
            st.sampled_from(tight).map(lambda m: m[:-1]),
        )

    return draw_one


def moment(draw, adverse: bool, coefficient) -> F:
    """A quarter at random, or, against a well-formed certificate, 1 where
    its coefficient is negative and 0 elsewhere, so that it often pairs
    negatively."""
    if adverse:
        return F(int(coefficient < 0))
    return F(draw(st.integers(0, 4)), 4)


@st.composite
def set_cases(draw):
    """(certificate, target) with n <= 5 and the stored gap usually minus
    the pairing."""
    n = draw(st.integers(1, 5))
    cert = draw(certificates("set", n, subsets(n), set_value, set_minimizers(n)))
    adverse = not shape_reason(cert, n) and often(draw)
    p = [[F(0)] * n for _ in range(n)]
    for i, j in pairs(n):
        p[i][j] = p[j][i] = moment(draw, adverse, adverse and cert.a[i][j])
    target = TwoPointTarget.from_matrix(p)
    if not shape_reason(cert, n):
        cert = replace(cert, gap=-set_pairing(cert, target) + draw(NUDGES))
    return cert, target


@st.composite
def pp_cases(draw):
    """(certificate, target) with n <= 3, cap <= 3, simple or not, with or
    without an intensity, and the stored gap usually minus the pairing."""
    n, cap, simple = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.booleans())
    columns = configurations(n, cap, simple)
    cert = draw(certificates("pp", n, columns, config_value, pp_minimizers(n, cap)))
    adverse = not shape_reason(cert, n) and often(draw)
    rho = [(i, j, moment(draw, adverse, adverse and cert.a[i][j])) for i, j in pairs(n)]
    rho1 = None
    if draw(st.booleans()):
        blin = (adverse and cert.blin) or [0] * n
        rho1 = [moment(draw, adverse, blin[i]) for i in range(n)]
    target = CorrelationTarget.build(n=n, rho_entries=rho, rho1=rho1, cap=cap, simple=simple)
    if not shape_reason(cert, n):
        cert = replace(cert, gap=-pp_pairing(cert, target) + draw(NUDGES))
    return cert, target


class TestAgainstEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(set_cases())
    def test_set_certificates(self, case):
        drawn, target = case
        assert verify_certificate(built(drawn), target) == expected_set(drawn, target)

    @settings(max_examples=300, deadline=None)
    @given(pp_cases())
    def test_pp_certificates(self, case):
        drawn, target = case
        expected = expected_pp(drawn, target)
        if isinstance(expected, InvalidInstance):
            with pytest.raises(InvalidInstance, match=f"^{expected}$"):
                verify_pp_certificate(built(drawn), target)
        else:
            assert verify_pp_certificate(built(drawn), target) == expected


def formatted(values):
    return [format_rational(v) for v in values]


@st.composite
def functionals(draw):
    """A well-formed (c, a, blin) on n <= 4 points, set or pp, blin None or
    not for pp, with entries of mixed denominators."""
    kind = draw(st.sampled_from(["set", "pp"]))
    n = draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
    a = [[F(0)] * n for _ in range(n)]
    for i, j in pairs(n):
        a[i][j] = a[j][i] = draw(entry)
    blin = tuple(draw(entry) for _ in range(n)) if kind == "pp" and draw(st.booleans()) else None
    minimizer = tuple(draw(st.lists(st.integers(0, 3), max_size=n)))
    return Drawn(kind, n, draw(entry), tuple(map(tuple, a)), blin, draw(entry), minimizer)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(functionals())
    def test_payload_gives_back_the_functional(self, drawn):
        payload = _certificate_payload(built(drawn))
        want = {
            "kind": drawn.kind,
            "n": drawn.n,
            "c": format_rational(drawn.c),
            "a": [formatted(row) for row in drawn.a],
            "gap": format_rational(drawn.gap),
            "minimizer": list(drawn.minimizer),
        }
        if drawn.kind == "pp":
            want["blin"] = None if drawn.blin is None else formatted(drawn.blin)
        assert payload == want


class TestCheckOrder:
    TARGET = TwoPointTarget.from_matrix([["1/2", "0"], ["0", "1/2"]])
    ASYMMETRIC = ((F(-1), F(1), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(-1)))

    @pytest.mark.parametrize(
        "n, a, reason",
        [
            # three points against a two-point target, and a not symmetric at (0,1)
            (3, ASYMMETRIC, "certificate size does not match target"),
            # a 2 x 3 matrix on two points, asymmetric in its first rows too
            (2, ASYMMETRIC[:2], "coefficient matrix must be n x n"),
        ],
    )
    def test_size_is_reported_before_symmetry(self, n, a, reason):
        cert = Certificate.from_functional("set", n, F(1), a, None, F(1), ())
        assert verify_certificate(cert, self.TARGET) == (False, reason)
