"""Exact rational parsing, formatting and guarded square roots.

All instance files carry numbers as decimal strings ("0.25") or fraction
strings ("1/3"); they are stored as `fractions.Fraction` so that strict
comparisons (d <= t versus d > t) never depend on binary rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInstance

INF = math.inf
_SQRT_BITS = 96


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse a decimal or fraction string (or int) to an exact Fraction.

    Bare floats are rejected: instance files must use strings to keep
    exactness explicit.
    """
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstance(f"{where}: cannot parse {value!r} as a rational") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInstance(f"{where}: expected a number string, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidInstance(
            f"{where}: floats are not accepted in instance files; "
            f"write the number as a decimal string"
        )
    raise InvalidInstance(f"{where}: cannot parse {type(value).__name__} as a rational")


def parse_int(value, where: str = "value") -> int:
    """An integer field: a JSON integer, not a bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInstance(f"{where}: expected an integer, got {value!r}")
    return value


def parse_bool(value, where: str = "value") -> bool:
    """A flag: JSON true or false, not a string or a number."""
    if not isinstance(value, bool):
        raise InvalidInstance(f"{where}: expected true or false, got {value!r}")
    return value


_REQUIRED = object()


def field(obj, key: str, where: str, default=_REQUIRED):
    """The value of `key` in the JSON object `obj`, which `where` names; a
    missing key gives `default`, or is invalid when no default is given."""
    if not isinstance(obj, dict):
        raise InvalidInstance(f"{where}: expected a JSON object")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise InvalidInstance(f"{where}: expected key {key!r}")
    return default


def parse_list(value, where: str, length: int | None = None) -> list:
    """A JSON array, of `length` entries when that is given."""
    if not isinstance(value, list):
        raise InvalidInstance(f"{where}: expected a list, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise InvalidInstance(f"{where}: expected a list of {length} entries, got {len(value)}")
    return value


def parse_rationals(value, where: str, length: int | None = None) -> tuple[Fraction, ...]:
    """A JSON array of rationals, of `length` entries when that is given;
    entry k is named where/k."""
    values = parse_list(value, where, length)
    return tuple([parse_rational(v, f"{where}/{k}") for k, v in enumerate(values)])


def parse_square(rows, where: str, n: int | None = None) -> tuple[tuple[Fraction, ...], ...]:
    """A non-empty n x n matrix of rationals, of any size n when n is None;
    entry (i, j) is named where/i/j. Each distinct string is parsed once,
    and the entries that repeat it share one Fraction."""
    if n is None and isinstance(rows, list):
        n = len(rows)
    if not n or not isinstance(rows, list) or len(rows) != n or any(
        not isinstance(row, list) or len(row) != n for row in rows
    ):
        shape = f"a {n} x {n}" if n else "a non-empty square"
        raise InvalidInstance(f"{where}: expected {shape} matrix")
    parsed: dict[str, Fraction] = {}  # only strings that parse, so the first bad entry is named
    out = []
    for i, row in enumerate(rows):
        values = []
        for j, v in enumerate(row):
            if not isinstance(v, str):
                x = parse_rational(v, f"{where}/{i}/{j}")
            elif (x := parsed.get(v)) is None:
                x = parsed[v] = parse_rational(v, f"{where}/{i}/{j}")
            values.append(x)
        out.append(tuple(values))
    return tuple(out)


def clear_denominators(values) -> tuple[list[int], int]:
    """Integers g and the least den > 0 with values[k] == g[k] / den, for
    ints, Fractions and floats alike (a float is taken exactly)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in ratios})
    return [p * (den // d) for p, d in ratios], den


def format_rational(x) -> str:
    """Format exactly: terminating decimal when possible, else 'p/q'."""
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    if den == 1:
        return str(num)
    # denominator 2^a * 5^b terminates in base 10
    d = den
    twos = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    fives = 0
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10**digits // den
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def sqrt_interval(x: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosing interval [lo, hi] for sqrt(x), width below 2**-_SQRT_BITS relative.

    Used where a Euclidean norm of rational points is irrational; verdicts
    are drawn only when the whole interval lies on one side of the bound.
    """
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Fraction(0), Fraction(0)
    p, q = x.numerator, x.denominator
    # sqrt(p/q) = isqrt(p*q*4^k) / (q*2^k) up to one ulp; exact on squares
    scale = 1 << _SQRT_BITS
    n = p * q * scale * scale
    r = math.isqrt(n)
    if r * r == n:
        exact = Fraction(r, q * scale)
        return exact, exact
    lo = Fraction(r, q * scale)
    hi = Fraction(r + 1, q * scale)
    return lo, hi


def norm_sq(point: tuple[Fraction, ...], other: tuple[Fraction, ...] | None = None) -> Fraction:
    """Squared Euclidean distance between rational points (exact)."""
    if other is None:
        return sum((c * c for c in point), Fraction(0))
    if len(point) != len(other):
        raise InvalidInstance("points of different dimension")
    return sum(((a - b) * (a - b) for a, b in zip(point, other)), Fraction(0))


def pow_neg_half_d(sq: Fraction, d: int) -> tuple:
    """Interval for sq**(-d/2), i.e. ||.||^{-d} given the squared norm.

    Exact single value (lo == hi) when d is even; a tight enclosure when d
    is odd. sq == 0 maps to +inf.
    """
    if sq < 0:
        raise ValueError("negative squared norm")
    if sq == 0:
        return (INF, INF)
    if d % 2 == 0:
        v = sq ** (-(d // 2))
        return (v, v)
    lo, hi = sqrt_interval(sq**d)
    return (1 / hi, 1 / lo)


def compare_rational_to_sqrt(q: Fraction, s_sq: Fraction) -> int:
    """Sign of (q - sqrt(s_sq)) computed exactly: -1, 0 or +1."""
    if s_sq < 0:
        raise ValueError("negative radicand")
    if q < 0:
        return 0 if (q == 0 and s_sq == 0) else -1
    left = q * q
    if left == s_sq:
        return 0
    return 1 if left > s_sq else -1


def validate_mixture(atoms, kind: str) -> None:
    """Distinct `kind` (the first item of each atom), positive weights (the
    second) summing to exactly one; raises InvalidInstance otherwise."""
    seen = set()
    total = 0
    for key, w in atoms:
        if key in seen:
            raise InvalidInstance(f"mixture has duplicate {kind}")
        seen.add(key)
        if w <= 0:
            raise InvalidInstance("mixture weights must be positive")
        total = total + w
    if total != 1:
        raise InvalidInstance(f"mixture weights sum to {total}, not 1")
