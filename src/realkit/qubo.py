"""Exact minimisation of c + sum_{i<=j} a_ij 1{i,j in F} over subsets F.

This is the workhorse that prices columns for the set-realisation LP and
re-verifies infeasibility certificates. One blocked enumeration covers all
2^n subsets up to n = 30: a value table over the low min(n, LOW_BITS)
indices is built by doubling, once for each subset H of the remaining high
indices (the table for H is the functional restricted to the low indices,
with constant g(H) and diagonal shifted by sum_{h in H} a_hi), in place in
preallocated arrays, reading only the upper triangle. Exact input is cleared
once, over the lcm of its distinct denominators, into the narrowest of int16,
int32 and int64 that holds the scaled coefficients' absolute sum, which bounds
every partial sum, or into Python integers past int64; pricing runs the same
tables in float64. Ties among minimisers are broken by one numpy pass over
their bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import CapExceeded, InvalidInstance
from .numbers import clear_denominators

LOW_BITS = 20
MAX_N = 30
_EXACT_DTYPES = (np.int16, np.int32, np.int64)


def pair_list(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j) with i <= j, row by row."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def pair_matrix(n: int, values) -> list[list]:
    """Symmetric n x n matrix with `values` on the pairs of `pair_list(n)`."""
    a = [[0] * n for _ in range(n)]
    for (i, j), v in zip(pair_list(n), values):
        a[i][j] = a[j][i] = v
    return a


def check_symmetric(a: Sequence[Sequence], n: int) -> None:
    if len(a) != n or any(len(row) != n for row in a):
        raise InvalidInstance("coefficient matrix must be n x n")
    for i in range(n):
        for j in range(i + 1, n):
            x, y = a[i][j], a[j][i]
            # one shared int or Fraction equals itself; a shared float NaN does not
            if (x is not y or not isinstance(x, (int, Fraction))) and x != y:
                raise InvalidInstance(f"coefficient matrix not symmetric at ({i},{j})")


def evaluate_g(c, a: Sequence[Sequence], subset) -> Fraction:
    """Value of the induced set functional at one subset (upper-triangle sum)."""
    members = sorted(subset)
    n = len(a)
    check_symmetric(a, n)
    total = c
    for pos, i in enumerate(members):
        if i < 0 or i >= n:
            raise InvalidInstance(f"subset index {i} out of range")
        total = total + a[i][i]
        for j in members[pos + 1 :]:
            total = total + a[i][j]
    return total


def lex_min_mask(masks) -> int:
    """Among bitmask-coded subsets, the one whose sorted index tuple is
    lexicographically smallest (the empty set first)."""
    masks = np.asarray(masks, dtype=np.int64)
    if not masks.size:
        raise ValueError("no masks given")
    prefix = 0
    while masks.all():
        lows = masks & -masks
        low = lows.min()
        prefix |= int(low)
        masks = masks[lows == low] ^ low
    return prefix


def _mask_to_subset(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def _table(c, a, diag, lo: int, dtype) -> np.ndarray:
    """Values of c + sum_{k in L} diag_k + sum_{j<k in L} a_jk for every
    subset L of range(lo), indexed by the bitmask of L (doubling over k)."""
    vals = np.empty(1 << lo, dtype=dtype)
    deltas = np.empty(1 << max(lo - 1, 0), dtype=dtype)
    vals[0] = c
    for k in range(lo):
        # value of S + {k} = value of S + deltas[S], deltas[S] = diag_k + sum_{j in S} a_jk
        deltas[0] = diag[k]
        for j in range(k):
            np.add(deltas[: 1 << j], a[j][k], out=deltas[1 << j : 2 << j])
        h = 1 << k
        np.add(vals[:h], deltas[:h], out=vals[h : 2 * h])
    return vals


def _blocks(c, a, n: int, dtype):
    """(high mask, value table) for each subset H of the indices >= LOW_BITS;
    entry m of the table is the functional at H | m."""
    if n > MAX_N:
        raise CapExceeded(f"n={n} above the exact cap {MAX_N}")
    lo = min(n, LOW_BITS)
    for high in range(1 << (n - lo)):
        members = [lo + t for t in range(n - lo) if high >> t & 1]
        base = c
        diag = [a[k][k] for k in range(lo)]
        for x, h in enumerate(members):
            for g in members[x:]:
                base = base + a[h][g]
            for k in range(lo):
                diag[k] = diag[k] + a[k][h]
        yield high << lo, _table(base, a, diag, lo, dtype)


def qubo_topk_float(c: float, a, n: int, k: int) -> list[tuple[int, float]]:
    """Masks of the k smallest functional values in float64, smallest first.

    Used by column generation to add several priced columns per round.
    """
    af = np.asarray(a, dtype=float).tolist()
    top_vals, top_masks = [], []
    for high, vals in _blocks(float(c), af, n, np.float64):
        kk = min(k, len(vals))
        idx = np.argpartition(vals, kk - 1)[:kk]
        idx = idx[np.argsort(vals[idx], kind="stable")]
        top_vals.append(vals[idx])
        top_masks.append(idx + high)
    vals = np.concatenate(top_vals)
    masks = np.concatenate(top_masks)
    order = np.argsort(vals, kind="stable")[:k]
    return [(int(masks[m]), float(vals[m])) for m in order]


def qubo_min(c, a: Sequence[Sequence], n: int) -> tuple[frozenset[int], object]:
    """Exact global minimum of the subset functional (a Fraction); ties go
    to the subset whose sorted index tuple is lexicographically smallest."""
    if n < 0:
        raise InvalidInstance("n must be non-negative")
    check_symmetric(a, n)
    if n == 0:
        return frozenset(), c
    # `_blocks` reads only the upper triangle: row i is i zeros, then a[i][i:] cleared
    flat, scale = clear_denominators([c, *(v for i in range(n) for v in a[i][i:])])
    ci, rest = flat[0], iter(flat[1:])
    ai = [[0] * i + list(islice(rest, n - i)) for i in range(n)]
    total = sum(abs(x) for x in flat)
    dtype = next((t for t in _EXACT_DTYPES if total <= np.iinfo(t).max), object)
    best, winners = None, []
    for high, vals in _blocks(ci, ai, n, dtype):
        low = int(vals.min())
        if best is None or low < best:
            best, winners = low, []
        if low == best:
            winners.append(lex_min_mask(np.flatnonzero(vals == low) | high))
        del vals  # one live table: two freed together were paged in anew on every call
    return _mask_to_subset(lex_min_mask(winners)), Fraction(best, scale)
