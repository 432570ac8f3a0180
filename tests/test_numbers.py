from hypothesis import given, settings
from hypothesis import strategies as st

from realkit.errors import InvalidInstance
from realkit.numbers import parse_rational, parse_square

# valid spellings, invalid strings and non-strings; drawing each matrix from
# a few of them makes its entries repeat
POOL = ["1/2", "0.5", "-3/16", "1e-3", "0", "1/0", "x", "", 1, 0, True, 0.5, None]


def parse_each(rows, where):
    """parse_rational on every entry in row order: the matrix, or the first message."""
    try:
        return tuple(
            tuple(parse_rational(v, f"{where}/{i}/{j}") for j, v in enumerate(row))
            for i, row in enumerate(rows)
        )
    except InvalidInstance as exc:
        return str(exc)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=4))
    return [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_parse_square_matches_entrywise_parsing(rows):
    try:
        got = parse_square(rows, "/a")
    except InvalidInstance as exc:
        got = str(exc)
    assert got == parse_each(rows, "/a")
    if not isinstance(got, str):
        shared = {}
        for row, parsed in zip(rows, got):
            for v, x in zip(row, parsed):
                assert type(x) is type(parse_rational(v))
                if isinstance(v, str):
                    assert shared.setdefault(v, x) is x
