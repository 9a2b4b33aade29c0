import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracnsbf.csvfmt import format_tables

COLUMNS = (1, 4, 6, 10)


def reference(table):
    """The rows as per-value `%` formatting writes them."""
    table = np.asarray(table, dtype=float)
    row = "%.17g," * (table.shape[1] - 1) + "%.17g\n"
    return "".join(row % tuple(r) for r in table.tolist()).encode()


def format_one(table):
    (text,) = format_tables([table])
    return text


def as_table(values, cols):
    values = list(values)
    values += [0.0] * (-len(values) % cols)
    return np.array(values, dtype=float).reshape(-1, cols)


def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def edge_values():
    vals = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    vals += [1.7976931348623157e308, -1.7976931348623157e308]
    # the bounds of the vectorized range
    for x in (1e-280, 1e280):
        vals += neighbours(x) + neighbours(-x)
    for e in range(-300, 301):
        vals += neighbours(float("1e%d" % e))
    # 17-digit carries into the next power of ten
    vals += [99999999999999999.0, 9999999999999999.0, 0.99999999999999999]
    vals += [9.99999999999999999e-5, 9.99999999999999999e16, 9.9999999999999995e22]
    # the fixed/scientific switch: decimal exponents -5, -4, 16 and 17
    vals += [1.2345678901234567e-5, 9.87e-5, 1e-4, 1.5e-4, 0.00012345678901234567]
    vals += [1e16, 1.2345678901234567e16, 9.8765432109876543e16, 1e17, 1.2345e17]
    # integer-valued floats, as the order and index columns hold them
    vals += [float(n) for n in (-1, 1, 2, 9, 10, 64, 99, 100, 12345, -987654321)]
    vals += [2.0**53, 2.0**53 + 2, 10.0**15 + 1, 123456789012345678.0]
    # three-digit exponents
    vals += [1.5e100, -2.5e-100, 1.2345678901234567e-123, 6.02e200, -1e-299]
    return [float(v) for v in vals]


@pytest.mark.parametrize("cols", COLUMNS)
def test_edge_values(cols):
    table = as_table(edge_values(), cols)
    assert format_one(table) == reference(table)


@pytest.mark.parametrize("cols", COLUMNS)
def test_empty_table(cols):
    assert format_one(np.empty((0, cols))) == b""


@pytest.mark.parametrize("cols", COLUMNS)
def test_random_tables_over_many_blocks(cols):
    rng = np.random.default_rng(cols)
    n = 30000 - 30000 % cols
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(float)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, size=n)
    decimals = np.round(rng.standard_normal(n) * 1000, rng.integers(0, 6))
    for values in (bits, scaled, decimals):
        table = values.reshape(-1, cols)
        assert format_one(table) == reference(table)


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.floats(), min_size=1, max_size=80),
    st.sampled_from(COLUMNS),
)
def test_matches_percent_formatting(values, cols):
    table = as_table(values, cols)
    assert format_one(table) == reference(table)


# 1 + 2^-17 = 1.00000762939453125 is an exact tie at 17 digits, and 1e300
# and 5e-324 lie outside the vectorized range: all three take the "%" path
CONSTANTS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1 + 2.0**-17, 1e300, 5e-324, -3.5]


@pytest.mark.parametrize("value", CONSTANTS)
@pytest.mark.parametrize("cols", COLUMNS)
def test_constant_columns(value, cols):
    rng = np.random.default_rng(cols)
    table = rng.standard_normal((300, cols))
    for c in range(0, cols, 2):
        table[:, c] = value
    assert format_one(table) == reference(table)
    assert format_one(table[:1]) == reference(table[:1])


def test_mixed_signed_zeros_and_nan_payloads():
    zeros = np.where(np.arange(50) % 7 == 3, -0.0, 0.0)
    payloads = np.full(50, np.nan)
    payloads.view(np.uint64)[::5] ^= 1  # a second NaN payload, still "nan"
    table = np.column_stack((zeros, payloads, np.zeros(50), -zeros))
    assert format_one(table) == reference(table)
    assert format_one(table[:, 1:2]) == reference(table[:, 1:2])


@pytest.mark.parametrize("changed", [(0.0, -0.0), (0.0, 1e-300), (0.25, 0.5)])
@pytest.mark.parametrize("reuse_buffer", [False, True])
def test_repeated_columns_across_tables(changed, reuse_buffer):
    old, new = changed
    rng = np.random.default_rng(7)
    base = rng.standard_normal(4000)
    base[1234] = old
    other = base.copy()
    other[1234] = new
    # column 1 repeats in tables 1 and 2, differs in one value in table 3,
    # repeats in table 4 and goes back in table 5; table 6 has fewer rows
    columns = [base, base, base, other, other, base, base[:3000]]
    tables = []
    for k, col in enumerate(columns):
        table = rng.standard_normal((col.size, 4))
        table[:, 0] = k
        table[:, 1] = col
        table[:, 3] = 0.0 if k % 2 else -0.0
        tables.append(table)

    def supply():
        # one array, rewritten in place for every table, when reuse_buffer
        buf = np.empty_like(tables[0])
        for table in tables:
            if reuse_buffer and table.shape == buf.shape:
                buf[...] = table
                yield buf
            else:
                yield table

    assert list(format_tables(supply())) == [reference(t) for t in tables]


def test_empty_table_between_repeats():
    table = np.arange(12.0).reshape(6, 2)
    tables = [table, np.empty((0, 2)), table, table + 1, table + 1]
    assert list(format_tables(tables)) == [reference(t) for t in tables]
