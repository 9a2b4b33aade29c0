import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracnsbf.csvfmt import format_table

COLUMNS = (1, 4, 6, 10)


def reference(table):
    """The rows as per-value `%` formatting writes them."""
    table = np.asarray(table, dtype=float)
    row = "%.17g," * (table.shape[1] - 1) + "%.17g\n"
    return "".join(row % tuple(r) for r in table.tolist()).encode()


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
    assert format_table(table) == reference(table)


@pytest.mark.parametrize("cols", COLUMNS)
def test_empty_table(cols):
    assert format_table(np.empty((0, cols))) == b""


@pytest.mark.parametrize("cols", COLUMNS)
def test_random_tables_over_many_blocks(cols):
    rng = np.random.default_rng(cols)
    n = 30000 - 30000 % cols
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(float)
    scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, size=n)
    decimals = np.round(rng.standard_normal(n) * 1000, rng.integers(0, 6))
    for values in (bits, scaled, decimals):
        table = values.reshape(-1, cols)
        assert format_table(table) == reference(table)


@settings(derandomize=True, deadline=None)
@given(
    st.lists(st.floats(), min_size=1, max_size=80),
    st.sampled_from(COLUMNS),
)
def test_matches_percent_formatting(values, cols):
    table = as_table(values, cols)
    assert format_table(table) == reference(table)
