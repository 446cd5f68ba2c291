"""Grid, tableau and data-source behavior."""

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvloewner import (
    DenseSource,
    GridError,
    OffGridError,
    OracleSource,
    Tableau,
    VariableGrid,
    evaluate,
    parse,
    source_from_dict,
    source_to_dict,
)
from mvloewner.grids import _complex_to_pairs


def test_disjoint_ok_on_clean_grid():
    grid = VariableGrid("s", [1, 3, 5], [2, 4, 6, 8])
    np.testing.assert_array_equal(grid.union_points, [1, 3, 5, 2, 4, 6, 8])


def test_disjoint_reports_duplicate():
    # a repeated point among the columns, among the rows, or across both
    for cols, rows, repeated in (
        ([1], [1], r"\(1\+0j\)"),
        ([0.1, 0.1, 0.9], [0.2, 0.4, 0.6, 0.8], r"\(0\.1\+0j\)"),
        ([1, 2], [3, 3j, 3], r"\(3\+0j\)"),
        ([0.0, 1.0], [-0.0], r"0j"),
    ):
        with pytest.raises(GridError, match=f"variable 's' repeats the grid point {repeated}"):
            VariableGrid("s", cols, rows)


def test_selection_rejects_coincident_points():
    # a selection is its variables' grids, so a point both a column and a row is refused there
    with pytest.raises(GridError, match=r"variable 's' repeats the grid point \(2\+0j\)"):
        VariableGrid("s", [1.0, 2.0], [2.0, 3.0])


def test_single_column_point_is_fine():
    source = OracleSource(parse("s", ["s"]), [VariableGrid("s", [0], [])])
    np.testing.assert_array_equal(source.values_on_product([[0]]), [0])


def test_fiber_reads_a_tableau_column(source_2d):
    dense = source_2d.densify()
    values = dense.values_on_product([dense.grids[0].union_points, [-3]]).reshape(-1)
    np.testing.assert_allclose(
        values, [-3 / 5, -27 / 7, -25 / 3, 0, -2, -6], atol=1e-14
    )


def test_fiber_on_single_variable_is_identity(source_1d):
    dense = source_1d.densify()
    values = dense.values_on_product([dense.grids[0].union_points])
    np.testing.assert_array_equal(values, dense.tableau.values)


def test_oracle_fiber_evaluates_expression():
    expr = parse("(s^2*t)/(s-t+1)", ["s", "t"])
    grids = [VariableGrid("s", [1], []), VariableGrid("t", [-1, -3], [])]
    source = OracleSource(expr, grids)
    values = source.values_on_product([[1], grids[1].union_points]).reshape(-1)
    np.testing.assert_allclose(values, [-1 / 3, -3 / 5], atol=1e-15)


def test_fiber_requires_on_grid_frozen_point(source_2d):
    dense = source_2d.densify()
    with pytest.raises(OffGridError):
        dense.values_on_product([dense.grids[0].union_points, [-7]])


# a few values, signed zeros among them, so queries repeat and meet zeros of either sign
GRID_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, 1j, -1j, complex(-0.0, -0.0), 1 + 1j, 2.0]
)


def first_match_loop(pool, values):
    """The per-value lookup ``indices_of`` replaces; None marks a missing value."""
    out = []
    for value in values:
        matches = np.nonzero(pool == value)[0]
        out.append(int(matches[0]) if matches.size else None)
    return out


@settings(max_examples=500, deadline=None)
@given(
    # distinct grid points (equal by ==, so 0.0 and -0.0 are one point); past 16
    # points numpy's default sort is no longer stable
    st.lists(
        GRID_VALUES | st.integers(-12, 12).map(lambda i: complex(i / 4, i % 3)),
        min_size=1,
        max_size=40,
        unique=True,
    ),
    st.integers(1, 40),
    st.lists(GRID_VALUES | st.sampled_from([3.0, -2j]), max_size=10),
)
def test_indices_of_matches_first_match_loop(points, split, values):
    grid = VariableGrid("x", points[:split], points[split:])
    queries = np.asarray(values, dtype=complex)
    expected = first_match_loop(grid.union_points, queries)
    if None in expected:
        missing = queries[expected.index(None)]
        with pytest.raises(OffGridError, match=f"^{re.escape(str(missing))} is not a grid point"):
            grid.indices_of(queries)
    else:
        np.testing.assert_array_equal(grid.indices_of(queries), np.asarray(expected, dtype=int))


def test_indices_of_on_a_large_grid():
    # a comparison matrix of this size would need 10**10 entries
    points = np.random.default_rng(0).permutation(100_000) / 7.0
    grid = VariableGrid("x", points[:50_000], points[50_000:])
    order = np.random.default_rng(1).permutation(100_000)
    np.testing.assert_array_equal(grid.indices_of(grid.union_points[order]), order)


def test_value_at_worked_entries(source_2d, source_3d):
    assert source_2d.value_at((1, -1)) == pytest.approx(-1 / 3)
    assert source_3d.value_at((2, 1, 5)) == pytest.approx(1 / 4)
    dense = source_2d.densify()
    assert dense.value_at((1, -1)) == pytest.approx(-1 / 3)


def test_value_at_rejects_off_grid(source_2d):
    with pytest.raises(OffGridError):
        source_2d.value_at((1.5, -1))


def _bits(value):
    return value.real.hex(), value.imag.hex()


@pytest.mark.parametrize(
    "name", ["source_1d", "source_2d", "source_3d", "source_kst", "source_synth2d"]
)
def test_value_at_is_the_scalar_read_on_every_grid_tuple(request, name):
    # one scalar evaluation of the expression, one tableau entry: bit for bit
    source = request.getfixturevalue(name)
    sources = [source.densify(), source] if isinstance(source, OracleSource) else [source]
    for index in np.ndindex(*(g.union_points.size for g in source.grids)):
        point = tuple(g.union_points[i] for g, i in zip(source.grids, index))
        for each in sources:
            if isinstance(each, OracleSource):
                assignment = {g.name: complex(v) for g, v in zip(each.grids, point)}
                expected = complex(evaluate(each.expression, assignment))
            else:
                expected = complex(each.tableau.values[index])
            value = each.value_at(point)
            assert type(value) is complex and _bits(value) == _bits(expected)


def test_both_sources_refuse_a_wrong_number_of_point_lists(source_2d):
    for source in (source_2d, source_2d.densify()):
        for per_var in ([[1]], [[1], [-1], [-1]], []):
            with pytest.raises(GridError, match=f"expected 2 point lists, got {len(per_var)}"):
                source.values_on_product(per_var)
        for point in ((1,), (1, -1, -1)):
            with pytest.raises(GridError, match=f"expected 2 point lists, got {len(point)}"):
                source.value_at(point)


def test_fiber_matches_value_at_exhaustively():
    rng = np.random.default_rng(5)
    grids = [
        VariableGrid(f"x{l}", rng.uniform(-1, 1, 2), rng.uniform(2, 3, 2))
        for l in range(4)
    ]
    values = rng.normal(size=(4, 4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4, 4))
    dense = DenseSource(Tableau(grids, values))
    for free in range(4):
        pools = [g.union_points for l, g in enumerate(grids) if l != free]
        for combo in itertools.product(*pools):
            frozen = dict(zip([l for l in range(4) if l != free], combo))
            per_var = [[frozen[l]] if l != free else g.union_points for l, g in enumerate(grids)]
            fiber = dense.values_on_product(per_var).reshape(-1)
            for i, value in enumerate(grids[free].union_points):
                point = [0] * 4
                for l, v in frozen.items():
                    point[l] = v
                point[free] = value
                assert fiber[i] == dense.value_at(tuple(point))


def test_oracle_agrees_with_densified_copy(source_3d):
    dense = source_3d.densify()
    pools = [g.union_points for g in source_3d.grids]
    for combo in itertools.product(*pools):
        a = source_3d.value_at(combo)
        b = dense.value_at(combo)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


def test_tableau_shape_and_finiteness_validation():
    grids = [VariableGrid("s", [1], [2])]
    with pytest.raises(GridError, match="shape"):
        Tableau(grids, np.zeros(3, dtype=complex))
    with pytest.raises(GridError, match="finite"):
        Tableau(grids, np.array([1.0, np.inf]))


def test_json_round_trip_dense(source_2d, tmp_path):
    dense = source_2d.densify()
    doc = source_to_dict(dense)
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc))
    loaded = source_from_dict(json.loads(path.read_text()))
    np.testing.assert_array_equal(loaded.tableau.values, dense.tableau.values)
    assert loaded.names == dense.names


def test_complex_to_pairs_matches_per_entry_floats():
    rng = np.random.default_rng(11)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.7976931348623157e308, -1e308]
    parts = np.array(list(itertools.product(specials, repeat=2))).T
    values = np.concatenate(
        [
            parts[0] + 1j * parts[1],
            rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200)
            + 1j * rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, size=200),
        ]
    )
    for array in (values, values.reshape(3, -1), values.real, values[0]):
        pairs = _complex_to_pairs(array)
        expected = [[float(v.real), float(v.imag)] for v in np.asarray(array, complex).reshape(-1)]
        # JSON text tells the signs of zeros apart, which == does not
        assert json.dumps(pairs) == json.dumps(expected)
        assert all(type(x) is float for pair in pairs for x in pair)


def test_json_round_trip_oracle(source_3d):
    doc = source_to_dict(source_3d)
    loaded = source_from_dict(doc)
    assert isinstance(loaded, OracleSource)
    assert loaded.value_at((2, 1, 5)) == source_3d.value_at((2, 1, 5))


def test_json_rejects_wrong_value_count():
    doc = {
        "variables": [{"name": "s", "lambda": [[1, 0]], "mu": [[2, 0]]}],
        "values": [[1, 0]],
    }
    with pytest.raises(GridError, match="entries"):
        source_from_dict(doc)


def _full_by_hand(source):
    """The stored columns as columns and the stored rows as rows, listed directly."""
    return [g.column_points for g in source.grids], [g.row_points for g in source.grids]


def _spread_by_hand(source, counts):
    """Strided columns; the leftover columns, then the stored rows, as rows."""
    cols, rows = [], []
    for grid, k in zip(source.grids, counts):
        lam = grid.column_points
        idx = np.round(np.linspace(0, lam.size - 1, k)).astype(int)
        mask = np.ones(lam.size, dtype=bool)
        mask[idx] = False
        cols.append(lam[idx])
        rows.append(np.concatenate([lam[mask], grid.row_points]))
    return cols, rows


def _supports_by_hand(source, supports):
    """The supports as columns; every other union point, in union order, as rows."""
    rows = [
        np.array([p for p in g.union_points if p not in s], dtype=complex)
        for g, s in zip(source.grids, supports)
    ]
    return [np.asarray(s, dtype=complex) for s in supports], rows


@st.composite
def disjoint_sources_and_counts(draw):
    """1-3 variables of distinct complex points, 1-6 columns and 0-5 rows each,
    with a support count of at most the column count per variable and as
    many supports drawn from its union points, in random order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids, counts, supports = [], [], []
    for l in range(draw(st.integers(1, 3))):
        k, q = draw(st.integers(1, 6)), draw(st.integers(0, 5))
        points = rng.permutation(rng.standard_normal(k + q) + 1j * rng.standard_normal(k + q))
        grids.append(VariableGrid(f"x{l}", points[:k], points[k:]))
        counts.append(draw(st.integers(1, k)))
        supports.append(rng.choice(points, size=counts[-1], replace=False))
    return OracleSource(parse("1", [g.name for g in grids]), grids), counts, supports


def _assert_bitwise(lists, expected):
    assert len(lists) == len(expected)
    for got, want in zip(lists, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(disjoint_sources_and_counts())
def test_full_and_spread_columns_match_their_constructions_by_hand(case):
    source, counts, supports = case
    spread = [g.spread_columns(k) for g, k in zip(source.grids, counts)]
    chosen = [g.with_supports(s) for g, s in zip(source.grids, supports)]
    for selection, (cols, rows) in (
        (source.grids, _full_by_hand(source)),
        (spread, _spread_by_hand(source, counts)),
        (chosen, _supports_by_hand(source, supports)),
    ):
        _assert_bitwise([g.column_points for g in selection], cols)
        _assert_bitwise([g.row_points for g in selection], rows)


def test_full_selection_refuses_a_repeated_column_point():
    # no grid holds one, so no selection drawn from a grid can
    with pytest.raises(GridError, match=r"variable 's' repeats the grid point \(1\+0j\)"):
        VariableGrid("s", [1, 1, 3], [0, 2])
    # a selection given point by point is checked on its own
    with pytest.raises(GridError, match=r"variable 's' repeats the grid point \(1\+0j\)"):
        VariableGrid("s", [1, 3], [0, 1, 2])
    # and so is one drawn from a grid with a repeated support
    with pytest.raises(GridError, match=r"variable 's' repeats the grid point \(1\+0j\)"):
        VariableGrid("s", [1, 3], [0, 2]).with_supports([1, 1])


def test_with_supports_refuses_an_off_grid_point():
    grid = VariableGrid("s", [1, 3], [0, 2])
    with pytest.raises(OffGridError, match=r"^\(2\.5\+0j\) is not a grid point of variable 's'$"):
        grid.with_supports([1, 2.5])


def test_spread_columns_keeps_endpoints(source_synth2d):
    s, p = (g.spread_columns(k) for g, k in zip(source_synth2d.grids, [5, 4]))
    np.testing.assert_allclose(s.column_points.real, [-1, -0.6, 0, 0.6, 1])
    np.testing.assert_allclose(p.column_points.real, [0, 0.3, 0.7, 1])
    # leftovers become rows
    assert s.row_points.size == 21 - 5
    # every count of every list up to 60 points: distinct, increasing, endpoints kept
    for n in range(1, 61):
        grid = VariableGrid("s", np.arange(n, dtype=float), np.arange(n) + 0.5)
        for k in range(1, n + 1):
            selection = grid.spread_columns(k)
            cols = selection.column_points.real
            assert cols.size == k
            assert np.all(np.diff(cols) > 0)
            assert cols[0] == 0 and (k == 1 or cols[-1] == n - 1)
            rest = np.setdiff1d(np.arange(n), cols)
            np.testing.assert_array_equal(
                selection.row_points.real, np.concatenate([rest, grid.row_points.real])
            )
