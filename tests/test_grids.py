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
    Selection,
    Tableau,
    VariableGrid,
    check_disjoint,
    parse,
    source_from_dict,
    source_to_dict,
)
from mvloewner.grids import _complex_to_pairs


def test_disjoint_ok_on_clean_grid():
    grid = VariableGrid("s", [1, 3, 5], [2, 4, 6, 8])
    source = OracleSource(parse("s", ["s"]), [grid])
    assert check_disjoint(source) == []


def test_disjoint_reports_duplicate():
    source = OracleSource(parse("s", ["s"]), [VariableGrid("s", [1], [1])])
    assert check_disjoint(source) == [("s", (1 + 0j))]


def test_single_column_point_is_fine():
    source = OracleSource(parse("s", ["s"]), [VariableGrid("s", [0], [])])
    assert check_disjoint(source) == []


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


# a few values, signed zeros among them, so draws repeat and collide
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
    # past 16 points numpy's default sort is no longer stable
    st.lists(GRID_VALUES, min_size=1, max_size=40),
    st.lists(GRID_VALUES, max_size=20),
    st.lists(GRID_VALUES | st.sampled_from([3.0, -2j]), max_size=10),
)
def test_indices_of_matches_first_match_loop(cols, rows, values):
    grid = VariableGrid("x", cols, rows)
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


def test_selection_rejects_coincident_points():
    with pytest.raises(GridError, match="coincident"):
        Selection([[1.0, 2.0]], [[2.0, 3.0]])


def test_spread_columns_keeps_endpoints(source_synth2d):
    selection = Selection.spread_columns(source_synth2d, [5, 4])
    np.testing.assert_allclose(selection.col_points[0].real, [-1, -0.6, 0, 0.6, 1])
    np.testing.assert_allclose(selection.col_points[1].real, [0, 0.3, 0.7, 1])
    # leftovers become rows
    assert selection.row_points[0].size == 21 - 5
    # every count of every list up to 60 points: distinct, increasing, endpoints kept
    for n in range(1, 61):
        grid = VariableGrid("s", np.arange(n, dtype=float), np.arange(n) + 0.5)
        source = OracleSource(parse("s", ["s"]), [grid])
        for k in range(1, n + 1):
            selection = Selection.spread_columns(source, [k])
            cols = selection.col_points[0].real
            assert cols.size == k
            assert np.all(np.diff(cols) > 0)
            assert cols[0] == 0 and (k == 1 or cols[-1] == n - 1)
            rest = np.setdiff1d(np.arange(n), cols)
            np.testing.assert_array_equal(
                selection.row_points[0].real, np.concatenate([rest, grid.row_points.real])
            )
