"""Oracle sampling on an open mesh, checked against the meshgrid sampling it replaced.

``OracleSource.values_on_product`` passes each axis as a broadcastable
view and each one-point axis as a Python ``complex`` scalar.  The
reference below is the former implementation, which expanded every axis
to a full-size ``np.meshgrid`` copy, so every operation ran on arrays.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvloewner import (
    EvaluationError,
    OracleSource,
    VariableGrid,
    cascaded_nullspace,
    evaluate,
    parse,
)
from test_expressions import _random_expression

NAMES = ("s", "t", "p", "q")


def meshgrid_values_on_product(source, per_var_points):
    """The former sampling: every variable a full-size meshgrid copy."""
    axes = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in per_var_points]
    mesh = np.meshgrid(*axes, indexing="ij") if len(axes) > 1 else [axes[0]]
    assignment = {g.name: m for g, m in zip(source.grids, mesh)}
    values = evaluate(source.expression, assignment)
    values = np.asarray(values, dtype=complex)
    values = np.broadcast_to(values, tuple(a.size for a in axes))
    if not np.all(np.isfinite(values)):
        raise EvaluationError("oracle produced non-finite values on the requested product grid")
    return np.array(values)


def _bits(values):
    """The raw 64-bit words, so that signed zeros and NaN payloads count."""
    return np.ascontiguousarray(values).view(np.uint64)


def pointwise_values_on_product(source, per_var_points):
    """Every tuple on its own: all arithmetic on Python ``complex`` scalars."""
    tuples = itertools.product(*per_var_points)
    values = [evaluate(source.expression, dict(zip(source.names, t))) for t in tuples]
    values = np.array(values, dtype=complex).reshape([len(p) for p in per_var_points])
    if not np.all(np.isfinite(values)):
        raise EvaluationError("oracle produced non-finite values on the requested product grid")
    return values


def _sample_or_none(sample, source, points):
    try:
        return sample(source, points)
    except EvaluationError:
        return None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    complex_grid=st.booleans(),
)
def test_open_mesh_matches_meshgrid_sampling(seed, n, complex_grid):
    rng = np.random.default_rng(seed)
    names = list(NAMES[:n])
    text = _random_expression(rng, names, depth=4)
    points = []
    for size in rng.integers(1, 5, n):  # singleton axes included, no empty axis
        axis = rng.uniform(-3, 3, size)
        if complex_grid:
            axis = axis + 1j * rng.uniform(-3, 3, size)
        points.append(axis)
    source = OracleSource(parse(text, names), [VariableGrid(a, p) for a, p in zip(names, points)])
    reference = _sample_or_none(meshgrid_values_on_product, source, points)
    if complex_grid:
        # numpy and Python round complex products differently; skip the rare
        # example that cancels so far that the all-array and the all-scalar
        # evaluations already disagree (e.g. s*s^2-s^3)
        pointwise = _sample_or_none(pointwise_values_on_product, source, points)
        assume((pointwise is None) == (reference is None))
        assume(reference is None or np.allclose(pointwise, reference, rtol=1e-14, atol=0))
    if reference is None:
        with pytest.raises(EvaluationError):
            source.values_on_product(points)
        return
    values = source.values_on_product(points)
    assert values.shape == reference.shape
    assert values.flags.c_contiguous
    if complex_grid:
        np.testing.assert_allclose(values, reference, rtol=1e-14, atol=0)
    else:
        # equal values: bitwise, except that the sign of a zero is left open
        np.testing.assert_array_equal(values, reference)
        # and the pointwise reads round exactly as the batched one
        np.testing.assert_array_equal(pointwise_values_on_product(source, points), values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "per_var",
    [
        [[2.0], [2.0]],  # every axis a scalar
        [[2.0], [2.0, 3.0]],  # the zero divisor in a scalar subexpression
        [[1.0, 2.0], [3.0]],  # the zero divisor in an array, next to a scalar
        [[1.0, 3.0], [1.0, 2.0]],  # the zero divisor in an array
    ],
)
def test_exact_zero_divisors_raise_in_every_form(per_var):
    grids = [VariableGrid("s", [1.0, 2.0, 3.0]), VariableGrid("t", [1.0, 2.0, 3.0])]
    source = OracleSource(parse("1/(s-2) + t/(t-1)", ["s", "t"]), grids)
    for sample in (source.values_on_product, lambda pv: meshgrid_values_on_product(source, pv)):
        with pytest.raises(EvaluationError, match="division by zero"):
            sample(per_var)


@pytest.mark.parametrize(
    "per_var",
    [
        [[1e200], [1.0]],
        [[1e200], [1.0, 3.0]],
        [[1e200, 2.0], [1.0]],
        [[1e200, 2.0], [1.0, 3.0]],
    ],
)
def test_non_finite_results_raise_in_every_form(per_var):
    grids = [VariableGrid("x", [1e200, 2.0]), VariableGrid("y", [1.0, 3.0])]
    source = OracleSource(parse("x*x*y", ["x", "y"]), grids)
    with np.errstate(over="ignore", invalid="ignore"):
        for sample in (source.values_on_product, lambda pv: meshgrid_values_on_product(source, pv)):
            with pytest.raises(EvaluationError, match="non-finite"):
                sample(per_var)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scalar_power_overflow_is_an_evaluation_error():
    # Python's complex ** int raises OverflowError where numpy returns inf
    grids = [VariableGrid("x", [1e200, 2.0]), VariableGrid("y", [1.0, 3.0])]
    source = OracleSource(parse("x^3*y", ["x", "y"]), grids)
    with pytest.raises(EvaluationError, match="overflow"):
        source.value_at((1e200, 1.0))
    with pytest.raises(EvaluationError, match="overflow"):
        source.values_on_product([[1e200], [1.0]])
    with pytest.raises(EvaluationError, match="overflow"):
        source.values_on_product([[1e200], [1.0, 3.0]])
    with pytest.raises(EvaluationError, match="overflow"):
        evaluate(source.expression, {"x": 1e200, "y": 1.0})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", ["x^3*y", "x*x*y"])
def test_array_overflow_is_an_evaluation_error_without_a_warning(text):
    grids = [VariableGrid("x", [1e200, 2.0]), VariableGrid("y", [1.0, 3.0])]
    source = OracleSource(parse(text, ["x", "y"]), grids)
    with pytest.raises(EvaluationError, match="non-finite"):
        source.values_on_product([[1e200, 2.0], [1.0, 3.0]])
    with pytest.raises(EvaluationError, match="non-finite"):
        source.values_at_indices(np.array([[1, 0], [0, 1]]))


def test_scalar_division_rounds_as_numpy_divides():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    b = rng.standard_normal(2000) + 1j * rng.standard_normal(2000)
    specials = [0.0, -0.0, 1.0, -2.5, 1e-310, np.inf, -np.inf, np.nan]
    grid = np.array([complex(x, y) for x in specials for y in specials])
    a = np.concatenate([a, a.real + 0j, np.repeat(grid, grid.size)])
    b = np.concatenate([b, b.real + 0j, np.tile(grid, grid.size)])
    keep = b != 0
    a, b = a[keep], b[keep]
    expr = parse("u/v", ["u", "v"])
    with np.errstate(all="ignore"):
        scalar = [evaluate(expr, {"u": complex(x), "v": complex(y)}) for x, y in zip(a, b)]
        array = evaluate(expr, {"u": a, "v": b})
    assert all(type(value) is complex for value in scalar)
    scalar = np.array(scalar)
    # bitwise where finite; the sign of a NaN is left open
    assert np.array_equal(scalar, array, equal_nan=True)
    finite = np.isfinite(array)
    np.testing.assert_array_equal(_bits(scalar[finite]), _bits(array[finite]))


def test_cascade_weights_and_anchors_match_meshgrid_sampling(monkeypatch):
    names = ["a", "b", "c", "d"]
    text = "(a^2+b*c+d)*(c/(d+4))/(3+a^2*b+c^2*d)"
    grids = []
    for l, name in enumerate(names):
        points = np.linspace(1.0, 3.0, 8) + 0.1 * l
        grids.append(VariableGrid(name, points[0::2], points[1::2]))
    source = OracleSource(parse(text, names), grids)
    selection = [g.spread_columns(k) for g, k in zip(source.grids, (3, 2, 3, 3))]
    # c and d first, so that the later levels read c/(d+4) as a scalar at every support pair
    order = (2, 3, 0, 1)
    opened = cascaded_nullspace(source, selection=selection, order=order)
    monkeypatch.setattr(OracleSource, "values_on_product", meshgrid_values_on_product)
    meshed = cascaded_nullspace(source, selection=selection, order=order)
    assert opened.anchors == meshed.anchors
    np.testing.assert_array_equal(_bits(opened.weights), _bits(meshed.weights))
