"""Barycentric model construction, evaluation, error sweeps, JSON round trips."""

import numpy as np
import pytest

from mvloewner import (
    GridError,
    PoleError,
    build_loewner_nd,
    eval_model,
    make_model,
    max_error,
    model_from_dict,
    model_to_dict,
    nullspace_vector,
)
from conftest import C1_EXPECTED, C3_EXPECTED, W3_EXPECTED

from synthetic import densify_model, random_model


def _model_from_source(source):
    weights = nullspace_vector(build_loewner_nd(source)).vector
    supports = [g.column_points for g in source.grids]
    values = source.values_on_product(supports).reshape(-1)
    return make_model(supports, weights, values, names=source.names)


def test_make_model_numerator_weights_1d():
    w = np.array([5 / 2, 13 / 4, 29 / 6])
    model = make_model([[1, 3, 5]], C1_EXPECTED, w)
    np.testing.assert_allclose(model.weights_beta.real, [5 / 6, -13 / 3, 29 / 6], atol=1e-15)


def test_make_model_zero_weights_give_zero_numerator():
    model = make_model([[0, 1]], [0, 0], [2, 3])
    np.testing.assert_array_equal(model.weights_beta, [0, 0])


def test_make_model_3d_numerator_entry():
    model = make_model([[2, 4], [1, 3], [5, 6, 7]], C3_EXPECTED, W3_EXPECTED)
    assert model.weights_beta[0] == pytest.approx(0.5 * 0.25)


def test_make_model_validates_shapes_and_support():
    with pytest.raises(GridError, match="length"):
        make_model([[0, 1]], [1, 2, 3], [1, 2])
    with pytest.raises(GridError, match="distinct"):
        make_model([[1, 1]], [1, 2], [1, 2])


def test_eval_1d_away_from_support(source_1d):
    model = _model_from_source(source_1d)
    assert eval_model(model, (0,)) == pytest.approx(4.0, abs=1e-12)


def test_eval_at_support_tuple_returns_sample(source_2d):
    model = _model_from_source(source_2d)
    assert eval_model(model, (1, -1)) == pytest.approx(-1 / 3, rel=1e-11)


def test_eval_matches_closed_form_3d(source_3d):
    model = _model_from_source(source_3d)
    rng = np.random.default_rng(17)
    for _ in range(50):
        s, t, p = rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(8, 12)
        expected = (s + p * t) / (p * p + s + t)
        assert eval_model(model, (s, t, p)) == pytest.approx(expected, abs=1e-9)
    assert eval_model(model, (0.7, -2.1, 9.3)) == pytest.approx(
        (0.7 + 9.3 * -2.1) / (9.3**2 + 0.7 - 2.1), abs=1e-9
    )


def test_eval_partial_support_match(source_2d):
    # one coordinate on support, the other free
    model = _model_from_source(source_2d)
    t = -0.37
    expected = (9 * t) / (3 - t + 1)
    assert eval_model(model, (3, t)) == pytest.approx(expected, rel=1e-10)


def test_eval_pole_raises():
    # weights (1, 1) on supports (0, 2): the denominator sum vanishes at
    # the midpoint, where the model is -1/(s-1)
    model = make_model([[0, 2]], [1.0, 1.0], [1.0, -1.0])
    with pytest.raises(PoleError):
        eval_model(model, (1.0,))


def test_scale_invariance(source_2d):
    model = _model_from_source(source_2d)
    scaled = make_model(
        model.support_points,
        model.weights_c * (2.5 - 1.25j),
        model.values_w,
        model.variable_names,
    )
    rng = np.random.default_rng(4)
    for _ in range(100):
        point = (rng.uniform(-4, 4), rng.uniform(-6, 6))
        a = eval_model(model, point)
        b = eval_model(scaled, point)
        assert b == pytest.approx(a, rel=1e-13)


def test_degree_exactness_one_variable():
    rng = np.random.default_rng(11)
    for _ in range(20):
        degree = int(rng.integers(1, 5))
        model, rows = random_model(rng, [degree])
        checked = 0
        while checked < 100:
            s = rng.uniform(-1.2, 1.2)
            try:
                value = eval_model(model, (s,))
            except PoleError:
                continue
            # rebuild from samples and compare against the generator
            checked += 1
            source = densify_model(model, rows)
            if source is None:
                break
            rebuilt = _model_from_source(source)
            assert eval_model(rebuilt, (s,)) == pytest.approx(value, rel=1e-9, abs=1e-9)
            break  # one random point per model is plenty with 20 models


def test_max_error_self_consistency(source_2d):
    model = _model_from_source(source_2d)
    error, location = max_error(model, source_2d)
    assert error <= 1e-12
    assert len(location) == 2


def test_max_error_underfit_is_positive(source_2d):
    dense = source_2d.densify()
    supports = [g.column_points[:1] for g in source_2d.grids]
    values = source_2d.values_on_product(supports).reshape(-1)
    constant = make_model(supports, [1.0], values, names=source_2d.names)
    error, location = max_error(constant, dense)
    assert error > 0.1
    row_values = [g.row_points for g in source_2d.grids]
    assert any(location[l] in row_values[l] for l in range(2))


def test_max_error_reports_pole_as_infinite():
    model = make_model([[0, 2]], [1.0, 1.0], [1.0, -1.0])
    from mvloewner import DenseSource, Tableau, VariableGrid

    grid = VariableGrid("x1", [0, 2], [1])
    values = np.array([1.0, -1.0, 5.0], dtype=complex)
    source = DenseSource(Tableau([grid], values))
    error, location = max_error(model, source)
    assert error == np.inf
    assert location == (1.0,)


def test_interpolation_at_all_support_tuples(source_3d):
    model = _model_from_source(source_3d)
    import itertools

    for idx in itertools.product(*(range(k) for k in model.counts)):
        point = tuple(model.support_points[l][i] for l, i in enumerate(idx))
        flat = np.ravel_multi_index(idx, model.counts)
        assert eval_model(model, point) == pytest.approx(
            complex(model.values_w[flat]), rel=1e-11
        )


def test_model_json_round_trip_is_bit_exact(source_3d):
    model = _model_from_source(source_3d)
    clone = model_from_dict(model_to_dict(model))
    np.testing.assert_array_equal(clone.weights, model.weights)
    np.testing.assert_array_equal(clone.weights_c, model.weights_c)
    # both weight vectors are rows of the one stored (2, K) array
    for m in (model, clone):
        assert m.weights.shape == (2, m.values_w.size)
        for row, weights in enumerate((m.weights_c, m.weights_beta)):
            assert np.shares_memory(weights, m.weights)
            np.testing.assert_array_equal(weights, m.weights[row])
    np.testing.assert_array_equal(clone.values_w, model.values_w)
    for a, b in zip(clone.support_points, model.support_points):
        np.testing.assert_array_equal(a, b)
    assert clone.variable_names == model.variable_names


def test_array_holding_objects_compare_by_identity():
    from mvloewner import VariableGrid, build_pseudo_companion, build_realization

    def instances():
        model = make_model([[0, 1], [2, 3, 4]], np.arange(1.0, 7.0), np.ones(6))
        return (
            model,
            build_realization(model),
            build_pseudo_companion([0.0, 1.0], "s"),
            VariableGrid("s", [0.0, 1.0], [0.5]),
        )

    for first, second in zip(instances(), instances()):
        assert first == first
        assert (first == second) is False
        assert first != second
