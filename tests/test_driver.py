"""End-to-end driver behavior: direct fits and greedy adaptation."""

import re

import numpy as np
import pytest

from mvloewner import (
    DenseSource,
    FitOptions,
    GridError,
    NotConvergedError,
    OracleSource,
    Tableau,
    VariableGrid,
    cascaded_nullspace,
    detect_orders,
    eval_model,
    fit_adaptive,
    fit_direct,
    make_flop_report,
    max_error,
    parse,
    source_from_dict,
)
from conftest import C2_EXPECTED

from synthetic import densify_model, random_model


def test_fit_direct_recovers_2d_example(source_2d):
    result = fit_direct(source_2d, FitOptions(degrees=(2, 1)))
    rescaled = result.model.weights_c / result.model.weights_c[-1]
    np.testing.assert_allclose(rescaled.real, C2_EXPECTED, atol=1e-10)
    assert result.realization.order == 6
    error, _ = max_error(result.model, source_2d.densify())
    assert error <= 1e-11


def test_fit_direct_realizes_the_requested_split(source_3d):
    orders = {}
    for split in ("first", "auto", (2,)):
        result = fit_direct(source_3d, FitOptions(degrees=(1, 1, 2), split=split))
        orders[split] = result.realization.order
    assert orders == {"first": 13, "auto": 9, (2,): 10}


def test_fit_direct_detects_orders(source_synth2d):
    result = fit_direct(source_synth2d, FitOptions(nullspace_method="full"))
    assert result.degrees == (4, 3)
    error, _ = max_error(result.model, source_synth2d)
    assert error <= 1e-10


def test_fit_direct_cascaded_on_synthetic(source_synth2d):
    result = fit_direct(source_synth2d, FitOptions(nullspace_method="cascaded"))
    assert result.degrees == (4, 3)
    error, _ = max_error(result.model, source_synth2d)
    assert error <= 1e-9


def test_fit_direct_constant_source():
    source = OracleSource(
        parse("7", ["s", "t"]),
        [VariableGrid("s", [0, 1], [2, 3]), VariableGrid("t", [4, 5], [6, 7])],
    )
    result = fit_direct(source)
    assert result.degrees == (0, 0)
    assert eval_model(result.model, (2.5, 5.5)) == pytest.approx(7.0)


def test_fit_direct_rejects_duplicate_points():
    # the source a fit reads cannot be built, from code or from a data file
    named = r"variable 's' repeats the grid point \(2\+0j\)"
    with pytest.raises(GridError, match=named):
        OracleSource(parse("s", ["s"]), [VariableGrid("s", [1, 2], [2, 3])])
    variables = [{"name": "s", "lambda": [[1, 0], [2, 0]], "mu": [[2, 0], [3, 0]]}]
    with pytest.raises(GridError, match=named):
        source_from_dict({"variables": variables, "expression": "s"})


def test_fit_direct_clamps_excess_degrees(source_2d):
    with pytest.warns(UserWarning, match="clamping"):
        result = fit_direct(source_2d, FitOptions(degrees=(99, 1)))
    assert result.degrees[0] <= 2


def test_fit_direct_methods_agree_on_random_oracles():
    rng = np.random.default_rng(77)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 4))
        degrees = [int(rng.integers(0, 4)) for _ in range(n)]
        model, rows = random_model(rng, degrees)
        source = densify_model(model, rows)
        if source is None:
            continue
        a = fit_direct(source, FitOptions(nullspace_method="cascaded", degrees=degrees))
        b = fit_direct(source, FitOptions(nullspace_method="full", degrees=degrees))
        for _ in range(100):
            point = tuple(rng.uniform(-0.9, 0.9, n))
            try:
                va = eval_model(a.model, point)
                vb = eval_model(b.model, point)
            except Exception:
                continue
            assert va == pytest.approx(vb, rel=1e-8, abs=1e-8)
        done += 1


def test_adaptive_synthetic_cascaded(source_synth2d):
    model, log = fit_adaptive(source_synth2d, 1e-6, FitOptions(nullspace_method="cascaded"))
    assert log.converged
    assert log.iterations[-1].counts == (5, 4)
    assert [it.flops for it in log.iterations] == [2, 10, 51, 172, 445]
    assert log.iterations[-1].max_error <= 1e-9


def test_adaptive_synthetic_full(source_synth2d):
    model, log = fit_adaptive(source_synth2d, 1e-6, FitOptions(nullspace_method="full"))
    assert log.converged
    assert log.iterations[-1].counts == (5, 4)
    assert [it.flops for it in log.iterations] == [1, 8, 216, 1728, 8000]
    assert log.iterations[-1].max_error <= 1e-12


def test_adaptive_counts_nondecreasing_and_errors_true(source_synth2d):
    model, log = fit_adaptive(source_synth2d, 1e-6, FitOptions())
    previous = (0, 0)
    for it in log.iterations:
        assert all(a <= b for a, b in zip(previous, it.counts))
        previous = it.counts
    # the logged error of the final iteration is the true sweep maximum
    error, argmax = max_error(model, source_synth2d)
    assert error == pytest.approx(log.iterations[-1].max_error)
    assert argmax == log.iterations[-1].argmax


def test_adaptive_generous_tolerance_single_iteration(source_synth2d):
    model, log = fit_adaptive(source_synth2d, 10.0, FitOptions())
    assert log.converged
    assert len(log.iterations) == 1
    assert log.iterations[0].counts == (1, 1)


def test_adaptive_bilinear_converges_quickly():
    rng = np.random.default_rng(13)
    done = False
    while not done:
        model, rows = random_model(rng, [1, 1], complex_weights=False)
        source = densify_model(model, rows)
        if source is None:
            continue
        fitted, log = fit_adaptive(source, 1e-10, FitOptions())
        assert log.converged
        assert len(log.iterations) <= 3
        assert log.iterations[-1].counts == (2, 2)
        done = True


def test_adaptive_noisy_data_does_not_converge():
    rng = np.random.default_rng(55)
    model, rows = random_model(rng, [1, 1], complex_weights=False)
    source = densify_model(model, rows)
    assert source is not None
    noisy = source.tableau.values + 1e-2 * rng.normal(size=source.tableau.values.shape)
    noisy_source = DenseSource(Tableau(source.grids, noisy))
    with pytest.raises(NotConvergedError) as info:
        fit_adaptive(noisy_source, 1e-12, FitOptions())
    assert info.value.best_model is not None
    assert info.value.log is not None and len(info.value.log.iterations) >= 1


def test_adaptive_log_serialization(source_synth2d):
    _, log = fit_adaptive(source_synth2d, 1e-6, FitOptions())
    doc = log.to_dict()
    assert doc["converged"] is True
    assert [entry["k"] for entry in doc["iterations"]][-1] == [5, 4]
    assert all("max_error" in entry for entry in doc["iterations"])


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(nullspace_method="magic")
    with pytest.raises(ValueError):
        fit_adaptive(None, -1.0)


@pytest.mark.parametrize("degrees", [(2, 1, 5), (1,)])
def test_degree_count_must_match_the_variables(source_2d, degrees):
    named = f"{len(degrees)} degrees given for 2 variables"
    for method in ("cascaded", "full"):
        with pytest.raises(GridError, match=named):
            fit_direct(source_2d, FitOptions(nullspace_method=method, degrees=degrees))
    with pytest.raises(GridError, match=named):
        cascaded_nullspace(source_2d, degrees=degrees)


@pytest.mark.parametrize(
    "degrees, named",
    [
        ((-1, 1), "'s' must be a non-negative integer, got -1"),
        ((2, 1.7), "'t' must be a non-negative integer, got 1.7"),
        ((2.0, 1), "'s' must be a non-negative integer, got 2.0"),
        ((2, "1"), "'t' must be a non-negative integer, got '1'"),
    ],
    ids=["negative", "fractional", "float", "string"],
)
def test_degrees_must_be_non_negative_integers(source_2d, degrees, named):
    named = f"degree of variable {named}"
    for method in ("cascaded", "full"):
        with pytest.raises(GridError, match=named):
            fit_direct(source_2d, FitOptions(nullspace_method=method, degrees=degrees))
    with pytest.raises(GridError, match=named):
        cascaded_nullspace(source_2d, degrees=degrees)


@pytest.mark.parametrize("budget", [2.5, 10.0, True, "3", -3], ids=repr)
def test_sample_budget_must_be_a_non_negative_integer(source_2d, budget):
    named = rf"sample budget must be a non-negative integer, got {re.escape(repr(budget))}$"
    with pytest.raises(ValueError, match=named):
        detect_orders(source_2d, budget)
    with pytest.raises(ValueError, match=named):
        fit_direct(source_2d, FitOptions(order_sample_budget=budget))


def test_an_integer_budget_of_any_integer_type_is_taken(source_2d):
    expected = detect_orders(source_2d, 3)
    assert detect_orders(source_2d, np.int64(3)) == expected
    result = fit_direct(source_2d, FitOptions(order_sample_budget=np.int64(3)))
    assert result.degrees == expected.degrees


@pytest.mark.parametrize("order", [(1, 1), (0,), (-1, 0), (0, 2), "s,t"])
def test_every_route_refuses_an_order_that_is_not_a_permutation(source_2d, order):
    for method in ("cascaded", "full"):
        with pytest.raises(ValueError, match="permutation"):
            fit_direct(source_2d, FitOptions(nullspace_method=method, variable_order=order))
    with pytest.raises(ValueError, match="permutation"):
        make_flop_report([3, 2], order)
