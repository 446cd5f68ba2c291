"""Cascaded null space, decoupled factors, and the flop/memory accounting."""

import itertools
import math

import numpy as np
import pytest

from mvloewner import (
    DecoupledWeights,
    DegenerateNullspaceError,
    build_loewner_nd,
    cascaded_nullspace,
    flop_cascade,
    flop_full,
    memory_estimate,
    nullspace_vector,
    optimal_variable_order,
    recombine,
)
from conftest import C2_EXPECTED, C3_EXPECTED, KST_BARY
from reference import flop_worst_case

from synthetic import densify_model, random_model


# --- accounting ---------------------------------------------------------


def test_flop_cascade_worked_values():
    assert flop_cascade([3, 2]) == 51
    assert flop_cascade([2, 3]) == 62
    assert flop_cascade([2, 2, 3]) == 132
    assert flop_cascade([3, 2, 2]) == 99
    assert flop_cascade([7]) == 343


def test_flop_full_worked_values():
    assert flop_full([3, 2]) == 216
    assert flop_full([2, 2, 3]) == 1728
    assert flop_full([1]) == 1


def test_flop_worst_case_geometric_sum():
    assert flop_worst_case(2, 3) == 8 + 16 + 32
    for k in range(2, 7):
        for n in range(1, 7):
            assert flop_worst_case(k, n) == flop_cascade([k] * n)
    assert flop_worst_case(1, 5) == 5


def test_flop_worst_case_exponent_bound_two_variables():
    for k in range(2, 51):
        flops = flop_worst_case(k, 2)
        n_points = k**2
        assert math.log(flops) / math.log(n_points) <= 2.30


def test_flop_cascade_never_beats_full_with_multiple_variables():
    # needs two effective variables: with a single k >= 2 the cascade pays
    # one extra unit flop per trivial variable and exceeds N**3
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        ks = [int(rng.integers(2, 7)) for _ in range(n)]
        assert flop_cascade(ks) <= flop_full(ks)
    assert flop_cascade([1, 6]) == 217 > flop_full([1, 6])


def test_optimal_variable_order_minimizes_over_permutations():
    assert optimal_variable_order([2, 2, 3]) == (2, 0, 1)
    assert optimal_variable_order([3, 2]) == (0, 1)
    # descending counts are flop-minimal whenever every count is >= 2;
    # a unit count placed first would be cheaper still, but the descending
    # convention is what the iteration accounting charges
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        ks = [int(rng.integers(2, 7)) for _ in range(n)]
        best = flop_cascade([ks[i] for i in optimal_variable_order(ks)])
        if n <= 4:
            candidates = itertools.permutations(range(n))
        else:
            candidates = [tuple(rng.permutation(n)) for _ in range(20)]
        for perm in candidates:
            assert best <= flop_cascade([ks[i] for i in perm])
    assert flop_cascade([2, 1]) == 10
    assert flop_cascade([1, 2]) == 9


def test_memory_estimate_worked_values():
    assert memory_estimate([20], "cascaded") == 6400  # 6.25 KB
    full_bytes = memory_estimate([20, 6, 4, 6, 8, 2], "full")
    assert abs(full_bytes / 2**30 - 31.64) / 31.64 < 0.01
    k20 = [11, 3] + [2] * 13 + [4] + [2] * 4
    assert abs(memory_estimate(k20, "full") / 2**40 - 4356) / 4356 < 0.01
    assert memory_estimate(k20, "cascaded") == 16 * 11 * 11


# --- the cascade itself -------------------------------------------------


def test_cascade_2d_both_orders(source_2d):
    result = cascaded_nullspace(source_2d, degrees=[2, 1], order=[0, 1])
    np.testing.assert_allclose(result.weights.real, C2_EXPECTED, atol=1e-11)
    assert result.report.cascaded_flops == 51
    assert result.report.full_flops == 216

    swapped = cascaded_nullspace(source_2d, degrees=[2, 1], order=[1, 0])
    assert swapped.report.cascaded_flops == 62
    rescaled = swapped.weights / swapped.weights[-1]
    np.testing.assert_allclose(rescaled.real, C2_EXPECTED, atol=1e-10)


def test_cascade_3d_golden_and_orders(source_3d):
    result = cascaded_nullspace(source_3d, degrees=[1, 1, 2], order=[0, 1, 2])
    np.testing.assert_allclose(result.weights.real, C3_EXPECTED, atol=1e-10)
    assert result.report.cascaded_flops == 132
    reordered = cascaded_nullspace(source_3d, degrees=[1, 1, 2], order=[2, 1, 0])
    assert reordered.report.cascaded_flops == 99
    rescaled = reordered.weights / reordered.weights[-1]
    np.testing.assert_allclose(rescaled.real, C3_EXPECTED, atol=1e-9)


def test_cascade_default_order_is_flop_optimal(source_3d):
    result = cascaded_nullspace(source_3d, degrees=[1, 1, 2])
    assert result.report.variable_order == (2, 0, 1)
    assert result.report.cascaded_flops == flop_cascade([3, 2, 2])


def test_cascade_report_matches_closed_form(source_kst):
    result = cascaded_nullspace(source_kst, degrees=[2, 1, 1], order=[0, 1, 2])
    ordered = [result.decoupled.counts_in_order[i] for i in range(3)]
    assert result.report.cascaded_flops == flop_cascade(ordered)


def test_kst_decoupling_factors(source_kst):
    result = cascaded_nullspace(source_kst, degrees=[2, 1, 1], order=[0, 1, 2])
    np.testing.assert_allclose(result.weights.real, KST_BARY, atol=1e-10)
    factor_s, factor_t, factor_x = result.decoupled.factors
    np.testing.assert_allclose(factor_s.real, [19 / 29, -48 / 29, 1], atol=1e-10)
    np.testing.assert_allclose(
        factor_t.real, [-17 / 19, 1, -7 / 8, 1, -25 / 29, 1], atol=1e-10
    )
    np.testing.assert_allclose(
        factor_x.real,
        [-16 / 17, 1, -18 / 19, 1, -20 / 21, 1, -23 / 24, 1, -24 / 25, 1, -28 / 29, 1],
        atol=1e-10,
    )


def test_recombine_is_exact_round_trip(source_3d, source_kst):
    for source, degrees in ((source_3d, [1, 1, 2]), (source_kst, [2, 1, 1])):
        result = cascaded_nullspace(source, degrees=degrees)
        np.testing.assert_array_equal(recombine(result.decoupled), result.weights)


def test_recombine_single_variable_is_identity():
    factor = np.array([0.5, -2.0, 1.0], dtype=complex)
    decoupled = DecoupledWeights(order=(0,), counts_in_order=(3,), factors=(factor,))
    np.testing.assert_array_equal(recombine(decoupled), factor)


def test_recombine_kst_expansion_pattern():
    # two variables, counts (2, 2): first factor expands by repetition
    first = np.array([2.0, 3.0], dtype=complex)
    second = np.array([1.0, 5.0, 7.0, 11.0], dtype=complex)
    decoupled = DecoupledWeights(order=(0, 1), counts_in_order=(2, 2), factors=(first, second))
    np.testing.assert_array_equal(
        recombine(decoupled), [2 * 1, 2 * 5, 3 * 7, 3 * 11]
    )


def test_cascade_agrees_with_full_svd_on_random_rationals():
    rng = np.random.default_rng(99)
    done = 0
    while done < 60:
        n = int(rng.integers(1, 4))
        degrees = [int(rng.integers(0, 4)) for _ in range(n)]
        model, rows = random_model(rng, degrees)
        source = densify_model(model, rows)
        if source is None:
            continue
        cascade = cascaded_nullspace(source, degrees=degrees)
        full = nullspace_vector(build_loewner_nd(source))
        anchor = int(np.argmax(np.abs(full.vector)))
        a = cascade.weights / cascade.weights[anchor]
        b = full.vector / full.vector[anchor]
        np.testing.assert_allclose(a, b, atol=1e-8)
        # both recover the generating weights up to scale
        truth = model.weights_c / model.weights_c[anchor]
        np.testing.assert_allclose(a, truth, atol=1e-7)
        done += 1


def test_cascade_reanchors_on_vanishing_anchor_weight():
    from mvloewner import make_model

    # (seed, degrees, anchors finally used)
    cases = [
        (3, [1, 1], (0, 0)),
        (4, [2, 1, 2], (0, 0, 1)),
        (5, [2, 2, 1], (0, 0, 0)),
        (6, [1, 2, 2], (0, 1, 1)),
    ]
    for seed, degrees, anchors in cases:
        rng = np.random.default_rng(seed)
        model, rows = random_model(rng, degrees, complex_weights=False)
        # make the all-anchors weight (last entry) negligible: normalizing the
        # anchor chain there would blow up, so the cascade must re-anchor
        c = model.weights_c.copy()
        c[-1] = 1e-13
        rigged = make_model(model.support_points, c, model.values_w, model.variable_names)
        source = densify_model(rigged, rows)
        assert source is not None
        result = cascaded_nullspace(source, degrees=degrees)
        assert result.anchors == anchors
        scale = int(np.argmax(np.abs(c)))
        np.testing.assert_allclose(
            result.weights / result.weights[scale], c / c[scale], atol=1e-8
        )


def test_cascade_needs_k_minus_one_row_points(source_3d):
    from mvloewner import GridError, VariableGrid

    # three supports along p but a single row point: rank 2 cannot show
    p = source_3d.grids[2]
    selection = [*source_3d.grids[:2], VariableGrid(p.name, p.column_points, p.row_points[:1])]
    refused = "variable 'p' has 1 row points, need at least 2 for 3 support points"
    with pytest.raises(GridError, match=refused):
        cascaded_nullspace(source_3d, selection=selection)


def test_cascade_degenerate_when_orders_too_high():
    from mvloewner import OracleSource, VariableGrid, parse

    # bilinear data offered three support points per variable: every 1-D
    # sub-problem has a two-dimensional null space
    source = OracleSource(
        parse("s*t+1", ["s", "t"]),
        [
            VariableGrid("s", [0, 1, 2], [3, 4, 5]),
            VariableGrid("t", [0.5, 1.5, 2.5], [3.5, 4.5, 5.5]),
        ],
    )
    with pytest.raises(DegenerateNullspaceError, match=r"\(null space has dimension 2\)") as info:
        cascaded_nullspace(source, degrees=[2, 2])
    assert info.value.context is not None


def test_cascade_rejects_bad_order(source_2d):
    with pytest.raises(ValueError, match="permutation"):
        cascaded_nullspace(source_2d, degrees=[2, 1], order=[0, 0])
