"""Generalized realizations: companions, splits, assembly, compression."""

import copy
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvloewner import (
    GridError,
    MemoryGuardError,
    PoleError,
    build_loewner_nd,
    build_pseudo_companion,
    build_realization,
    compress_realization,
    eval_model,
    eval_realization,
    make_model,
    make_split,
    nullspace_vector,
    optimal_split,
    realization_from_dict,
    realization_to_dict,
    resolve_split,
)
from mvloewner.realize import LOG_PRODUCT_CUTOFF, lagrange_inverse_weights
from conftest import C2_EXPECTED
from reference import check_r_minimality, multi_indices, polynomial_determinant


def _model_from_source(source):
    weights = nullspace_vector(build_loewner_nd(source)).vector
    supports = [g.column_points for g in source.grids]
    values = source.values_on_product(supports).reshape(-1)
    return make_model(supports, weights, values, names=source.names)


def _solve_resolvent(phi, rhs, point, label):
    """Dense reference: ``Phi^{-1} rhs``; a singular ``Phi`` means ``point`` is a pole."""
    try:
        return np.linalg.solve(phi, rhs)
    except np.linalg.LinAlgError as exc:
        raise PoleError(f"{label} is singular at {tuple(point)}") from exc


def dense_value(realization, point):
    """``C Phi(point)^{-1} B`` by one dense solve."""
    solution = _solve_resolvent(realization.phi(point), realization.b_vector, point, "resolvent")
    return complex(realization.c_vector @ solution)


def dense_compressed_value(compressed, point):
    """``c_row(point) Phi_c(point)^{-1} B_c`` by one dense solve."""
    solution = _solve_resolvent(compressed.phi(point), compressed.b_vector, point, "compressed")
    return complex(compressed.c_row(point) @ solution)


def _all_splits(counts):
    """Every ordered right|left split of the variables (the single split with one variable)."""
    n = len(counts)
    if n == 1:
        return [make_split((0,), counts)]
    return [
        make_split(perm[:cut], counts, perm[cut:])
        for perm in itertools.permutations(range(n))
        for cut in range(1, n)
    ]


# --- pseudo-companion ---------------------------------------------------


def test_companion_weights_and_determinant():
    comp = build_pseudo_companion([1, 3, 5], "s")
    np.testing.assert_allclose(comp.q_weights.real, [1 / 8, -1 / 4, 1 / 8], atol=1e-15)
    rng = np.random.default_rng(0)
    for s in rng.uniform(-5, 5, 5):
        assert np.linalg.det(comp.evaluate(s)) == pytest.approx(1.0, abs=1e-12)


def test_companion_two_points():
    comp = build_pseudo_companion([-1, -3], "t")
    np.testing.assert_allclose(comp.q_weights.real, [1 / 2, -1 / 2], atol=1e-15)


def test_lagrange_weights_log_branch_on_roots_of_unity():
    # for the n-th roots of unity prod_{k != i} (w_i - w_k) = n / w_i
    n = 400
    assert n > LOG_PRODUCT_CUTOFF
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    np.testing.assert_allclose(lagrange_inverse_weights(roots), roots / n, rtol=1e-11)


def test_companion_single_point_is_trivial():
    comp = build_pseudo_companion([4.2], "a")
    np.testing.assert_array_equal(comp.evaluate(9.9), [[1.0]])


def test_companion_rejects_duplicates():
    with pytest.raises(GridError):
        build_pseudo_companion([1, 1], "s")


def _nodes_and_value(rng, n, imag):
    """n jittered nodes spread over [-1, 1] and a nearby value, complex when imag > 0."""
    points = np.linspace(-1, 1, n) + 0.1 * rng.uniform(-1, 1, n)
    points = points + 1j * imag * rng.uniform(-1, 1, n)
    return points, complex(rng.uniform(-1, 1), imag * rng.uniform(-1, 1))


def test_companion_row_structure():
    comp = build_pseudo_companion([1, 3, 5], "s")
    s = 2.5
    matrix = comp.evaluate(s)
    np.testing.assert_allclose(matrix[0], [s - 1, -(s - 3), 0])
    np.testing.assert_allclose(matrix[1], [s - 1, 0, -(s - 5)])

    # rows (x_1, -x_{i+1}) then the weights q, for real and complex nodes
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        for imag in (0.0, 0.3):
            points, value = _nodes_and_value(rng, n, imag)
            comp = build_pseudo_companion(points, "s")
            expected = np.zeros((n, n), dtype=complex)
            for i in range(n - 1):
                expected[i, 0] = value - points[0]
                expected[i, i + 1] = -(value - points[i + 1])
            expected[n - 1] = comp.q_weights
            np.testing.assert_array_equal(comp.evaluate(value), expected)


def test_companion_adjugate_row_is_last_inverse_column():
    rng = np.random.default_rng(6)
    for n in range(1, 7):
        for imag in (0.0, 0.3):
            for _ in range(5):
                points, value = _nodes_and_value(rng, n, imag)
                comp = build_pseudo_companion(points, "s")
                inverse = np.linalg.inv(comp.evaluate(value))
                np.testing.assert_allclose(
                    comp.adjugate_last_row(value), inverse[:, -1], rtol=0, atol=1e-12
                )
    np.testing.assert_array_equal(build_pseudo_companion([4.2]).adjugate_last_row(9.9), [1.0])


def test_unimodularity_of_kronecker_blocks(source_3d):
    model = _model_from_source(source_3d)
    realization = build_realization(model, make_split((0, 1), model.counts))
    rng = np.random.default_rng(12)
    from mvloewner.realize import _kron_eval

    split = realization.split
    for _ in range(100):
        values = rng.uniform(-3, 3, 3)
        gamma = _kron_eval(
            [realization.companions[i] for i in split.right],
            [values[i] for i in split.right],
        )
        delta = _kron_eval(
            [realization.companions[i] for i in split.left],
            [values[i] for i in split.left],
        )
        assert abs(np.linalg.det(gamma)) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.linalg.det(delta)) == pytest.approx(1.0, abs=1e-9)


# --- splits and multi-indices -------------------------------------------


def test_multi_indices_3d_split():
    split = make_split((0, 1), (2, 2, 3))
    i_list, j_list = multi_indices(split)
    assert i_list == [(0,), (1,), (2,)]
    assert j_list == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_multi_indices_single_right_variable():
    split = make_split((0,), (3, 2))
    _, j_list = multi_indices(split)
    assert j_list == [(0,), (1,), (2,)]


def test_split_dimensions():
    split = make_split((0, 1), (2, 2, 3))
    assert (split.kappa, split.ell, split.order) == (4, 3, 9)
    split = make_split((0,), (2, 2, 3))
    assert (split.kappa, split.ell, split.order) == (2, 6, 13)


def test_split_validation():
    with pytest.raises(GridError):
        make_split((0, 0), (2, 2))
    with pytest.raises(GridError):
        make_split((0, 1), (2, 2))  # left side empty with two variables


# --- coefficient arrangement --------------------------------------------


def test_arrange_coefficients_2d(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    a_lag, b_lag = realization.a_lag, realization.b_lag
    np.testing.assert_allclose(
        a_lag.real, [[-1 / 3, 10 / 9, -7 / 9], [5 / 9, -14 / 9, 1]], atol=1e-11
    )
    np.testing.assert_allclose(
        b_lag.real, [[1 / 9, -2, 25 / 9], [-1 / 3, 6, -25 / 3]], atol=1e-11
    )


def _arrange_by_enumeration(model, split):
    """Reference: one weight per (I_q, J_r) pair of the Kronecker multi-indices."""
    if not split.left:
        return -model.weights_c[None, :], np.zeros((0, split.kappa), dtype=complex)
    i_list, j_list = multi_indices(split)
    a_lag = np.empty((split.ell, split.kappa), dtype=complex)
    b_lag = np.empty((split.ell, split.kappa), dtype=complex)
    for q, i_multi in enumerate(i_list):
        for r, j_multi in enumerate(j_list):
            full = [0] * len(model.counts)
            for var, idx in zip(split.left + split.right, i_multi + j_multi):
                full[var] = idx
            flat = int(np.ravel_multi_index(full, model.counts))
            a_lag[q, r] = model.weights_c[flat]
            b_lag[q, r] = model.weights_beta[flat]
    return a_lag, b_lag


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_arrange_coefficients_matches_enumeration(counts, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(counts)
    model = make_model(
        [np.arange(k, dtype=float) for k in counts],
        rng.normal(size=size) + 1j * rng.normal(size=size),
        rng.normal(size=size) + 1j * rng.normal(size=size),
    )
    for split in _all_splits(model.counts):
        realization = build_realization(model, split)
        for got, expected in zip(
            (realization.a_lag, realization.b_lag), _arrange_by_enumeration(model, split)
        ):
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)


def test_arrange_coefficients_single_variable(source_1d):
    model = _model_from_source(source_1d)
    realization = build_realization(model, make_split((0,), model.counts))
    a_lag, b_lag = realization.a_lag, realization.b_lag
    np.testing.assert_allclose(a_lag.real, [[-1 / 3, 4 / 3, -1]], atol=1e-12)
    assert b_lag.shape == (0, 3)


# --- assembly and evaluation --------------------------------------------


def test_realization_1d_matches_displayed_blocks(source_1d):
    model = _model_from_source(source_1d)
    realization = build_realization(model)
    assert realization.order == 3
    phi = realization.phi((0.0,))
    np.testing.assert_allclose(
        phi.real,
        [[-1, 3, 0], [-1, 0, 5], [-1 / 3, 4 / 3, -1]],
        atol=1e-12,
    )
    np.testing.assert_allclose(realization.b_vector.real, [0, 0, -1])
    assert eval_realization(realization, (0.0,)) == pytest.approx(4.0, abs=1e-12)


def test_realization_2d_matches_displayed_matrix(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    assert realization.order == 6

    def phi_expected(s, t):
        return np.array(
            [
                [s - 1, 3 - s, 0, 0, 0, 0],
                [s - 1, 0, 5 - s, 0, 0, 0],
                [-1 / 3, 10 / 9, -7 / 9, t + 1, 0, 0],
                [5 / 9, -14 / 9, 1, -t - 3, 0, 0],
                [1 / 9, -2, 25 / 9, 0, t + 1, 1 / 2],
                [-1 / 3, 6, -25 / 3, 0, -t - 3, -1 / 2],
            ]
        )

    rng = np.random.default_rng(5)
    for s, t in rng.uniform(-2, 2, (5, 2)):
        np.testing.assert_allclose(realization.phi((s, t)), phi_expected(s, t), atol=1e-10)
    np.testing.assert_allclose(realization.b_vector.real, [0, 0, 0.5, -0.5, 0, 0])
    np.testing.assert_allclose(realization.c_vector.real, [0, 0, 0, 0, 0, -1])


def test_realization_dimensions_3d(source_3d):
    model = _model_from_source(source_3d)
    assert build_realization(model, make_split((0, 1), model.counts)).order == 9
    assert build_realization(model, make_split((0,), model.counts)).order == 13


def test_eval_realization_matches_oracle_2d(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    rng = np.random.default_rng(21)
    for _ in range(50):
        s, t = rng.uniform(-2, 2), rng.uniform(-6, -0.1)
        expected = s * s * t / (s - t + 1)
        assert eval_realization(realization, (s, t)) == pytest.approx(expected, abs=1e-9)


def test_eval_realization_interpolates_at_support(source_3d):
    model = _model_from_source(source_3d)
    realization = build_realization(model, make_split((0, 1), model.counts))
    assert eval_realization(realization, (2, 1, 5)) == pytest.approx(1 / 4, rel=1e-9)


def test_realization_equals_model_everywhere(source_1d, source_2d, source_3d):
    rng = np.random.default_rng(31)
    for source in (source_1d, source_2d, source_3d):
        model = _model_from_source(source)
        realization = build_realization(model)
        for _ in range(100):
            point = tuple(rng.uniform(-0.8, 0.8, model.n_vars) + 8.5)
            try:
                reference = eval_model(model, point)
            except PoleError:
                continue
            value = eval_realization(realization, point)
            assert abs(value - reference) <= 1e-8 * (1 + abs(reference))


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_structured_evaluation_matches_the_dense_solve(counts, seed):
    rng = np.random.default_rng(seed)
    size = math.prod(counts)
    support = [np.arange(k) + 0.3 * rng.uniform(-1, 1, k) for k in counts]
    model = make_model(
        support,
        rng.normal(size=size) + 1j * rng.normal(size=size),
        rng.normal(size=size) + 1j * rng.normal(size=size),
    )
    # each coordinate on one of its support points or off them, with both
    # extremes always present
    points = [tuple(s[0] for s in support), tuple(rng.uniform(-1, 4, len(counts)))]
    points.append(
        tuple(s[rng.integers(s.size)] if rng.random() < 0.4 else rng.uniform(-1, 4) for s in support)
    )
    for split in _all_splits(model.counts):
        realization = build_realization(model, split)
        for point in points:
            reference = dense_value(realization, point)
            value = eval_realization(realization, point)
            assert abs(value - reference) <= 1e-10 * abs(reference)
            if split.left:
                compressed = compress_realization(realization)
                reference = dense_compressed_value(compressed, point)
                value = eval_realization(compressed.parent, point)
                assert abs(value - reference) <= 1e-10 * abs(reference)


def _two_point_pole_models():
    """``c = [1, 1]`` on ``{0, 2}`` vanishes at 1, alone and as a two-variable product."""
    single = make_model([[0.0, 2.0]], [1.0, 1.0], [1.0, -1.0])
    product = make_model([[0.0, 2.0], [0.0, 2.0]], np.ones(4), np.arange(1.0, 5.0))
    return single, product


def test_exact_poles_raise_in_every_path():
    single, product = _two_point_pole_models()
    realization = build_realization(single)
    for evaluate in (eval_realization, dense_value):
        with pytest.raises(PoleError):
            evaluate(realization, (1.0,))
    for split in _all_splits(product.counts):
        realization = build_realization(product, split)
        compressed = compress_realization(realization)
        for point in ((1.0, 0.5), (0.5, 1.0), (1.0, 1.0)):
            with pytest.raises(PoleError):
                eval_realization(realization, point)
            with pytest.raises(PoleError):
                eval_realization(compressed.parent, point)
        # rounding leaves Phi invertible at some one-sided poles; at (1, 1) it is singular
        with pytest.raises(PoleError):
            dense_value(realization, (1.0, 1.0))


def test_swapping_coefficient_blocks_inverts_the_function(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    from dataclasses import replace

    swapped = replace(realization, weights=realization.weights[::-1])
    rng = np.random.default_rng(8)
    for _ in range(20):
        point = (rng.uniform(6, 9), rng.uniform(-9, -6))
        value = eval_realization(realization, point)
        inverted = eval_realization(swapped, point)
        assert inverted == pytest.approx(1 / value, rel=1e-8)


# --- compression ---------------------------------------------------------


def test_compression_2d_golden(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    compressed = compress_realization(realization)
    assert compressed.size == 4
    np.testing.assert_allclose(compressed.b_vector.real, [0, 0, 0.5, -0.5])
    rng = np.random.default_rng(14)
    for t in rng.uniform(-5, 5, 10):
        row = compressed.c_row((0.0, t))
        np.testing.assert_allclose(
            row.real, [-2 * t / 9, 4 * t, -50 * t / 9, 0], atol=1e-10
        )


def test_compression_3d_golden(source_3d):
    model = _model_from_source(source_3d)
    realization = build_realization(model, make_split((0, 1), model.counts))
    compressed = compress_realization(realization)
    assert compressed.size == 6
    rng = np.random.default_rng(15)
    for _ in range(5):
        t, p = rng.uniform(-2, 2), rng.uniform(8, 12)
        row = compressed.c_row((0.0, t, p))
        assert row[0] == pytest.approx(p / 28 + 1 / 14, abs=1e-9)
    np.testing.assert_allclose(compressed.b_vector.real, [0, 0, 0, 0.5, -1, 0.5])


def test_compression_matches_full_evaluation(source_2d, source_3d):
    rng = np.random.default_rng(16)
    for source in (source_2d, source_3d):
        model = _model_from_source(source)
        realization = build_realization(model)
        compressed = compress_realization(realization)
        assert compressed.size == realization.split.kappa + realization.split.ell - 1
        assert compressed.size == realization.order - realization.split.ell
        for _ in range(100):
            point = tuple(rng.uniform(7, 10, model.n_vars))
            reference = dense_compressed_value(compressed, point)
            value = eval_realization(compressed.parent, point)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)


def test_compression_rejects_single_variable(source_1d):
    model = _model_from_source(source_1d)
    with pytest.raises(GridError):
        compress_realization(build_realization(model))


# --- rank checks ---------------------------------------------------------


def test_minimality_ranks(source_1d, source_2d):
    model = _model_from_source(source_1d)
    realization = build_realization(model)
    (report,) = check_r_minimality(realization, [(2.0,)])
    assert report["rank_phi_b"] == 3 and report["rank_c_phi"] == 3 and report["ok"]

    model2 = _model_from_source(source_2d)
    realization2 = build_realization(model2, make_split((0,), model2.counts))
    rng = np.random.default_rng(19)
    points = [tuple(rng.uniform(-5, 5, 2)) for _ in range(10)]
    for report in check_r_minimality(realization2, points):
        assert report["rank_phi_b"] == 6 and report["rank_c_phi"] == 6 and report["ok"]


def test_minimality_detects_broken_companion(source_2d):
    model = _model_from_source(source_2d)
    realization = build_realization(model, make_split((0,), model.counts))
    from dataclasses import replace
    from mvloewner import PseudoCompanion

    # zero the closing weight row of the left companion; the input vector
    # is assembled from that same row, so it collapses with it
    broken = list(realization.companions)
    broken[1] = PseudoCompanion("t", broken[1].points, np.zeros(2, dtype=complex))
    rigged = replace(realization, companions=tuple(broken))
    np.testing.assert_array_equal(rigged.b_vector, 0)
    (report,) = check_r_minimality(rigged, [(0.25, 0.75)])
    assert not report["ok"]


# --- split optimization ---------------------------------------------------


def test_optimal_split_minimizes_dimension():
    split = optimal_split([2, 2, 1, 1])
    # right group (2,2), left group (1,1): m = 2*4 + 9 - 1 = 16, which beats
    # the mixed split (2,1)-(2,1) with m = 17 and (2)-(2,1,1) with m = 26
    assert split.order == 16
    assert split.right == (0, 1)
    assert make_split((0, 2), (3, 3, 2, 2)).order == 17
    assert make_split((0,), (3, 3, 2, 2)).order == 26


def test_optimal_split_3d(source_3d):
    split = optimal_split([1, 1, 2])
    assert split.order == 9
    assert split.right == (0, 1)


def test_optimal_split_two_variables():
    assert optimal_split([2, 1]).order == min(
        make_split((0,), (3, 2)).order, make_split((1,), (3, 2)).order
    )
    with pytest.raises(GridError):
        optimal_split([3])


def test_optimal_split_large_n_heuristic():
    degrees = [2, 1] * 9  # 18 variables
    split = optimal_split(degrees)
    assert sorted(split.right + split.left) == list(range(18))
    # ell = 3**a * 2**b for a left group of a threes and b twos; both groups nonempty
    total = 3**9 * 2**9
    exact = min(
        2 * 3**a * 2**b + total // (3**a * 2**b) - 1
        for a in range(10)
        for b in range(10)
        if (a, b) not in ((0, 0), (9, 9))
    )
    assert split.order == exact == 8981


def _exhaustive_split(degrees):
    """Every nonempty bipartition, keyed as optimal_split breaks ties: the reference."""
    counts = tuple(d + 1 for d in degrees)
    n = len(counts)
    best = None
    for size in range(1, n):
        for right in itertools.combinations(range(n), size):
            split = make_split(right, counts)
            key = (split.order, len(split.left), right)
            if best is None or key < best[0]:
                best = (key, split)
    return best[1]


@pytest.mark.parametrize("n", [*range(2, 11), 12])
def test_optimal_split_equals_exhaustive_search(n):
    rng = np.random.default_rng(n)
    for _ in range(3 if n == 12 else 20):
        degrees = rng.integers(0, 5, size=n).tolist()
        split, reference = optimal_split(degrees), _exhaustive_split(degrees)
        assert (split.right, split.left) == (reference.right, reference.left), degrees


def test_resolve_split_policies(source_3d):
    assert resolve_split("first", (2, 2, 3)).right == (0,)
    assert resolve_split("auto", (2, 2, 3)).right == optimal_split([1, 1, 2]).right == (0, 1)
    assert resolve_split((2,), (2, 2, 3)).left == (0, 1)
    for spec in ("first", "auto"):
        assert (resolve_split(spec, (4,)).right, resolve_split(spec, (4,)).left) == ((0,), ())
    with pytest.raises(GridError):
        resolve_split((0, 1, 2), (2, 2, 3))
    model = _model_from_source(source_3d)
    assert build_realization(model).order == 13
    assert build_realization(model, "auto").order == 9
    assert build_realization(model, (2,)).order == 10


# --- memory guard ----------------------------------------------------------


def test_dense_phi_past_the_guard_is_refused_before_allocating():
    # split (0,) of counts (4,4,3,3,3,3,3,3): kappa 4, ell 2,916, m 5,835,
    # a 544,755,600-byte Phi
    counts = (4, 4, 3, 3, 3, 3, 3, 3)
    size = math.prod(counts)
    model = make_model(
        [np.arange(k, dtype=float) for k in counts], np.ones(size), np.ones(size)
    )
    realization = build_realization(model, make_split((0,), counts))
    assert realization.order == 5835
    point = tuple(np.full(len(counts), 0.5))
    compressed = compress_realization(realization)
    # evaluation never forms Phi
    for evaluate in (
        lambda: eval_realization(realization, point),
        lambda: eval_realization(compressed.parent, point),
    ):
        tracemalloc.start()
        try:
            value = evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(1.0, rel=1e-12)
        assert peak < 2**20
    calls = (
        lambda: realization.phi(point),
        lambda: compressed.phi(point),
        lambda: check_r_minimality(realization, [point]),
    )
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(MemoryGuardError) as info:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.estimated_bytes == 544_755_600
        assert peak < 2**20


def test_polynomial_determinant_kronecker_past_the_guard_is_refused():
    # 13 two-point companions: a 8,192 x 8,192 Kronecker product, 1 GiB
    companions = [build_pseudo_companion([0.0, 1.0], f"x{i}") for i in range(13)]
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError) as info:
            polynomial_determinant(np.ones(2**13), companions, "M1", np.full(13, 0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.estimated_bytes == 16 * 2**26
    assert peak < 2**20


# --- polynomial determinants ----------------------------------------------


def test_polynomial_determinant_forms_agree():
    rng = np.random.default_rng(23)
    for p1, p2 in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        companions = [
            build_pseudo_companion(rng.uniform(-3, 3, p1), "s"),
            build_pseudo_companion(rng.uniform(-3, 3, p2), "t"),
        ]
        coeffs = rng.uniform(-2, 2, (p1, p2))
        for _ in range(20):
            point = rng.uniform(-5, 5, 2)
            d1 = polynomial_determinant(coeffs, companions, "M1", point)
            d2 = polynomial_determinant(coeffs, companions, "M2", point)
            assert d2 == pytest.approx(d1, rel=1e-9, abs=1e-9)


def test_polynomial_determinant_zero_coefficients():
    companions = [
        build_pseudo_companion([0.0, 1.0], "s"),
        build_pseudo_companion([2.0, 3.0], "t"),
    ]
    value = polynomial_determinant(np.zeros((2, 2)), companions, "M1", (0.3, 0.7))
    assert value == pytest.approx(0.0, abs=1e-14)


def test_polynomial_determinant_single_variable_linear():
    # Lagrange coefficients of p(s) = s over nodes (0, 1): alpha_i = s_i * q_i
    nodes = np.array([0.0, 1.0])
    comp = build_pseudo_companion(nodes, "s")
    alphas = nodes * comp.q_weights
    rng = np.random.default_rng(29)
    for s in rng.uniform(-4, 4, 10):
        value = polynomial_determinant(alphas, [comp], "M1", (s,))
        assert value == pytest.approx(s, abs=1e-12)


# --- serialization ---------------------------------------------------------


def _every_split(n):
    """Every ordered right|left partition of ``n`` variables (left empty only for one)."""
    if n == 1:
        return [((0,), ())]
    orders = itertools.permutations(range(n))
    return [(order[:cut], order[cut:]) for order in orders for cut in range(1, n)]


def _bits(realization):
    arrays = [realization.weights, realization.c_vector, realization.b_vector]
    for comp in realization.companions:
        arrays += [comp.points, comp.q_weights]
    return [(array.shape, array.tobytes()) for array in arrays]


@pytest.mark.parametrize(
    "fixture, right, left",
    [
        pytest.param(
            fixture, right, left, id=f"{n}var-{''.join(map(str, right))}|{''.join(map(str, left))}"
        )
        for n, fixture in ((1, "source_1d"), (2, "source_2d"), (3, "source_3d"))
        for right, left in _every_split(n)
    ],
)
def test_realization_json_round_trip(request, fixture, right, left):
    model = _model_from_source(request.getfixturevalue(fixture))
    realization = build_realization(model, make_split(right, model.counts, left))
    doc = realization_to_dict(realization)
    split = realization.split
    assert (doc["m"], doc["kappa"], doc["ell"]) == (split.order, split.kappa, split.ell)
    clone = realization_from_dict(json.loads(json.dumps(doc)))
    assert clone.split == split and clone.variable_names == model.variable_names
    assert _bits(clone) == _bits(realization)


def _set(path, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc["A_lag"].pop(), id="A_lag_2x4_not_3x4"),
        pytest.param(lambda doc: doc["B_lag"][1].pop(), id="B_lag_short_row"),
        pytest.param(lambda doc: doc["C"].append([0.0, 0.0]), id="C_length_10_not_9"),
        pytest.param(lambda doc: doc["B"].pop(), id="B_length_8_not_9"),
        pytest.param(_set(("B", 0), [1.0, 0.0]), id="B_nonzero_outside_q"),
        pytest.param(_set(("B", 4), [0.3, 0.0]), id="B_not_the_q_product"),
        pytest.param(_set(("C", 8), [1.0, 0.0]), id="C_plus_e_m"),
        pytest.param(_set(("C", 0), [0.0, 1e-9]), id="C_nonzero_entry"),
        pytest.param(_set(("companions", 2, "q", 1), [9.0, 0.0]), id="q_changed_B_kept"),
        pytest.param(_set(("companions", 0, "points", 1), [2.0, 0.0]), id="repeated_point"),
        pytest.param(_set(("m",), 999), id="m_999_not_9"),
        pytest.param(_set(("kappa",), 3), id="kappa_3_not_4"),
        pytest.param(_set(("ell",), 4), id="ell_4_not_3"),
        pytest.param(lambda doc: doc["variables"].append("u"), id="4_names_for_3_companions"),
        pytest.param(_set(("variables", 2), "q"), id="name_not_the_companion_name"),
        pytest.param(_set(("variables",), ["t", "s", "p"]), id="names_out_of_companion_order"),
    ],
)
def test_loader_refuses_realizations_off_the_documented_form(source_3d, edit):
    model = _model_from_source(source_3d)
    doc = realization_to_dict(build_realization(model, make_split((0, 1), model.counts)))
    realization_from_dict(copy.deepcopy(doc))
    edit(doc)
    with pytest.raises(GridError):
        realization_from_dict(doc)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: doc["A_lag"].append(doc["A_lag"][0]), id="A_lag_two_rows"),
        pytest.param(lambda doc: doc["B_lag"].append(doc["A_lag"][0]), id="B_lag_one_row"),
        pytest.param(_set(("B", 2), [1.0, 0.0]), id="B_plus_e_k"),
        pytest.param(_set(("B", 0), [-1.0, 0.0]), id="B_nonzero_entry"),
        pytest.param(_set(("m",), 999), id="m_999_not_3"),
        pytest.param(lambda doc: doc["variables"].append("t"), id="2_names_for_1_companion"),
    ],
)
def test_loader_refuses_single_variable_realizations_off_the_documented_form(source_1d, edit):
    doc = realization_to_dict(build_realization(_model_from_source(source_1d)))
    realization_from_dict(copy.deepcopy(doc))
    edit(doc)
    with pytest.raises(GridError):
        realization_from_dict(doc)
