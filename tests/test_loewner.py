"""Loewner matrix construction, Sylvester identity, null spaces, order detection."""

import functools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvloewner import (
    DenseSource,
    GridError,
    LoewnerMatrix,
    MemoryGuardError,
    OracleSource,
    Tableau,
    VariableGrid,
    build_loewner_1d,
    build_loewner_nd,
    build_sylvester_operands,
    detect_orders,
    make_model,
    nullspace_vector,
    parse,
    sylvester_residual,
)
from mvloewner import model as model_module
from mvloewner.loewner import DEFAULT_RANK_TOL, numerical_rank
from conftest import C1_EXPECTED, C2_EXPECTED

from synthetic import densify_model, random_model


def _h1(s):
    return (s * s + 4) / (s + 1)


L1_EXPECTED = np.array(
    [
        [Fraction(1, 6), Fraction(7, 12), Fraction(13, 18)],
        [Fraction(1, 2), Fraction(3, 4), Fraction(5, 6)],
        [Fraction(9, 14), Fraction(23, 28), Fraction(37, 42)],
        [Fraction(13, 18), Fraction(31, 36), Fraction(49, 54)],
    ],
    dtype=float,
)


def test_build_1d_reproduces_divided_differences():
    cols = [1, 3, 5]
    rows = [2, 4, 6, 8]
    grid = VariableGrid("s", cols, rows)
    lm = build_loewner_1d(grid, [_h1(s) for s in cols], [_h1(s) for s in rows])
    np.testing.assert_allclose(lm.entries.real, L1_EXPECTED, atol=1e-14)
    assert lm.entries[0, 0] == pytest.approx(1 / 6)
    np.testing.assert_allclose(lm.entries[1].real, [1 / 2, 3 / 4, 5 / 6], atol=1e-15)


def test_build_1d_constant_function_gives_zero_matrix():
    lm = build_loewner_1d(VariableGrid("s", [0, 1, 2], [3, 4]), [5, 5, 5], [5, 5])
    assert np.all(lm.entries == 0)


def test_build_1d_identity_function_gives_ones():
    lm = build_loewner_1d(VariableGrid("s", [0, 1], [2, 3]), [0, 1], [2, 3])
    np.testing.assert_array_equal(lm.entries, np.ones((2, 2)))


def test_build_1d_rejects_values_that_do_not_match_the_grid():
    # coincident points cannot reach the builder: the grid refuses them (test_grids.py)
    grid = VariableGrid("s", [1, 2], [3, 4, 5])
    message = r"variable 's' has 2 column and 3 row points, got values of shape "
    for w, v, shapes in (
        ([0, 0, 0], [0, 0, 0], r"\(3,\) and \(3,\)"),
        ([0, 0], [0, 0], r"\(2,\) and \(2,\)"),
        (np.zeros((4, 2)), np.zeros((4, 2)), r"\(4, 2\) and \(4, 2\)"),
        (0, [0, 0, 0], r"\(\) and \(3,\)"),
    ):
        with pytest.raises(GridError, match=message + shapes):
            build_loewner_1d(grid, w, v)


def test_build_nd_2d_entries_and_rank(source_2d):
    lm = build_loewner_nd(source_2d)
    assert lm.shape == (6, 6)
    assert lm.entries[0, 0] == pytest.approx(1 / 3)
    assert lm.entries[0, 1] == pytest.approx(-3 / 5)
    result = nullspace_vector(lm)
    assert result.rank == 5
    np.testing.assert_allclose(result.vector.real, C2_EXPECTED, atol=1e-11)
    np.testing.assert_allclose(result.vector.imag, 0, atol=1e-11)


def test_build_nd_3d_rank(source_3d):
    lm = build_loewner_nd(source_3d)
    assert lm.shape == (12, 12)
    assert nullspace_vector(lm).rank == 11


def test_build_nd_single_variable_matches_1d_bitwise(source_1d):
    nd = build_loewner_nd(source_1d)
    grid = source_1d.grids[0]
    values = source_1d.values_on_product([grid.union_points])
    direct = build_loewner_1d(grid, values[:3], values[3:])
    np.testing.assert_array_equal(nd.entries, direct.entries)


def test_memory_guard_refuses_large_build(source_synth2d, monkeypatch):
    monkeypatch.setattr("mvloewner.loewner.DEFAULT_MEMORY_GUARD", 100)
    with pytest.raises(MemoryGuardError) as info:
        build_loewner_nd(source_synth2d, source_synth2d.grids)
    assert info.value.estimated_bytes == 16 * (11 * 11) * (10 * 10)
    assert info.value.limit_bytes == 100


def test_sylvester_operands_1d(source_1d):
    ops = build_sylvester_operands(source_1d)
    np.testing.assert_array_equal(ops.lambda_diags[0], [1, 3, 5])
    np.testing.assert_array_equal(ops.mu_diags[0], [2, 4, 6, 8])
    np.testing.assert_allclose(ops.w.real, [5 / 2, 13 / 4, 29 / 6], atol=1e-15)


def test_sylvester_operands_kronecker_layout(source_2d):
    ops = build_sylvester_operands(source_2d)
    expected = np.kron(np.diag([1, 3, 5]), np.eye(2))
    np.testing.assert_array_equal(np.diag(ops.lambda_diags[0]), expected)
    expected_second = np.kron(np.eye(3), np.diag([-1, -3]))
    np.testing.assert_array_equal(np.diag(ops.lambda_diags[1]), expected_second)


def test_sylvester_operands_singleton_grids():
    from mvloewner import OracleSource, VariableGrid, parse

    source = OracleSource(
        parse("s*t", ["s", "t"]),
        [VariableGrid("s", [2], [3]), VariableGrid("t", [5], [6])],
    )
    ops = build_sylvester_operands(source)
    np.testing.assert_array_equal(ops.lambda_diags[0], [2])
    np.testing.assert_array_equal(ops.lambda_diags[1], [5])


def test_sylvester_residual_1d_and_2d(source_1d, source_2d):
    for source in (source_1d, source_2d):
        lm = build_loewner_nd(source)
        ops = build_sylvester_operands(source)
        assert sylvester_residual(lm, ops) <= 1e-13


def test_sylvester_residual_detects_perturbation(source_2d):
    lm = build_loewner_nd(source_2d)
    ops = build_sylvester_operands(source_2d)
    perturbed = lm.entries.copy()
    perturbed[2, 3] += 1.0
    bad = LoewnerMatrix(perturbed)
    assert sylvester_residual(bad, ops) > 0.01


def _random_dense_source(rng, max_rows=4):
    """Random complex samples on 1-4 variables of 1-4 columns and 1-``max_rows`` rows."""
    grids = []
    for l in range(int(rng.integers(1, 5))):
        k = int(rng.integers(1, 5))
        q = int(rng.integers(1, max_rows + 1))
        points = rng.permutation(np.linspace(-2, 2, k + q)) + rng.uniform(-0.05, 0.05)
        grids.append(VariableGrid(f"x{l}", points[:k], points[k:]))
    shape = tuple(g.union_points.size for g in grids)
    return DenseSource(Tableau(grids, rng.normal(size=shape) + 1j * rng.normal(size=shape)))


def test_sylvester_residual_random_datasets():
    rng = np.random.default_rng(42)
    for _ in range(100):
        source = _random_dense_source(rng)
        lm = build_loewner_nd(source)
        ops = build_sylvester_operands(source)
        assert sylvester_residual(lm, ops) <= 1e-12


def _unblocked_entries(source):
    """The Loewner matrix by the one-shot formula, as a reference for the blocked build."""
    diffs = [np.subtract.outer(g.row_points, g.column_points) for g in source.grids]
    w = source.values_on_product([g.column_points for g in source.grids]).reshape(-1)
    v = source.values_on_product([g.row_points for g in source.grids]).reshape(-1)
    return (v[:, None] - w[None, :]) / functools.reduce(np.kron, diffs)


def _unblocked_residual(lm, ops):
    """The Sylvester chain on the whole matrix, as a reference for the blocked residual."""
    x = ops.mu_diags[0][:, None] * lm.entries - lm.entries * ops.lambda_diags[0][None, :]
    for l in range(1, len(ops.lambda_diags)):
        x = ops.mu_diags[l][:, None] * x - x * ops.lambda_diags[l][None, :]
    target = ops.v[:, None] - ops.w[None, :]
    return np.linalg.norm(x - target) / np.linalg.norm(target)


@pytest.mark.parametrize("chunk_bytes", [model_module.SWEEP_CHUNK_BYTES, 256])
def test_blocked_build_and_residual_match_unblocked_formulas(chunk_bytes):
    rng = np.random.default_rng(7)
    for _ in range(60):
        source = _random_dense_source(rng, max_rows=5)
        ops = build_sylvester_operands(source)
        with mock.patch.object(model_module, "SWEEP_CHUNK_BYTES", chunk_bytes):
            lm = build_loewner_nd(source)
            residual = sylvester_residual(lm, ops)
        reference = _unblocked_entries(source)
        assert lm.entries.shape == reference.shape
        assert lm.entries.tobytes() == reference.tobytes()
        expected = _unblocked_residual(lm, ops)
        assert abs(residual - expected) <= 1e-13 * expected


def test_blocked_residual_detects_a_perturbed_entry_in_the_last_block(source_3d):
    with mock.patch.object(model_module, "SWEEP_CHUNK_BYTES", 256):
        lm = build_loewner_nd(source_3d)
        ops = build_sylvester_operands(source_3d)
        assert sylvester_residual(lm, ops) <= 1e-13
        perturbed = lm.entries.copy()
        perturbed[-1, -1] += 1.0
        bad = LoewnerMatrix(perturbed)
        assert sylvester_residual(bad, ops) > 0.01


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(2, 5), st.integers(1, 3)), min_size=1, max_size=3),
)
def test_loewner_times_weights_is_the_model_residual_on_its_rows(seed, shape):
    """``(L c)_i = v_i D(mu_i) - N(mu_i)`` with the model's own barycentric sums ``D``, ``N``.

    Random samples and weights, supports a random subset of each variable's
    union points; the Loewner matrix is the dense one over
    ``VariableGrid.with_supports``, whose rows are the other union points.
    """
    rng = np.random.default_rng(seed)
    grids, supports = [], []
    for l, (size, k) in enumerate(shape):
        k = min(k, size - 1)
        points = rng.permutation(np.linspace(-2, 2, size)) + rng.uniform(-0.05, 0.05)
        grids.append(VariableGrid(f"x{l}", points[:k], points[k:]))
        supports.append(rng.choice(points, size=k, replace=False))
    extents = tuple(g.union_points.size for g in grids)
    source = DenseSource(Tableau(grids, rng.normal(size=extents) + 1j * rng.normal(size=extents)))
    total = int(np.prod([s.size for s in supports]))
    c = rng.normal(size=total) + 1j * rng.normal(size=total)
    model = make_model(supports, c, source.values_on_product(supports))
    selection = [g.with_supports(s) for g, s in zip(source.grids, supports)]
    row_points = [g.row_points for g in selection]

    lm = build_loewner_nd(source, selection)
    mesh = np.meshgrid(*row_points, indexing="ij")
    rows = np.stack([axis.reshape(-1) for axis in mesh], axis=1)
    factors = model_module._point_factors(model.support_points, rows)
    denominator, numerator = model_module._contract_points(model.weights, factors).T
    v = source.values_on_product(row_points).reshape(-1)
    residual = np.abs(lm.entries @ c - (v * denominator - numerator))
    # both sides sum the same terms (v_i - w_J) c_J / prod_l (mu - lambda)
    pairs = zip(row_points, supports)
    cauchy = np.abs(functools.reduce(np.kron, [1 / np.subtract.outer(r, s) for r, s in pairs]))
    scale = np.abs(v) * (cauchy @ np.abs(c)) + cauchy @ np.abs(model.weights_beta)
    assert np.all(residual <= 1e-13 * scale)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_blocked_build_and_residual_hold_no_full_size_temporary():
    # 8 x 8 columns against 128 x 64 rows: an 8 MiB Loewner matrix
    rng = np.random.default_rng(3)
    grids = [
        VariableGrid("s", np.linspace(-1, 1, 8), np.linspace(-0.99, 0.99, 128)),
        VariableGrid("t", np.linspace(2, 3, 8), np.linspace(2.01, 2.99, 64)),
    ]
    values = rng.normal(size=(136, 72)) + 1j * rng.normal(size=(136, 72))
    source = DenseSource(Tableau(grids, values))
    ops = build_sylvester_operands(source)
    lm, build_peak = _traced_peak(lambda: build_loewner_nd(source))
    assert lm.entries.nbytes == 8 * 2**20
    assert build_peak < lm.entries.nbytes + 2 * 2**20
    residual, residual_peak = _traced_peak(lambda: sylvester_residual(lm, ops))
    assert residual_peak < 2 * 2**20
    assert residual <= 1e-12


def test_nullspace_1d_golden(source_1d):
    lm = build_loewner_nd(source_1d)
    result = nullspace_vector(lm)
    assert result.rank == 2
    np.testing.assert_allclose(result.vector.real, C1_EXPECTED, atol=1e-12)


def test_nullspace_identity_flags_degenerate():
    result = nullspace_vector(np.eye(2))
    assert result.rank == 2


def test_nullspace_zero_matrix():
    result = nullspace_vector(np.zeros((3, 3)))
    assert result.rank == 0
    assert np.isclose(np.abs(result.vector).max(), 1.0)


def test_nullspace_reanchors_when_anchor_entry_vanishes():
    # weight vector with an exactly-zero last entry
    matrix = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
    # null space of this 2x3 matrix is span([-1, -2, 1]); append a row to
    # zero the last weight instead: use vector (1, -1, 0)
    matrix = np.array([[1.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
    result = nullspace_vector(matrix, anchor=-1)
    assert result.anchor != 2
    assert abs(result.vector[result.anchor] - 1) < 1e-14


def test_nullspace_of_a_tall_matrix_holds_no_square_left_factor():
    # a full SVD would allocate a 3000 x 3000 left factor: 137 MiB
    rng = np.random.default_rng(11)
    matrix = rng.normal(size=(3000, 10)) + 1j * rng.normal(size=(3000, 10))
    result, peak = _traced_peak(lambda: nullspace_vector(matrix))
    assert peak <= 2 * matrix.nbytes
    assert result.rank == 10


def _full_svd_reference(matrix, anchor=-1):
    """Null vector, rank, anchor and smallest singular value from the full SVD."""
    k = matrix.shape[1]
    _, sigma, vh = np.linalg.svd(matrix, full_matrices=True)
    rank = int(np.sum(sigma > 1e-8 * sigma[0]))
    vector = np.conj(vh[-1])
    index = anchor % k
    if abs(vector[index]) < 1e-10 * np.max(np.abs(vector)):
        index = int(np.argmax(np.abs(vector)))
    return vector / vector[index], rank, index, float(sigma[-1])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.data())
def test_nullspace_of_square_and_wide_matrices_matches_the_full_svd(seed, k, data):
    q = data.draw(st.integers(1, k))
    rank = data.draw(st.integers(0, q))
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(q, rank)) + 1j * rng.normal(size=(q, rank))
    right = rng.normal(size=(rank, k)) + 1j * rng.normal(size=(rank, k))
    matrix = left @ right
    anchor = data.draw(st.integers(-k, k - 1))
    result = nullspace_vector(matrix, anchor=anchor)
    vector, expected_rank, expected_anchor, sigma_min = _full_svd_reference(matrix, anchor)
    assert result.vector.tobytes() == vector.tobytes()
    assert result.rank == expected_rank
    assert result.anchor == expected_anchor
    assert result.sigma_min == sigma_min


def test_detect_orders_on_worked_examples(source_2d, source_synth2d):
    assert detect_orders(source_2d).degrees == (2, 1)
    estimate = detect_orders(source_synth2d)
    assert estimate.degrees == (4, 3)
    assert estimate.saturated == (False, False)


def test_detect_orders_constant_function():
    from mvloewner import OracleSource, VariableGrid, parse

    source = OracleSource(
        parse("3", ["s", "t"]),
        [VariableGrid("s", [0, 1], [2, 3]), VariableGrid("t", [5, 6], [7, 8])],
    )
    assert detect_orders(source).degrees == (0, 0)


def test_detect_orders_flags_saturation():
    rng = np.random.default_rng(0)
    model, rows = random_model(rng, [3], complex_weights=False)
    # offer only 3 columns/rows: rank saturates at 3, true degree hidden
    from mvloewner import DenseSource, Tableau, VariableGrid

    source = densify_model(model, rows)
    grid = source.grids[0]
    trimmed = VariableGrid("x1", grid.column_points[:3], grid.row_points[:3])
    values = source.values_on_product([trimmed.union_points])
    small = DenseSource(Tableau([trimmed], values))
    estimate = detect_orders(small)
    assert estimate.saturated == (True,)


def test_detect_orders_rank_equals_k_minus_one_for_matched_models(
    source_1d, source_2d, source_3d
):
    for source in (source_1d, source_2d, source_3d):
        lm = build_loewner_nd(source)
        result = nullspace_vector(lm)
        k_total = int(np.prod([g.column_points.size for g in source.grids]))
        assert result.rank == k_total - 1


def detect_orders_loop(source, sample_budget, rel_tol, seed):
    """The per-combination probe that ``detect_orders`` batches.

    Same seeded draws and combination dedupe; one fiber, one Loewner build
    and one full SVD per frozen combination.
    """
    rng = np.random.default_rng(seed)
    n = source.n_vars
    degrees, saturated = [], []
    for l, grid in enumerate(source.grids):
        cols, rows = grid.column_points, grid.row_points
        if cols.size + rows.size < 2:
            raise GridError("too few points")
        if rows.size == 0:
            degrees.append(0)
            saturated.append(True)
            continue
        combos = [{i: source.grids[i].column_points[0] for i in range(n) if i != l}]
        for _ in range(sample_budget):
            combo = {}
            for i in range(n):
                if i != l:
                    pool = source.grids[i].union_points
                    combo[i] = complex(pool[rng.integers(pool.size)])
            if combo not in combos:
                combos.append(combo)
        best = 0
        for combo in combos:
            per_var = [grid.union_points if i == l else [combo[i]] for i in range(n)]
            values = source.values_on_product(per_var).reshape(-1)
            lm = build_loewner_1d(grid, values[: cols.size], values[cols.size :])
            sigma = np.linalg.svd(lm.entries, compute_uv=False)
            best = max(best, int(numerical_rank(sigma, rel_tol)))
        degrees.append(best)
        saturated.append(best >= min(cols.size, rows.size))
    return tuple(degrees), tuple(saturated)


@st.composite
def order_sources(draw):
    """Oracle, densified, noise and adjacent-point sources of 1-4 variables."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["oracle", "dense", "noise", "adjacent"]))
    names = [f"x{l}" for l in range(draw(st.integers(1, 4)))]
    grids = []
    for name in names:
        k = draw(st.integers(1, 4))
        q = draw(st.integers(1 if k == 1 else 0, 4))
        points = rng.permutation(np.linspace(0.1, 1.0, 9))[: k + q]
        cols = points[:k]
        if kind == "adjacent" and k > 1:
            # distinct, but one ulp apart: a lookup must tell them apart
            cols[-1] = np.nextafter(cols[0], 2.0)
        grids.append(VariableGrid(name, cols, points[k:]))
    shape = tuple(g.union_points.size for g in grids)
    if kind == "noise":
        return DenseSource(Tableau(grids, rng.normal(size=shape) + 1j * rng.normal(size=shape)))
    num = "*".join(f"({v}^{draw(st.integers(0, 3))}+{rng.uniform(0.5, 1.5):.3f})" for v in names)
    den = "+".join(f"{rng.uniform(0.5, 1.5):.3f}*{v}^{draw(st.integers(0, 3))}" for v in names)
    oracle = OracleSource(parse(f"{num}/({den}+2)", names), grids)
    if kind == "oracle":
        return oracle
    values = oracle.densify().tableau.values
    if kind == "adjacent":
        # noise behind each last column point: a lookup that takes its neighbour misses it
        for l, g in enumerate(grids):
            if g.column_points.size > 1:
                index = [slice(None)] * len(grids)
                index[l] = g.column_points.size - 1
                values[tuple(index)] = rng.normal(size=values[tuple(index)].shape)
    return DenseSource(Tableau(grids, values))


@settings(max_examples=150, deadline=None)
@given(order_sources(), st.integers(0, 12), st.integers(0, 2**16))
def test_detect_orders_matches_per_combination_loop(source, budget, seed):
    estimate = detect_orders(source, budget, seed=seed)
    assert (estimate.degrees, estimate.saturated) == detect_orders_loop(
        source, budget, DEFAULT_RANK_TOL, seed
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 5),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), max_size=2),
)
def test_stacked_build_1d_matches_per_slice_builds(seed, k, q, lead):
    rng = np.random.default_rng(seed)
    points = rng.permutation(np.linspace(-1, 1, k + q)) * np.exp(1j * rng.uniform(0, 1))
    w = rng.normal(size=(*lead, k)) + 1j * rng.normal(size=(*lead, k))
    v = rng.normal(size=(*lead, q)) + 1j * rng.normal(size=(*lead, q))
    grid = VariableGrid("s", points[:k], points[k:])
    stacked = build_loewner_1d(grid, w, v)
    assert stacked.shape == (*lead, q, k)
    for index in np.ndindex(*lead):
        single = build_loewner_1d(grid, w[index], v[index])
        np.testing.assert_array_equal(stacked.entries[index], single.entries)


def test_numerical_rank_per_matrix_of_a_stack():
    sigma = np.array([[3.0, 1e-7, 1e-9], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(numerical_rank(sigma, 1e-8), [2, 3, 0])
    assert numerical_rank(sigma[0], 1e-8) == 2
    assert numerical_rank(np.zeros(0)) == 0
