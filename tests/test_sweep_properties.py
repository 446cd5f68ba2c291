"""Batched model sweeps against independent per-point references.

``eval_model``, ``max_error``, the sampled ``verify`` sweep and
``plot-data`` all evaluate the model through one factor-matrix
contraction kernel.  The loops below are the per-tuple reference: the
scalar per-variable contraction (``reference_eval``) and one ``value_at``
per tuple.  Sums run in a different order, so values agree up to a
tolerance fixed from double precision, and maximizers must be the same
tuple.
"""

import itertools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvloewner import (
    DenseSource,
    OracleSource,
    PoleError,
    Tableau,
    VariableGrid,
    build_realization,
    eval_model,
    eval_realization,
    make_model,
    make_split,
    max_error,
    model_to_dict,
    parse,
    source_to_dict,
)
from mvloewner import model as model_module
from mvloewner.cli import main
from mvloewner.model import POLE_THRESHOLD, _factor_matrix

ABS_TOL = 1e-12
REL_TOL = 1e-9

SETTINGS = settings(max_examples=60, deadline=None)
# the default chunk holds these small cases whole; 256 bytes splits them
CHUNK_BYTES = st.sampled_from([model_module.SWEEP_CHUNK_BYTES, 256])


def reference_eval(model, point):
    """The barycentric quotient by one scalar contraction per weight vector.

    A coordinate equal to a support point selects that support index (the
    interpolation limit); otherwise its factor is ``1/(x - lambda)``.
    """
    factors = []
    for l, support in enumerate(model.support_points):
        diffs = complex(point[l]) - support
        hits = np.nonzero(diffs == 0)[0]
        if hits.size:
            indicator = np.zeros(support.size, dtype=complex)
            indicator[hits[0]] = 1.0
            factors.append(indicator)
        else:
            factors.append(1.0 / diffs)
    sums = []
    for weights in (model.weights_c, model.weights_beta):
        tensor = weights.reshape(model.counts)
        for factor in reversed(factors):
            tensor = tensor @ factor
        sums.append(complex(tensor))
    denominator, numerator = sums
    if abs(denominator) < POLE_THRESHOLD:
        raise PoleError(f"barycentric denominator vanishes at {tuple(point)}")
    return numerator / denominator


def reference_factor_matrix(support, coordinates):
    """Cauchy factors by one masked division, with an indicator row per hit."""
    diffs = np.asarray(coordinates, dtype=complex).reshape(-1, 1) - support
    hits = diffs == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = 1.0 / diffs
    rows = np.nonzero(hits.any(axis=1))[0]
    if rows.size:
        factors[rows] = 0.0
        factors[rows, np.argmax(hits[rows], axis=1)] = 1.0
    return factors


def loop_max_error(model, source):
    """The per-tuple sweep: first row-major maximizer, a pole counts as inf."""
    pools = [g.union_points for g in source.grids]
    best = -1.0
    best_point = None
    for combo in itertools.product(*pools):
        reference = source.value_at(combo)
        try:
            mismatch = abs(reference_eval(model, combo) - reference)
        except PoleError:
            mismatch = math.inf
        if mismatch > best:
            best = mismatch
            best_point = combo
    return float(best), best_point


def loop_sampled_sweep(model, source, seed, samples):
    """The per-sample sweep of ``verify`` on grids too large to sweep whole."""
    rng = np.random.default_rng(seed)
    error, location = -1.0, None
    for _ in range(samples):
        point = tuple(g.union_points[rng.integers(g.union_points.size)] for g in source.grids)
        try:
            mismatch = abs(reference_eval(model, point) - source.value_at(point))
        except PoleError:
            mismatch = math.inf
        if mismatch > error:
            error, location = mismatch, point
    return error, location


def _complex(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@st.composite
def models_on_grids(draw):
    """A random model and a dense random source whose grids hold its supports.

    Per variable, 1-4 support points sit among the column points (in a
    random position), and 0-3 further points are rows.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    extras = draw(st.lists(st.integers(0, 3), min_size=len(counts), max_size=len(counts)))
    rng = np.random.default_rng(seed)
    supports, grids = [], []
    for l, (k, extra) in enumerate(zip(counts, extras)):
        points = rng.permutation(np.linspace(-1.0, 1.0, k + extra))
        support = points[:k]
        columns = rng.permutation(points[: k + extra // 2])
        grids.append(VariableGrid(f"x{l + 1}", columns, points[k + extra // 2 :]))
        supports.append(support)
    total = math.prod(counts)
    model = make_model(supports, _complex(rng, total), _complex(rng, total))
    extents = tuple(g.union_points.size for g in grids)
    source = DenseSource(Tableau(grids, _complex(rng, extents)))
    return model, source


def _assert_same_sweep(batched, looped):
    (error, point), (expected_error, expected_point) = batched, looped
    assert point == expected_point
    if math.isinf(expected_error):
        assert error == expected_error
    else:
        assert abs(error - expected_error) <= ABS_TOL + REL_TOL * expected_error


@SETTINGS
@given(models_on_grids(), CHUNK_BYTES)
def test_max_error_matches_per_tuple_loop(case, chunk_bytes):
    model, source = case
    with mock.patch.object(model_module, "SWEEP_CHUNK_BYTES", chunk_bytes):
        batched = max_error(model, source)
    _assert_same_sweep(batched, loop_max_error(model, source))


def _pole_case(model, source, rng):
    """Denominator weights pairwise equal along the last variable vanish at 1.

    With supports (0, 2) of the last variable, the factors at 1 are
    (1, -1), so every tuple whose last coordinate is 1 is an exact pole.
    """
    supports = [*model.support_points[:-1], np.array([0.0, 2.0])]
    rest = math.prod(model.counts[:-1])
    c = np.repeat(_complex(rng, rest), 2)
    pole_model = make_model(supports, c, _complex(rng, 2 * rest))
    grids = [*source.grids[:-1], VariableGrid(f"x{model.n_vars}", [2.0, 0.0], [1.0, -0.5])]
    extents = tuple(g.union_points.size for g in grids)
    return pole_model, DenseSource(Tableau(grids, _complex(rng, extents)))


@SETTINGS
@given(models_on_grids(), st.integers(0, 2**32 - 1))
def test_max_error_reports_pole_where_loop_does(case, seed):
    pole_model, pole_source = _pole_case(*case, np.random.default_rng(seed))
    batched = max_error(pole_model, pole_source)
    assert batched[0] == math.inf
    _assert_same_sweep(batched, loop_max_error(pole_model, pole_source))
    values = eval_model(pole_model, [[*batched[1][:-1], 1.0], [*batched[1][:-1], -0.5]])
    assert np.isinf(values).tolist() == [True, False]


def _scattered_points(model, rng, count):
    """Each coordinate on a random support point or off the grid, evenly mixed."""
    columns = []
    for support in model.support_points:
        off = rng.uniform(-1.2, 1.2, count)
        on = support[rng.integers(support.size, size=count)]
        columns.append(np.where(rng.random(count) < 0.5, on, off))
    return np.stack(columns, axis=1)


@SETTINGS
@given(models_on_grids(), st.integers(0, 2**32 - 1), CHUNK_BYTES)
def test_eval_at_points_matches_eval_model(case, seed, chunk_bytes):
    """One-point and batched ``eval_model`` against the scalar reference.

    Points mix support coordinates with off-grid ones; the pole model adds
    exact poles wherever the last coordinate is 1.
    """
    rng = np.random.default_rng(seed)
    pole_model, _ = _pole_case(*case, rng)
    for model in (case[0], pole_model):
        points = _scattered_points(model, rng, 40)
        if model is pole_model:
            points[::2, -1] = 1.0
        with mock.patch.object(model_module, "SWEEP_CHUNK_BYTES", chunk_bytes):
            values = eval_model(model, points)
        for point, value, pole in zip(points, values, np.isinf(values)):
            try:
                expected = reference_eval(model, point)
            except PoleError:
                assert pole
                with pytest.raises(PoleError):
                    eval_model(model, tuple(point))
                continue
            assert not pole
            scalar = eval_model(model, tuple(point))
            for got in (value, scalar):
                assert abs(got - expected) <= ABS_TOL + REL_TOL * abs(expected)


def _every_split(counts):
    """Each ordered right group with the rest, in every order, as left group."""
    n = len(counts)
    if n == 1:
        return [make_split((0,), counts)]
    return [
        make_split(perm[:cut], counts, perm[cut:])
        for perm in itertools.permutations(range(n))
        for cut in range(1, n)
    ]


@SETTINGS
@given(models_on_grids(), st.integers(0, 2**32 - 1), CHUNK_BYTES)
def test_batched_eval_realization_matches_one_point_calls(case, seed, chunk_bytes):
    """Batched ``eval_realization`` against its one-point calls and ``eval_model``.

    Every split of the variables, in every order, is realized; points mix
    support coordinates with off-grid ones, and the pole model adds exact
    poles wherever the last coordinate is 1.  A batched entry is ``inf``
    exactly where the one-point call raises :class:`PoleError`.
    """
    rng = np.random.default_rng(seed)
    pole_model, _ = _pole_case(*case, rng)
    for model in (case[0], pole_model):
        points = _scattered_points(model, rng, 30)
        if model is pole_model:
            points[::2, -1] = 1.0
        realizations = [build_realization(model, split) for split in _every_split(model.counts)]
        with mock.patch.object(model_module, "SWEEP_CHUNK_BYTES", chunk_bytes):
            expected = eval_model(model, points)
            batches = [eval_realization(realization, points) for realization in realizations]
        for realization, values in zip(realizations, batches):
            assert values.shape == (len(points),)
            for point, value, reference in zip(points, values, expected):
                try:
                    scalar = eval_realization(realization, tuple(point))
                except PoleError:
                    assert np.isinf(value) and np.isinf(reference)
                    continue
                assert not np.isinf(value)
                assert abs(value - scalar) <= ABS_TOL + REL_TOL * abs(scalar)
                assert abs(value - reference) <= ABS_TOL + REL_TOL * abs(reference)


@SETTINGS
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 30),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_factor_matrix_is_bitwise_the_masked_division(seed, k, count, hit_share):
    """Rows with exact support hits: same bits as one masked division, no warning."""
    rng = np.random.default_rng(seed)
    support = _complex(rng, k)
    coordinates = np.where(
        rng.random(count) < hit_share,
        support[rng.integers(k, size=count)],
        _complex(rng, count),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        factors = _factor_matrix(support, coordinates)
    expected = reference_factor_matrix(support, coordinates)
    assert factors.dtype == expected.dtype and factors.shape == expected.shape
    assert factors.tobytes() == expected.tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_vectorized_draw_equals_per_sample_draws(seed, sizes):
    rng = np.random.default_rng(seed)
    vectorized = rng.integers(0, sizes, size=(64, len(sizes)))
    rng = np.random.default_rng(seed)
    scalar = [[rng.integers(size) for size in sizes] for _ in range(64)]
    np.testing.assert_array_equal(vectorized, scalar)


def test_sampled_verify_sweep_matches_per_sample_loop(tmp_path, capsys):
    """Above 100,000 tuples verify samples 5,000 of them; same draw, same maximizer."""
    names = ["a", "b", "c", "d"]
    expression = "1/(1+a^2+b*c)+d/(d+3)"
    grids = [
        VariableGrid(v, np.linspace(0.1, 1.0, 9), np.linspace(0.15, 1.05, 9)) for v in names
    ]
    source = OracleSource(parse(expression, names), grids)
    supports = [g.column_points[:2] for g in grids]
    rng = np.random.default_rng(3)
    values = source.values_on_product(supports)
    model = make_model(supports, _complex(rng, 16), values, names=names)
    data_path = tmp_path / "oracle.json"
    data_path.write_text(json.dumps(source_to_dict(source)))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_dict(model)))

    main(["verify", "--model", str(model_path), "--oracle", str(data_path), "--seed", "5"])
    sweep = json.loads(capsys.readouterr().out)["checks"]["sweep"]
    assert sweep["sampled"] is True
    error, location = loop_sampled_sweep(model, source, 5, 5000)
    assert sweep["argmax"] == [[float(v.real), float(v.imag)] for v in location]
    assert abs(sweep["max_error"] - error) <= ABS_TOL + REL_TOL * error
