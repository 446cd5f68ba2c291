"""The multivariate barycentric rational model and its error sweeps.

A model is determined by per-variable support points, denominator weights
``c`` and sampled values ``w`` on the support product grid (both
flattened variable 0 slowest); the numerator weights are ``beta = c * w``.
Evaluation uses the barycentric quotient

    H(x) = sum_J beta_J / prod_l (x_l - lambda_J)
         / sum_J c_J   / prod_l (x_l - lambda_J),

with the standard limit at support coordinates: whenever ``x_l`` equals a
support point of variable ``l`` exactly, both sums restrict to the
multi-indices matching that coordinate and the corresponding factor is
dropped, independently per variable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, PoleError
from .grids import _complex_to_pairs, _json_typed, _pairs_to_complex

POLE_THRESHOLD = 1e-300
SWEEP_CHUNK_BYTES = 2**20  # largest intermediate of a point batch or a dense row block
FULL_SWEEP_TUPLES = 100_000  # bounds a whole-grid sweep; larger grids sample SWEEP_SAMPLES tuples
SWEEP_SAMPLES = 5_000


@dataclass(frozen=True, eq=False)
class BarycentricModel:
    variable_names: tuple
    support_points: tuple
    weights: np.ndarray  # (2, K): denominator weights c, numerator weights beta = c * w
    values_w: np.ndarray

    @property
    def weights_c(self):
        return self.weights[0]

    @property
    def weights_beta(self):
        return self.weights[1]

    @property
    def n_vars(self):
        return len(self.support_points)

    @property
    def counts(self):
        return tuple(p.size for p in self.support_points)


def make_model(support, c, w, names=None):
    """Assemble a barycentric model from support points, weights and values.

    Parameters
    ----------
    support : sequence of per-variable point arrays
    c : array of denominator weights, length ``prod(k_l)``
    w : array of sample values at the support tuples, same length
    names : sequence of str, optional
        Variable names; defaults to x1, x2, ...
    """
    support = tuple(np.asarray(p, dtype=complex) for p in support)
    if not support:
        raise GridError("the model declares no variables")
    for l, points in enumerate(support):
        if points.size == 0 or np.unique(points).size != points.size:
            raise GridError(f"support points of variable {l} are empty or not distinct")
    c = np.asarray(c, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    total = math.prod(p.size for p in support)
    if c.size != total or w.size != total:
        raise GridError(
            f"weights and values must have length {total}, got {c.size} and {w.size}"
        )
    if names is None:
        names = tuple(f"x{l + 1}" for l in range(len(support)))
    else:
        names = tuple(str(n) for n in names)
        if len(names) != len(support):
            raise GridError("one name per variable required")
        repeated = [n for l, n in enumerate(names) if n in names[:l]]
        if repeated:
            raise GridError(f"the model declares the variable {repeated[0]!r} twice")
    with np.errstate(all="ignore"):
        beta = c * w
    if not np.all(np.isfinite(beta)):
        raise GridError("numerator weights c * w are not finite")
    return BarycentricModel(names, support, np.stack([c, beta]), w)


def _factor_matrix(support, coordinates):
    """``(P, k)`` Cauchy factors ``1/(x - lambda)`` of one variable.

    A row whose coordinate equals a support point exactly is instead the
    indicator of its first match, the interpolation limit.
    """
    diffs = np.asarray(coordinates, dtype=complex).reshape(-1, 1) - support
    if np.count_nonzero(diffs) == diffs.size:
        return 1.0 / diffs
    hits = diffs == 0
    factors = 1.0 / np.where(hits, 1.0, diffs)
    rows = np.nonzero(hits.any(axis=1))[0]
    factors[rows] = 0.0
    factors[rows, np.argmax(hits[rows], axis=1)] = 1.0
    return factors


def _quotient(denominator, numerator):
    """``numerator / denominator``, ``inf`` where ``|denominator| < POLE_THRESHOLD``."""
    values = numerator / denominator
    values[np.abs(denominator) < POLE_THRESHOLD] = np.inf
    return values


def _point_factors(supports, points):
    """One ``(P, k)`` factor matrix per variable for ``(P, n)`` points."""
    return [_factor_matrix(s, points[:, l]) for l, s in enumerate(supports)]


def _contract_points(weights, factors):
    """Contract a ``(2, K)`` weight array with per-point factor rows, as ``(P, 2)``.

    ``factors`` holds one ``(P, k)`` matrix per axis of the weight tensor,
    in the order of its axes (the first varies slowest); each point
    contracts the tensor with its own rows, last axis first.  Row 0 of the
    result is the denominator sum, row 1 the numerator sum.
    """
    count = factors[0].shape[0]
    # layout (P, 2 * K_{<l}, k_l): one weight matrix per point
    tensor = factors[-1] @ weights.reshape(-1, factors[-1].shape[1]).T
    for factor in reversed(factors[:-1]):
        tensor = np.matmul(tensor.reshape(count, -1, factor.shape[1]), factor[:, :, None])
    return tensor.reshape(count, 2)


def _blocks(count, item_bytes):
    """Slices of ``range(count)``, each about ``SWEEP_CHUNK_BYTES`` of ``item_bytes`` items."""
    step = max(1, SWEEP_CHUNK_BYTES // max(1, item_bytes))
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _as_points(points, n_vars):
    """``points`` as one point ``(n,)`` or a batch ``(P, n)`` of complex coordinates."""
    array = np.asarray(points, dtype=complex)
    if array.ndim not in (1, 2) or array.shape[-1] != n_vars:
        raise GridError(f"expected {n_vars} coordinates or a (P, {n_vars}) array, got {array.shape}")
    return array


@np.errstate(all="ignore")
def _eval_points(weights, supports, points):
    """Quotient of ``weights`` over ``supports`` at ``(P, n)`` points; ``inf`` at poles.

    Chunked so that no intermediate holds more than about ``SWEEP_CHUNK_BYTES``.
    Overflow and invalid values are not warned about: they end as
    non-finite values, which the callers report.
    """
    sums = np.empty((points.shape[0], 2), dtype=complex)
    # each point's intermediate holds 2 * K / k_last complex sums
    for block in _blocks(points.shape[0], weights.nbytes // supports[-1].size):
        sums[block] = _contract_points(weights, _point_factors(supports, points[block]))
    return _quotient(sums[:, 0], sums[:, 1])


def _evaluate(weights, supports, axes, points, label):
    """``weights`` over ``supports`` at coordinates ``axes`` of one point or a ``(P, n)`` batch.

    One point keeps its own branch: sending it through :func:`_eval_points`
    costs 35-70 % more per point.
    """
    array = _as_points(points, len(supports))
    if array.ndim == 2:
        return _eval_points(weights, supports, array[:, axes])
    values = array.tolist()
    factors = [_factor_matrix(s, values[i]) for s, i in zip(supports, axes)]
    denominator, numerator = _contract_points(weights, factors)[0].tolist()
    if abs(denominator) < POLE_THRESHOLD:
        raise PoleError(f"{label} denominator vanishes at {tuple(points)}")
    return numerator / denominator


def eval_model(model, points):
    """Evaluate the model at one point or at a ``(P, n)`` batch of points.

    One point (a length-``n`` sequence) returns a complex number; a ``(P, n)``
    array returns a ``(P,)`` array, ``inf`` where ``|denominator| < POLE_THRESHOLD``.

    Raises
    ------
    PoleError
        If the barycentric denominator vanishes at a single point.
    """
    supports = model.support_points
    return _evaluate(model.weights, supports, range(len(supports)), points, "barycentric")


@np.errstate(all="ignore")  # as in _eval_points
def _eval_on_grid(model, per_var_points):
    """Model values on the product of per-variable coordinate vectors.

    Values are shaped ``tuple(len(p) for p in per_var_points)`` with
    variable 0 slowest, ``inf`` where the denominator vanishes.  The weight
    tensor is contracted with one factor matrix per variable (a mode
    product), last variable first; values agree with :func:`eval_model`
    up to rounding.
    """
    factors = [_factor_matrix(s, p) for s, p in zip(model.support_points, per_var_points)]
    # layout (2, P_l..P_{n-1}, K_{<l}) with rows 0/1 = denominator/numerator
    tensor = model.weights
    swept, remaining = 1, tensor.shape[1]
    for factor, k in zip(reversed(factors), reversed(model.counts)):
        remaining //= k
        tensor = tensor.reshape(-1, k) @ factor.T
        tensor = tensor.reshape(2, swept, remaining, -1).transpose(0, 3, 1, 2)
        swept *= factor.shape[0]
    tensor = tensor.reshape(2, -1)
    return _quotient(tensor[0], tensor[1]).reshape(tuple(f.shape[0] for f in factors))


def _first_worst(mismatch):
    """Flat index and value of the first largest mismatch.

    NaN counts as infinite: a value lost to overflow is the worst mismatch.
    """
    mismatch = np.where(np.isnan(mismatch), np.inf, mismatch)
    index = int(np.argmax(mismatch))
    return index, float(mismatch[index])


def _is_sampled(pools):
    """The one sampling rule: a product of more than ``FULL_SWEEP_TUPLES`` tuples is sampled."""
    return math.prod(p.size for p in pools) > FULL_SWEEP_TUPLES


def sweep_is_sampled(source):
    """Whether :func:`max_error` samples ``source`` instead of sweeping its union grids whole."""
    return _is_sampled([g.union_points for g in source.grids])


def _sweep(model, source, pools, seed):
    """Largest mismatch on the product of grid-point lists ``pools``, as
    ``(error, point, sampled, peak)``; ``peak`` is the largest |sample| read.

    A pole or a value lost to overflow is an infinite error at its location.
    A product of at most ``FULL_SWEEP_TUPLES`` tuples is swept whole, in one
    grid evaluation, and ``point`` is its first worst tuple in row-major
    order (an empty product: 0 at ``()``, peak 0); a larger one at ``SWEEP_SAMPLES``
    tuples drawn by ``np.random.default_rng(seed)`` and read through
    ``values_at_indices``, and ``point`` is the first worst draw.
    """
    if _is_sampled(pools):
        sizes = [p.size for p in pools]
        picks = np.random.default_rng(seed).integers(0, sizes, size=(SWEEP_SAMPLES, len(sizes)))
        points = np.stack([p[picks[:, l]] for l, p in enumerate(pools)], axis=1)
        indices = np.stack([g.indices_of(points[:, l]) for l, g in enumerate(source.grids)], axis=1)
        samples = source.values_at_indices(indices)
        index, error = _first_worst(np.abs(eval_model(model, points) - samples))
        return error, tuple(points[index]), True, float(np.max(np.abs(samples)))
    if min(p.size for p in pools) == 0:
        return 0.0, (), False, 0.0
    values = _eval_on_grid(model, pools)
    samples = source.values_on_product(pools)
    index, error = _first_worst(np.abs(values - samples).reshape(-1))
    point = tuple(p[i] for p, i in zip(pools, np.unravel_index(index, values.shape)))
    return error, point, False, float(np.max(np.abs(samples)))


def max_error(model, source, seed=0):
    """Largest mismatch over the union grids, as ``(error, point)``: :func:`_sweep` on them."""
    return _sweep(model, source, [g.union_points for g in source.grids], seed)[:2]


# --- JSON interchange ---------------------------------------------------


def model_to_dict(model):
    return {
        "variables": list(model.variable_names),
        "support": [_complex_to_pairs(p) for p in model.support_points],
        "c": _complex_to_pairs(model.weights_c),
        "w": _complex_to_pairs(model.values_w),
    }


def model_from_dict(data):
    data = _json_typed(data, dict, "model document")
    support = _json_typed(data["support"], list, "support")
    support = [_pairs_to_complex(p, f"support {l}") for l, p in enumerate(support)]
    return make_model(
        support,
        _pairs_to_complex(data["c"], "c"),
        _pairs_to_complex(data["w"], "w"),
        names=_json_typed(data["variables"], list, "variables"),
    )


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
