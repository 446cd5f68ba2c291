"""Generalized state-space realizations of barycentric models.

A model with variables split into a right (column) group and a left (row)
group yields the triple ``(C, Phi, B)`` with ``H(x) = C Phi(x)^{-1} B``.
``Phi`` stacks three block rows over the unimodular Kronecker companions
``Gamma`` (right variables) and ``Delta`` (left variables):

    [ Gamma(1:kappa-1, :) |        0         |    0     ]
    [       A_lag         | Delta(1:ell-1)^T |    0     ]
    [       B_lag         |        0         | Delta^T  ]

with ``B = [0; last row of Delta ^T; 0]`` and ``C = [0 | 0 | -e_ell^T]``.
``A_lag``/``B_lag`` arrange the denominator/numerator weights by the
row/column multi-indices induced by the Kronecker ordering.  The overall
dimension is ``m = 2*ell + kappa - 1``; a Schur compression reduces it to
``kappa + ell - 1`` at the price of a variable-dependent output row.

The single-variable case degenerates to ``Phi = [X(1:k-1,:); -c^T]`` with
constant ``C = beta`` and ``B = -e_k``.

Evaluation never forms ``Phi``.  Block elimination leaves
``H = y^T B_lag g / y^T A_lag g`` (``-C g / a_lag g`` with one variable),
with ``g`` and ``y`` the Kronecker products of the right and left
companions' last inverse columns; :func:`eval_realization` and the
compressed ``evaluate`` contract these with the barycentric model's point
kernel, O(K) per point.  Only ``phi()`` (full or compressed), the
minimality check and the ``M1`` determinant build dense matrices, and
each of them passes the memory guard first: a realization too large for a
dense ``Phi`` (the ``"first"`` split of an 8-variable model, m = 5,835)
still evaluates, while its ``phi()`` is refused.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError
from .grids import _complex_to_pairs, _json_typed, _pairs_to_complex
from .loewner import _guard_dense, _kron_of, numerical_rank
from .model import _as_points, _evaluate

LOG_PRODUCT_CUTOFF = 300


def _pairwise_differences(points):
    return points[:, None] - points[None, :]


def lagrange_inverse_weights(points):
    """Weights q with 1/q_i = prod_{k != i} (points_i - points_k).

    Computed in log magnitude/phase form beyond ``LOG_PRODUCT_CUTOFF``
    points to avoid overflow of the direct product.
    """
    points = np.asarray(points, dtype=complex)
    n = points.size
    if n == 1:
        return np.ones(1, dtype=complex)
    diffs = _pairwise_differences(points)
    if np.any(diffs[~np.eye(n, dtype=bool)] == 0):
        raise GridError("duplicate points have no Lagrange weights")
    np.fill_diagonal(diffs, 1.0)
    if n <= LOG_PRODUCT_CUTOFF:
        return 1.0 / np.prod(diffs, axis=1)
    return np.exp(-np.sum(np.log(diffs), axis=1))


@dataclass(frozen=True, eq=False)
class PseudoCompanion:
    """Unimodular companion of one variable in the Lagrange basis.

    Rows pair the Lagrange monomials ``x_i = value - points_i`` as
    ``(x_1, -x_{i+1})``; the closing row holds the weights ``q`` that make
    the determinant identically one.
    """

    name: str
    points: np.ndarray
    q_weights: np.ndarray

    @property
    def size(self):
        return self.points.size

    def evaluate(self, value):
        monomials = complex(value) - self.points
        matrix = np.zeros((self.size, self.size), dtype=complex)
        matrix[:-1, 0] = monomials[0]
        matrix[:-1, 1:] = np.diag(-monomials[1:])
        matrix[-1] = self.q_weights
        return matrix

    def adjugate_last_row(self, value):
        """Last row of the transposed inverse: prod_{k != i} (value - points_k)."""
        monomials = complex(value) - self.points
        others = np.where(np.eye(self.size, dtype=bool), 1.0, monomials)
        return np.prod(others, axis=1)


def build_pseudo_companion(points, name=""):
    points = np.asarray(points, dtype=complex)
    return PseudoCompanion(name, points, lagrange_inverse_weights(points))


@dataclass(frozen=True)
class VariableSplit:
    """Partition of the variables into right (column) and left (row) groups."""

    right: tuple
    left: tuple
    counts: tuple

    def __post_init__(self):
        n = len(self.counts)
        merged = sorted(self.right + self.left)
        if merged != list(range(n)):
            raise GridError(f"split {self.right}|{self.left} is not a partition of 0..{n - 1}")
        if not self.right:
            raise GridError("the right (column) group must be nonempty")
        if n >= 2 and not self.left:
            raise GridError("the left (row) group must be nonempty for two or more variables")

    @property
    def kappa(self):
        return math.prod(self.counts[i] for i in self.right)

    @property
    def ell(self):
        return math.prod(self.counts[i] for i in self.left) if self.left else 1

    @property
    def order(self):
        """Realization dimension m."""
        if not self.left:
            return self.kappa
        return 2 * self.ell + self.kappa - 1


def make_split(right, counts, left=None):
    right = tuple(int(i) for i in right)
    if left is None:
        left = tuple(i for i in range(len(counts)) if i not in right)
    return VariableSplit(right, tuple(int(i) for i in left), tuple(int(k) for k in counts))


def multi_indices(split):
    """Row and column multi-indices (I, J) induced by the Kronecker order.

    ``I`` enumerates left-variable support indices (length ell), ``J``
    right-variable support indices (length kappa); in both, the leftmost
    factor of the Kronecker product varies slowest.  Indices are 0-based
    tuples ordered like ``split.left`` / ``split.right``.
    """
    j_list = list(itertools.product(*(range(split.counts[i]) for i in split.right)))
    i_list = list(itertools.product(*(range(split.counts[i]) for i in split.left)))
    return i_list, j_list


def _kron_eval(companions, values):
    return _kron_of([comp.evaluate(value) for comp, value in zip(companions, values)])


@dataclass(frozen=True, eq=False)
class GeneralizedRealization:
    """Triple (C, Phi, B) with H(x) = C Phi(x)^{-1} B, held as its split,
    companions and weights.

    ``companions`` holds one companion per variable, in the original order;
    their names are the variable names.  ``weights`` is ``(2, ell *
    kappa)``: the denominator and numerator weights of ``H`` over the axes
    ``split.left + split.right``, ``[A_lag; B_lag]`` flattened (``[a_lag;
    -C]`` with one variable).  ``A_lag``, ``B_lag``, ``C`` and ``B`` are
    derived from these three.
    """

    split: VariableSplit
    companions: tuple
    weights: np.ndarray

    @property
    def order(self):
        return self.split.order

    @property
    def variable_names(self):
        return tuple(comp.name for comp in self.companions)

    @property
    def a_lag(self):
        """``ell``-by-``kappa`` denominator weights.

        Entry ``(q, r)`` is the weight at the full multi-index combining
        ``I_q`` and ``J_r`` (see :func:`multi_indices`); ``b_lag`` likewise
        holds the numerator weights.  Both unfold the weight tensor with
        the left variables as rows and the right ones as columns.  With a
        single variable, ``a_lag`` is the row ``-c^T``.
        """
        return self.weights[0].reshape(self.split.ell, self.split.kappa)

    @property
    def b_lag(self):
        """``ell``-by-``kappa``; no rows with one variable."""
        split = self.split
        rows = split.ell if split.left else 0
        return self.weights[1, : rows * split.kappa].reshape(rows, split.kappa)

    @property
    def c_vector(self):
        """``beta`` with one variable, otherwise ``-e_m``."""
        if not self.split.left:
            return -self.weights[1]
        c_vector = np.zeros(self.order, dtype=complex)
        c_vector[-1] = -1.0
        return c_vector

    @property
    def b_vector(self):
        """``-e_k`` with one variable, otherwise ``[0; q_Delta; 0]``, ``q_Delta``
        the Kronecker product of the left companions' closing weights."""
        split = self.split
        b_vector = np.zeros(split.order, dtype=complex)
        if not split.left:
            b_vector[-1] = -1.0
        else:
            q_delta = _kron_of([self.companions[i].q_weights for i in split.left])
            b_vector[split.kappa - 1 : split.kappa - 1 + split.ell] = q_delta
        return b_vector

    def phi(self, point):
        """Numeric m-by-m resolvent basis matrix at a point tuple."""
        values = _as_points(point, len(self.companions)).tolist()
        split = self.split
        kappa, ell, m = split.kappa, split.ell, split.order
        _guard_dense(m, m)
        gamma = _kron_eval([self.companions[i] for i in split.right], [values[i] for i in split.right])
        if not split.left:
            matrix = np.zeros((m, m), dtype=complex)
            matrix[: kappa - 1, :] = gamma[: kappa - 1, :]
            matrix[kappa - 1, :] = self.a_lag[0]
            return matrix
        delta = _kron_eval([self.companions[i] for i in split.left], [values[i] for i in split.left])
        matrix = np.zeros((m, m), dtype=complex)
        matrix[: kappa - 1, :kappa] = gamma[: kappa - 1, :]
        matrix[kappa - 1 : kappa - 1 + ell, :kappa] = self.a_lag
        matrix[kappa - 1 : kappa - 1 + ell, kappa : kappa + ell - 1] = delta[: ell - 1, :].T
        matrix[kappa - 1 + ell :, :kappa] = self.b_lag
        matrix[kappa - 1 + ell :, kappa + ell - 1 :] = delta.T
        return matrix


def build_realization(model, split="first"):
    """Realization of a barycentric model for a left/right variable split.

    ``split`` is a :class:`VariableSplit` or a :func:`resolve_split` spec;
    the default puts variable 0 (the frequency variable) alone on the
    right and every other variable on the left.
    """
    counts = model.counts
    if not isinstance(split, VariableSplit):
        split = resolve_split(split, counts)
    if split.counts != counts:
        raise GridError("split counts do not match the model")
    if split.left:
        axes = [0, *(a + 1 for a in split.left + split.right)]
        weights = model.weights.reshape(2, *counts).transpose(axes).reshape(2, -1)
    else:
        weights = -model.weights
    companions = tuple(
        build_pseudo_companion(points, name)
        for points, name in zip(model.support_points, model.variable_names)
    )
    return GeneralizedRealization(split, companions, weights)


def eval_realization(realization, points):
    """Evaluate ``C Phi(x)^{-1} B`` at one point or a ``(P, n)`` batch, without ``Phi``.

    The first block row of ``Phi x = B`` forces ``x_1`` onto ``g``, and
    ``y`` annihilates ``Delta(1:ell-1,:)^T``, which leaves ``H = y^T B_lag
    g / y^T A_lag g`` (``-C g / a_lag g`` with one variable).  Neither
    quotient changes when one variable's vector is rescaled, so the Cauchy
    rows ``1/(x - lambda)`` (a support indicator at a support coordinate)
    stand in for the companions' last inverse columns, contracted with
    ``realization.weights`` by the model's point kernel.

    A batch is ``inf`` where one point raises, as for :func:`~mvloewner.model.eval_model`.

    Raises
    ------
    PoleError
        If the denominator vanishes at a single point.
    """
    axes = realization.split.left + realization.split.right
    supports = [realization.companions[i].points for i in axes]
    return _evaluate(realization.weights, supports, axes, points, "realization")


@dataclass(frozen=True)
class CompressedRealization:
    """Schur-compressed triple of size kappa + ell - 1.

    The output row becomes variable-dependent: ``c_row(point)`` is the
    last adjugate row of ``Delta`` applied to ``[B_lag | 0]``.
    """

    parent: GeneralizedRealization

    @property
    def size(self):
        split = self.parent.split
        return split.kappa + split.ell - 1

    def phi(self, point):
        return self.parent.phi(point)[: self.size, : self.size]

    @property
    def b_vector(self):
        return self.parent.b_vector[: self.size]

    def c_row(self, point):
        parent = self.parent
        split = parent.split
        values = _as_points(point, len(parent.companions)).tolist()
        adj_rows = [
            parent.companions[i].adjugate_last_row(values[i]) for i in split.left
        ]
        left_row = _kron_of(adj_rows)
        out = np.zeros(self.size, dtype=complex)
        out[: split.kappa] = left_row @ parent.b_lag
        return out


def compress_realization(realization):
    if not realization.split.left:
        raise GridError("a single-variable realization has nothing to compress")
    return CompressedRealization(realization)


def check_r_minimality(realization, sample_points):
    """Rank check of [Phi B] and [C; Phi] at each sample point, at ``DEFAULT_RANK_TOL``.

    Both must have full rank m everywhere; returns one report dict per
    point with the two ranks and an ``ok`` flag.
    """
    m = realization.order
    reports = []
    for point in sample_points:
        phi = realization.phi(point)
        controllable = np.hstack([phi, realization.b_vector[:, None]])
        observable = np.vstack([realization.c_vector[None, :], phi])
        rank_ctrl = int(numerical_rank(np.linalg.svd(controllable, compute_uv=False)))
        rank_obs = int(numerical_rank(np.linalg.svd(observable, compute_uv=False)))
        reports.append(
            {
                "point": tuple(complex(v) for v in point),
                "rank_phi_b": rank_ctrl,
                "rank_c_phi": rank_obs,
                "ok": rank_ctrl == m and rank_obs == m,
            }
        )
    return reports


def optimal_split(degrees):
    """Split minimizing the realization dimension m = 2*ell + kappa - 1.

    Exact for any number of variables: a walk in index order keeps, per
    ``(ell, number of left variables)``, the lexicographically first right
    group reaching it; ``ell`` divides ``prod k``, which bounds the states.
    Ties prefer fewer left variables, then the first right group.
    """
    counts = tuple(int(d) + 1 for d in degrees)
    n = len(counts)
    if n < 2:
        raise GridError("a split needs at least two variables")
    # right groups reaching one state have equal length, so a common
    # suffix keeps their lexicographic order
    states = {(1, 0): ()}
    for i, k in enumerate(counts):
        reached = {}
        for (ell, n_left), right in states.items():
            for state, group in (((ell, n_left), right + (i,)), ((ell * k, n_left + 1), right)):
                if state not in reached or group < reached[state]:
                    reached[state] = group
        states = reached
    total = math.prod(counts)
    _, _, right = min(
        (2 * ell + total // ell - 1, n_left, right)
        for (ell, n_left), right in states.items()
        if 0 < n_left < n
    )
    return make_split(right, counts)


def resolve_split(spec, counts):
    """The split that ``spec`` names for support counts ``counts``.

    ``spec`` is ``"first"`` (variable 0 alone on the right), ``"auto"``
    (:func:`optimal_split`, or ``"first"`` with one variable) or a
    sequence of right variable indices.
    """
    if spec == "auto" and len(counts) > 1:
        return optimal_split([k - 1 for k in counts])
    if spec in ("first", "auto"):
        return make_split((0,), counts)
    return make_split(spec, counts)


def polynomial_determinant(coefficients, companions, form, point):
    """Determinant of the stacked-companion polynomial constructions.

    ``coefficients`` is the Lagrange coefficient matrix (rows indexed by
    the first variable; a 1-D array for a single variable).  ``form``
    selects the construction:

    * ``"M1"``: the Kronecker stack, all non-weight rows of the Kronecker
      product of the companions closed by the row-major vectorized
      coefficients (any number of variables).
    * ``"M2"``: the two-variable split form, first-variable rows over
      ``[coefficients^T | second-variable rows transposed]``.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=complex))
    values = [complex(v) for v in np.atleast_1d(point)]
    if form == "M1":
        size = math.prod(comp.size for comp in companions)
        _guard_dense(size, size)
        kron = _kron_eval(companions, values)
        stacked = np.vstack([kron[: size - 1, :], coeffs.reshape(1, -1)])
        if stacked.shape != (size, size):
            raise GridError("coefficient count does not match the companion sizes")
        return complex(np.linalg.det(stacked))
    if form == "M2":
        if len(companions) != 2:
            raise GridError("the split form needs exactly two companions")
        first, second = companions
        p1, p2 = first.size, second.size
        if coeffs.shape != (p1, p2):
            raise GridError(f"coefficient matrix must be {p1}x{p2}, got {coeffs.shape}")
        s_mat = first.evaluate(values[0])
        t_mat = second.evaluate(values[1])
        top = np.hstack([s_mat[: p1 - 1, :], np.zeros((p1 - 1, p2 - 1), dtype=complex)])
        bottom = np.hstack([coeffs.T, t_mat[: p2 - 1, :].T])
        # the transposed right block contributes a fixed column-permutation
        # parity of (-1)**(p2 - 1); normalize so both forms agree
        sign = -1.0 if (p2 - 1) % 2 else 1.0
        return complex(sign * np.linalg.det(np.vstack([top, bottom])))
    raise ValueError(f"unknown form {form!r}")


# --- JSON interchange ---------------------------------------------------


def realization_to_dict(realization):
    split = realization.split
    return {
        "variables": list(realization.variable_names),
        "split": {
            "right": [realization.variable_names[i] for i in split.right],
            "left": [realization.variable_names[i] for i in split.left],
        },
        "m": realization.order,
        "kappa": split.kappa,
        "ell": split.ell,
        "A_lag": [_complex_to_pairs(row) for row in realization.a_lag],
        "B_lag": [_complex_to_pairs(row) for row in realization.b_lag],
        "companions": [
            {
                "name": comp.name,
                "points": _complex_to_pairs(comp.points),
                "q": _complex_to_pairs(comp.q_weights),
            }
            for comp in realization.companions
        ],
        "C": _complex_to_pairs(realization.c_vector),
        "B": _complex_to_pairs(realization.b_vector),
    }


def _coefficient_block(rows, shape, label):
    rows = _json_typed(rows, list, label)
    rows = [_pairs_to_complex(row, f"{label} row {i}") for i, row in enumerate(rows)]
    if len(rows) != shape[0] or any(row.size != shape[1] for row in rows):
        raise GridError(f"{label} must be {shape[0]}x{shape[1]}")
    return np.array(rows, dtype=complex).reshape(shape)


def realization_from_dict(data):
    """Load a realization, refusing a file off the one its split, companions
    and weights give.

    ``variables`` must be the companions' names and ``m``/``kappa``/``ell``
    the split's; ``A_lag``/``B_lag`` must be ``ell``-by-``kappa`` (one row
    and none with one variable) and ``C``/``B`` the vectors derived as in
    :class:`GeneralizedRealization` to a relative 1e-12 (with one variable
    ``C`` carries the numerator weights), so that evaluation's block
    elimination holds for every file accepted.
    """
    data = _json_typed(data, dict, "realization document")
    entries = _json_typed(data["companions"], list, "companions")
    entries = [_json_typed(e, dict, f"companions entry {l}") for l, e in enumerate(entries)]
    companions = tuple(
        PseudoCompanion(
            _json_typed(entry["name"], str, f"name of companions entry {l}"),
            _pairs_to_complex(entry["points"], f"points of companion {entry['name']!r}"),
            _pairs_to_complex(entry["q"], f"q of companion {entry['name']!r}"),
        )
        for l, entry in enumerate(entries)
    )
    for comp in companions:
        distinct = comp.size > 0 and np.unique(comp.points).size == comp.size
        if not distinct or comp.q_weights.size != comp.size:
            raise GridError(
                f"companion {comp.name!r} needs distinct points, at least one, and one weight each"
            )
    names = [comp.name for comp in companions]
    if _json_typed(data["variables"], list, "variables") != names:
        raise GridError(f"variables {data['variables']!r:.60} are not the companion names {names}")
    counts = tuple(comp.size for comp in companions)
    split_doc = _json_typed(data["split"], dict, "split")
    right = tuple(names.index(n) for n in _json_typed(split_doc["right"], list, "split right"))
    left = tuple(names.index(n) for n in _json_typed(split_doc["left"], list, "split left"))
    split = VariableSplit(right, left, counts)
    for key, value in (("m", split.order), ("kappa", split.kappa), ("ell", split.ell)):
        if data[key] != value:
            raise GridError(f"{key} is {data[key]!r:.40}, but the split gives {value}")
    rows = split.ell if split.left else 0
    a_lag = _coefficient_block(data["A_lag"], (split.ell, split.kappa), "A_lag")
    b_lag = _coefficient_block(data["B_lag"], (rows, split.kappa), "B_lag")
    vectors = {label: _pairs_to_complex(data[label], label) for label in ("C", "B")}
    for label, vector in vectors.items():
        if vector.size != split.order:
            raise GridError(f"{label} must have length {split.order}, got {vector.size}")
    numerator = b_lag if split.left else -vectors["C"][None, :]
    realization = GeneralizedRealization(
        split, companions, np.concatenate([a_lag, numerator]).reshape(2, -1)
    )
    derived = {"C": realization.c_vector, "B": realization.b_vector}
    for label, vector in vectors.items():
        if not np.allclose(vector, derived[label], rtol=1e-12, atol=0):
            raise GridError(f"{label} is not the documented constant vector of this split")
    return realization


def load_realization(path):
    with open(path, "r", encoding="utf-8") as fh:
        return realization_from_dict(json.load(fh))
