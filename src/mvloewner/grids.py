"""Per-variable interpolation grids and the n-dimensional measurement tableau.

Every variable carries two ordered point lists: ``column_points`` (the
candidate support points) and ``row_points`` (the complementary samples
that drive divided differences).  The union grid of a variable is the
concatenation columns-first, and dense value tensors are stored row-major
with variable 0 varying slowest.  Point comparisons are exact on the
stored binary values.  Every divided difference divides by a point
difference, so a grid whose column and row points are not pairwise
distinct is refused when it is built.

A fit's selection is one grid per variable too: its supports as columns
and the other union points as rows.  The data's own grids are the full one.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import expressions
from .errors import EvaluationError, GridError, OffGridError


def _as_complex_vector(values, what):
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise GridError(f"{what} must be one-dimensional")
    if arr.size and not np.isfinite(arr).all():
        raise GridError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class VariableGrid:
    """One variable's support (column) and complementary (row) points, read-only
    views of the one buffer ``union_points`` (columns first) that the grid owns."""

    name: str
    column_points: np.ndarray
    row_points: np.ndarray
    union_points: np.ndarray
    _order: np.ndarray = field(repr=False)

    def __init__(self, name, column_points, row_points=()):
        object.__setattr__(self, "name", str(name))
        cols = _as_complex_vector(column_points, f"column points of {name!r}")
        rows = _as_complex_vector(row_points, f"row points of {name!r}")
        if cols.size < 1:
            raise GridError(f"variable {name!r} needs at least one column point")
        union = np.concatenate([cols, rows])  # a copy: the caller's arrays stay theirs
        # one stable sort, kept for lookups; a repeat sits next to its twin
        order = np.argsort(union, kind="stable")
        ordered = union[order]
        repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
        if repeats.size:
            raise GridError(f"variable {name!r} repeats the grid point {ordered[repeats[0]]}")
        union.flags.writeable = order.flags.writeable = False
        object.__setattr__(self, "union_points", union)
        object.__setattr__(self, "column_points", union[: cols.size])
        object.__setattr__(self, "row_points", union[cols.size :])
        object.__setattr__(self, "_order", order)

    def indices_of(self, values):
        """Union-grid index of each of ``values`` (exact equality).

        One binary search per value in the grid's kept sort, so memory
        stays O(len(values)).  Raises :class:`OffGridError` naming the
        first value not on the grid.
        """
        values = np.atleast_1d(np.asarray(values, dtype=complex))
        pool, order = self.union_points, self._order
        index = order[np.minimum(np.searchsorted(pool, values, sorter=order), pool.size - 1)]
        found = pool[index] == values
        if not np.all(found):
            missing = values[~found][0]
            raise OffGridError(f"{missing} is not a grid point of variable {self.name!r}")
        return index

    def with_supports(self, points):
        """The given grid points as columns, every other union point as rows, in union order."""
        rows = np.delete(self.union_points, self.indices_of(points))
        return VariableGrid(self.name, points, rows)

    def spread_columns(self, k):
        """``k`` column points at evenly strided indices, as :meth:`with_supports`.

        Support points clustered at one end of the domain condition the
        weight systems badly; striding keeps the endpoints and spreads the
        interior.  Leftover column points join the rows, ahead of the row points.
        """
        k = int(k)
        lam = self.column_points
        if k < 1 or k > lam.size:
            raise GridError(f"variable {self.name!r} has {lam.size} column points, cannot select {k}")
        # a stride of at least 1 keeps the rounded indices distinct
        return self.with_supports(lam[np.round(np.linspace(0, lam.size - 1, k)).astype(int)])

    def nearest_rows(self):
        """The same columns with at most k rows: the nearest ones.

        A 1-D weight system with more rows than supports is a least-squares
        problem; rows near the support set condition it far better than an
        arbitrary prefix, and the square shape matches the ``k**3``
        accounting convention.  A grid with at most k rows is returned
        itself; one with fewer than k-1 rows cannot reveal a null space and
        raises :class:`GridError`.
        """
        cols, pool = self.column_points, self.row_points
        k = cols.size
        if pool.size <= k:
            if pool.size < k - 1:
                raise GridError(
                    f"variable {self.name!r} has {pool.size} row points, "
                    f"need at least {k - 1} for {k} support points"
                )
            return self
        distances = np.min(np.abs(pool[:, None] - cols[None, :]), axis=1)
        return VariableGrid(self.name, cols, pool[np.argsort(distances, kind="stable")[:k]])


@dataclass(frozen=True, eq=False)
class Tableau:
    """Dense sample tensor over the union grids of all variables."""

    grids: tuple
    values: np.ndarray

    def __init__(self, grids, values):
        grids = tuple(grids)
        values = np.asarray(values, dtype=complex)
        extents = tuple(g.union_points.size for g in grids)
        if values.shape != extents:
            raise GridError(f"value tensor shape {values.shape} does not match grid extents {extents}")
        if not np.all(np.isfinite(values)):
            raise GridError("value tensor contains non-finite entries")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "values", values)


class DataSource:
    """Common interface of dense and oracle-backed sample sources."""

    grids: tuple

    @property
    def n_vars(self):
        return len(self.grids)

    @property
    def names(self):
        return [g.name for g in self.grids]

    def value_at(self, point):
        """Sample value at a tuple of grid points (one per variable)."""
        raise NotImplementedError

    def _check_point_lists(self, per_var_points):
        """Refuse anything but one point list per variable with a GridError."""
        if len(per_var_points) != self.n_vars:
            raise GridError(f"expected {self.n_vars} point lists, got {len(per_var_points)}")

    def values_at_indices(self, indices):
        """Sample values at union-grid index tuples.

        ``indices`` is an integer array of shape ``(P, n)``, one row of
        union-grid indices per tuple; the result has length ``P``.
        """
        raise NotImplementedError

    def values_on_product(self, per_var_points):
        """Sample tensor over the cartesian product of the given point lists.

        ``per_var_points[l]`` is a 1-D array of grid points of variable
        ``l``; the result has shape ``tuple(len(p) for p in per_var_points)``
        with variable 0 slowest.
        """
        raise NotImplementedError


class DenseSource(DataSource):
    """Data source backed by a fully materialized tableau."""

    def __init__(self, tableau):
        self.tableau = tableau
        self.grids = tableau.grids

    def value_at(self, point):
        return self.values_on_product([[v] for v in point]).item()

    def values_at_indices(self, indices):
        return self.tableau.values[tuple(np.asarray(indices).T)]

    def values_on_product(self, per_var_points):
        self._check_point_lists(per_var_points)
        mesh = np.ix_(*(g.indices_of(p) for g, p in zip(self.grids, per_var_points)))
        return self.tableau.values[mesh]


class OracleSource(DataSource):
    """Data source that evaluates a rational expression on demand."""

    def __init__(self, expression, grids):
        self.expression = expression
        self.grids = tuple(grids)
        names = set(self.names)
        referenced = expressions.variables_of(expression)
        unknown = referenced - names
        if unknown:
            raise GridError(f"expression references undeclared variables {sorted(unknown)}")

    def value_at(self, point):
        for grid, value in zip(self.grids, point):
            grid.indices_of(value)
        return self.values_on_product([[v] for v in point]).item()

    def _evaluate(self, assignment, shape, where):
        """The expression on ``assignment`` as a fresh C-ordered array of ``shape``;
        overflow and invalid values raise :class:`EvaluationError`, unwarned."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(expressions.evaluate(self.expression, assignment), dtype=complex)
        values = np.broadcast_to(values, shape)
        if not np.all(np.isfinite(values)):
            raise EvaluationError(f"oracle produced non-finite values {where}")
        return np.array(values, order="C")

    def values_at_indices(self, indices):
        indices = np.asarray(indices)
        assignment = {g.name: g.union_points[indices[:, l]] for l, g in enumerate(self.grids)}
        return self._evaluate(assignment, (indices.shape[0],), "at the requested tuples")

    def values_on_product(self, per_var_points):
        """Sample tensor over the cartesian product of the given point lists.

        The product is an open mesh: variable ``l`` enters the expression
        as a view of shape ``(1, ..., k_l, ..., 1)`` and numpy broadcasting
        forms the product, so no full-size copy of any axis is made.  An
        axis of one point enters as a Python ``complex`` scalar.  The
        result is a fresh C-ordered array of shape
        ``tuple(len(p) for p in per_var_points)``.
        """
        self._check_point_lists(per_var_points)
        axes = [np.atleast_1d(np.asarray(p, dtype=complex)) for p in per_var_points]
        n = len(axes)
        assignment = {}
        for l, (grid, axis) in enumerate(zip(self.grids, axes)):
            if axis.size == 1:
                assignment[grid.name] = complex(axis[0])
            else:
                assignment[grid.name] = axis.reshape((1,) * l + (-1,) + (1,) * (n - 1 - l))
        shape = tuple(a.size for a in axes)
        return self._evaluate(assignment, shape, "on the requested product grid")

    def densify(self):
        """Materialize the oracle on its full union grids as a DenseSource."""
        values = self.values_on_product([g.union_points for g in self.grids])
        return DenseSource(Tableau(self.grids, values))


def _check_degrees(source, degrees):
    """``degrees`` as a tuple of ints, one non-negative integer per variable; else a GridError."""
    degrees = tuple(degrees)
    if len(degrees) != source.n_vars:
        raise GridError(f"{len(degrees)} degrees given for {source.n_vars} variables")
    for grid, d in zip(source.grids, degrees):
        if not isinstance(d, numbers.Integral) or d < 0:
            raise GridError(
                f"degree of variable {grid.name!r} must be a non-negative integer, got {d!r}"
            )
    return tuple(int(d) for d in degrees)


# --- JSON interchange ---------------------------------------------------


def _json_typed(value, kind, what):
    """``value`` if it has the JSON type ``kind`` (list, dict or str); else a GridError."""
    if not isinstance(value, kind):
        expected = {list: "list", dict: "object", str: "string"}[kind]
        raise GridError(f"{what} must be a JSON {expected}, got {value!r:.40}")
    return value


def _pairs_to_complex(pairs, what):
    """Finite complex vector from JSON ``[[re, im], ...]``; ``what`` names the list in errors."""
    if not isinstance(pairs, (list, tuple)):
        raise GridError(f"{what} must be a list of [real, imaginary] pairs, got {pairs!r}")
    values = []
    for i, pair in enumerate(pairs):
        try:
            re, im = pair
            values.append(complex(re, im))
        except (TypeError, ValueError, OverflowError):
            raise GridError(
                f"{what} entry {i} is not a [real, imaginary] pair of numbers: {pair!r}"
            ) from None
    values = np.asarray(values, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise GridError(f"{what} entry {bad[0]} is not finite: {pairs[bad[0]]!r}")
    return values


def _complex_to_pairs(values):
    values = np.asarray(values, dtype=complex).reshape(-1)
    return np.stack([values.real, values.imag], -1).tolist()


def _grids_from_json(entries):
    if not _json_typed(entries, list, "variables"):
        raise GridError("the data file declares no variables")
    grids = []
    for l, entry in enumerate(entries):
        name = _json_typed(entry, dict, f"variables entry {l}")["name"]
        if str(name) in (g.name for g in grids):
            raise GridError(f"the data file declares the variable {name!r} twice")
        grids.append(
            VariableGrid(
                name,
                _pairs_to_complex(entry["lambda"], f"lambda of variable {name!r}"),
                _pairs_to_complex(entry.get("mu", []), f"mu of variable {name!r}"),
            )
        )
    return grids


def _grids_to_json(grids):
    return [
        {
            "name": g.name,
            "lambda": _complex_to_pairs(g.column_points),
            "mu": _complex_to_pairs(g.row_points),
        }
        for g in grids
    ]


def source_from_dict(data):
    """Build a DataSource from a parsed JSON document.

    A document with an ``expression`` key becomes an :class:`OracleSource`;
    one with a ``values`` key becomes a :class:`DenseSource` whose flat
    value list is interpreted row-major, variable 0 slowest.
    """
    grids = _grids_from_json(_json_typed(data, dict, "data document")["variables"])
    if "expression" in data:
        text = _json_typed(data["expression"], str, "expression")
        return OracleSource(expressions.parse(text, [g.name for g in grids]), grids)
    if "values" not in data:
        raise GridError("data file needs either an 'expression' or a 'values' entry")
    flat = _pairs_to_complex(data["values"], "values")
    extents = tuple(g.union_points.size for g in grids)
    expected = math.prod(extents)
    if flat.size != expected:
        raise GridError(f"value list has {flat.size} entries, expected {expected}")
    return DenseSource(Tableau(grids, flat.reshape(extents)))


def source_to_dict(source):
    """Serialize a DataSource to a JSON-ready dict (inverse of source_from_dict)."""
    doc = {"variables": _grids_to_json(source.grids)}
    if isinstance(source, OracleSource):
        doc["expression"] = expressions.to_string(source.expression)
    else:
        doc["values"] = _complex_to_pairs(source.tableau.values.reshape(-1))
    return doc


def load_source(path):
    with open(path, "r", encoding="utf-8") as fh:
        return source_from_dict(json.load(fh))
