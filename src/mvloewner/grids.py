"""Per-variable interpolation grids and the n-dimensional measurement tableau.

Every variable carries two ordered point lists: ``column_points`` (the
candidate support points) and ``row_points`` (the complementary samples
that drive divided differences).  The union grid of a variable is the
concatenation columns-first, and dense value tensors are stored row-major
with variable 0 varying slowest.  Point comparisons are exact on the
stored binary values; coincident points are the only fatal configuration
because every divided difference divides by a point difference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import expressions
from .errors import EvaluationError, GridError, OffGridError


def _as_complex_vector(values, what):
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise GridError(f"{what} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise GridError(f"{what} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class VariableGrid:
    """One variable's support (column) and complementary (row) points."""

    name: str
    column_points: np.ndarray
    row_points: np.ndarray

    def __init__(self, name, column_points, row_points=()):
        object.__setattr__(self, "name", str(name))
        cols = _as_complex_vector(column_points, f"column points of {name!r}")
        rows = _as_complex_vector(row_points, f"row points of {name!r}") if len(row_points) else np.zeros(0, complex)
        if cols.size < 1:
            raise GridError(f"variable {name!r} needs at least one column point")
        object.__setattr__(self, "column_points", cols)
        object.__setattr__(self, "row_points", rows)

    @property
    def union_points(self):
        """All grid points, columns first."""
        return np.concatenate([self.column_points, self.row_points])

    def duplicates(self):
        """Values occurring more than once in the union grid (exact equality)."""
        seen = {}
        dups = []
        for value in self.union_points:
            key = complex(value)
            seen[key] = seen.get(key, 0) + 1
            if seen[key] == 2:
                dups.append(key)
        return dups

    def indices_of(self, values):
        """Union-grid index of each of ``values`` (first match; exact equality).

        One stable sort of the union grid and one binary search per value,
        so memory stays O(len(values) + len(union grid)).  Raises
        :class:`OffGridError` naming the first value not on the grid.
        """
        values = np.atleast_1d(np.asarray(values, dtype=complex))
        pool = self.union_points
        order = np.argsort(pool, kind="stable")
        pos = np.minimum(np.searchsorted(pool[order], values), pool.size - 1)
        found = pool[order[pos]] == values
        if not np.all(found):
            missing = values[~found][0]
            raise OffGridError(f"{missing} is not a grid point of variable {self.name!r}")
        return order[pos]


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
        if len(point) != self.n_vars:
            raise GridError(f"expected {self.n_vars} coordinates, got {len(point)}")
        idx = tuple(g.indices_of(v)[0] for g, v in zip(self.grids, point))
        return complex(self.tableau.values[idx])

    def values_at_indices(self, indices):
        return self.tableau.values[tuple(np.asarray(indices).T)]

    def values_on_product(self, per_var_points):
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
        if len(point) != self.n_vars:
            raise GridError(f"expected {self.n_vars} coordinates, got {len(point)}")
        for grid, value in zip(self.grids, point):
            grid.indices_of(value)
        assignment = {g.name: complex(v) for g, v in zip(self.grids, point)}
        value = expressions.evaluate(self.expression, assignment)
        if not np.isfinite(value):
            raise EvaluationError(f"oracle produced a non-finite value at {tuple(point)}")
        return complex(value)

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
        axis of one point enters as a Python ``complex`` scalar, as in
        :meth:`value_at`.  The result is a fresh C-ordered array of shape
        ``tuple(len(p) for p in per_var_points)``.
        """
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


def check_disjoint(source):
    """Report duplicated interpolation points, per variable.

    Returns a list of ``(variable_name, value)`` pairs; an empty list
    means every variable's column and row points are pairwise distinct.
    """
    violations = []
    for grid in source.grids:
        for value in grid.duplicates():
            violations.append((grid.name, value))
    return violations


def _check_degrees(source, degrees):
    """``degrees`` as a tuple of ints, one per variable of ``source``, else a GridError."""
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) != source.n_vars:
        raise GridError(f"{len(degrees)} degrees given for {source.n_vars} variables")
    return degrees


@dataclass(frozen=True, eq=False)
class Selection:
    """Per-variable choice of column (support) and row points."""

    col_points: tuple
    row_points: tuple

    def __init__(self, col_points, row_points):
        object.__setattr__(
            self, "col_points", tuple(np.asarray(p, dtype=complex) for p in col_points)
        )
        object.__setattr__(
            self, "row_points", tuple(np.asarray(p, dtype=complex) for p in row_points)
        )
        if len(self.col_points) != len(self.row_points):
            raise GridError("selection needs one column list and one row list per variable")
        for l, (cols, rows) in enumerate(zip(self.col_points, self.row_points)):
            if cols.size < 1:
                raise GridError(f"selection for variable {l} has no column points")
            common = np.intersect1d(cols, rows)
            if common.size:
                raise GridError(
                    f"selection for variable {l} has coincident column/row points {common[:3]}"
                )

    @property
    def counts(self):
        return tuple(p.size for p in self.col_points)

    @property
    def row_counts(self):
        return tuple(p.size for p in self.row_points)

    def nearest_rows(self):
        """The same columns with, per variable, at most k rows: the nearest ones.

        A 1-D weight system with more rows than supports is a least-squares
        problem; rows near the support set condition it far better than an
        arbitrary prefix, and the square shape matches the ``k**3``
        accounting convention.  A variable with at most k rows keeps them
        in their order; one with fewer than k-1 rows cannot reveal a null
        space and raises :class:`GridError`.
        """
        rows = []
        for l, (cols, pool) in enumerate(zip(self.col_points, self.row_points)):
            k = cols.size
            if pool.size > k:
                distances = np.min(np.abs(pool[:, None] - cols[None, :]), axis=1)
                pool = pool[np.argsort(distances, kind="stable")[:k]]
            elif pool.size < k - 1:
                raise GridError(
                    f"variable {l} has {pool.size} row points, "
                    f"need at least {k - 1} for {k} support points"
                )
            rows.append(pool)
        return Selection(self.col_points, rows)

    @classmethod
    def from_supports(cls, source, supports):
        """The given grid points as columns, every other union point as rows."""
        rows = [np.delete(g.union_points, g.indices_of(s)) for g, s in zip(source.grids, supports)]
        return cls(supports, rows)

    @classmethod
    def full(cls, source):
        """All stored columns as columns, all stored rows as rows."""
        return cls(
            [g.column_points for g in source.grids],
            [g.row_points for g in source.grids],
        )

    @classmethod
    def spread_columns(cls, source, counts):
        """``counts[l]`` column points at evenly strided indices of each list.

        Support points clustered at one end of the domain condition the
        weight systems badly; striding keeps the endpoints and spreads the
        interior.  Leftover column points join the rows.
        """
        cols, rows = [], []
        for grid, k in zip(source.grids, counts):
            k = int(k)
            lam = grid.column_points
            if k < 1 or k > lam.size:
                raise GridError(
                    f"variable {grid.name!r} has {lam.size} column points, cannot select {k}"
                )
            # a stride of at least 1 keeps the rounded indices distinct
            idx = np.round(np.linspace(0, lam.size - 1, k)).astype(int)
            mask = np.ones(lam.size, dtype=bool)
            mask[idx] = False
            cols.append(lam[idx])
            rows.append(np.concatenate([lam[mask], grid.row_points]))
        return cls(cols, rows)


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
    grids = []
    for l, entry in enumerate(_json_typed(entries, list, "variables")):
        name = _json_typed(entry, dict, f"variables entry {l}")["name"]
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
    expected = int(np.prod(extents))
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
