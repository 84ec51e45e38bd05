"""Mixed-integer linear model container.

Holds variables with finite bounds, labeled linear rows, kept as blocks of
arrays, and a linear objective.  This is the exchange format between the
constraint builders, the solvers and the LP file writer; it does no solving
itself.  :meth:`MilpModel.compile` checks a model and concatenates its
blocks into the arrays that HiGHS and the feasibility re-check of a solve
share.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
SENSES = (SENSE_LE, SENSE_GE, SENSE_EQ)


@dataclass
class Variable:
    index: int
    name: str
    lb: float
    ub: float
    is_integer: bool = False


class LinearRow(NamedTuple):
    """Single constraint: sum(coeffs[j] * x[j]) <sense> rhs."""

    coeffs: Mapping[int, float]
    sense: str
    rhs: float
    label: str = ""


class RowTerms(Mapping, namedtuple("_RowTerms", "n block i")):
    """Read-only map column -> coefficient of row ``i`` of ``block``,
    which has ``n`` nonzero terms.  Its length is stored, so counting a
    model's terms builds no dict; the terms are read from the block when
    they are used."""

    __slots__ = ()

    def __len__(self) -> int:
        return self.n

    def _dict(self) -> dict[int, float]:
        vals = self.block.vals[self.i]
        keep = vals != 0.0
        return dict(zip(self.block.cols[self.i][keep].tolist(),
                        vals[keep].tolist()))

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, j):
        return self._dict()[j]

    def keys(self):
        return self._dict().keys()

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass
class LinExpr:
    """Affine expression sum(coeffs[j] * x[j]) + constant."""

    coeffs: dict[int, float] = field(default_factory=dict)
    constant: float = 0.0

    def add_term(self, index: int, coeff: float) -> None:
        self.coeffs[index] = self.coeffs.get(index, 0.0) + coeff

    def value(self, x: np.ndarray) -> float:
        return self.constant + sum(c * x[j] for j, c in self.coeffs.items())


class ModelError(ValueError):
    """Raised for malformed models (bad bounds, duplicate names, ...)."""


@dataclass
class RowBlock:
    """``m`` rows stored as arrays: row ``i`` is
    ``sum(vals[i, j] * x[cols[i, j]]) <sense[i]> rhs[i]``.

    ``cols`` and ``vals`` have shape ``(m, k)``; a row with fewer than
    ``k`` terms is padded with zero coefficients, which are dropped when
    the block is read.  ``sense`` holds codes, 0 for ``<=``, 1 for ``>=``
    and 2 for ``=``; ``labels`` holds one label per row.
    """

    cols: np.ndarray
    vals: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    labels: list[str]

    def __len__(self) -> int:
        return len(self.rhs)


class MilpModel:
    """Variables, row blocks and an objective.

    Rows are kept in :class:`RowBlock`s in the order they were added;
    :meth:`add_row` adds a block of one row, :meth:`add_rows` a block of
    many.  ``rows`` reads them back as :class:`LinearRow`s.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.blocks: list[RowBlock] = []
        self.objective: dict[int, float] = {}
        self.objective_constant: float = 0.0
        self._by_name: dict[str, int] = {}
        self._n_rows = 0

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float, integer: bool = False) -> int:
        _check_variable(name, lb, ub, self._by_name)
        idx = len(self.variables)
        self.variables.append(Variable(idx, name, float(lb), float(ub), integer))
        self._by_name[name] = idx
        return idx

    def add_variables(self, names, lb, ub, integer=False) -> np.ndarray:
        """Add one variable per name, with the checks of
        :meth:`add_variable`; ``lb``, ``ub`` and ``integer`` are scalars or
        one value per name.  Returns the new indices in order."""
        names = list(names)
        m = len(names)
        lb = _per_item(lb, m, float, "variables")
        ub = _per_item(ub, m, float, "variables")
        integer = _per_item(integer, m, bool, "variables")
        start = len(self.variables)
        fresh = dict(zip(names, range(start, start + m)))
        if (len(fresh) < m or not self._by_name.keys().isdisjoint(fresh)
                or not (np.isfinite(lb).all() and np.isfinite(ub).all())
                or (lb > ub).any()):
            taken = set(self._by_name)
            for name, lo, hi in zip(names, lb.tolist(), ub.tolist()):
                _check_variable(name, lo, hi, taken)
                taken.add(name)
        self.variables.extend(map(Variable, range(start, start + m), names,
                                  lb.tolist(), ub.tolist(), integer.tolist()))
        self._by_name.update(fresh)
        return np.arange(start, start + m)

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        return self.add_variable(name, lb, ub, integer=False)

    def add_binary(self, name: str) -> int:
        return self.add_variable(name, 0.0, 1.0, integer=True)

    def fix_variable(self, index: int, value: float) -> None:
        """Pin a variable to a single value by collapsing its bounds."""
        var = self.variables[index]
        v = float(value)
        if v < var.lb - 1e-12 or v > var.ub + 1e-12:
            raise ModelError(
                f"variable {var.name}: cannot fix to {v}, outside [{var.lb}, {var.ub}]"
            )
        var.lb = v
        var.ub = v

    def add_row(self, coeffs: dict[int, float], sense: str, rhs: float, label: str = "") -> int:
        k = len(coeffs)
        cols = np.fromiter(coeffs, np.int64, k).reshape(1, k)
        vals = np.fromiter(coeffs.values(), float, k).reshape(1, k)
        return self.add_rows(cols, vals, sense, rhs, [label])[0]

    def add_rows(self, cols, vals, sense, rhs, labels) -> range:
        """Add ``m`` rows as one block and return their indices.

        ``cols`` and ``vals`` are ``(m, k)`` arrays: row ``i`` is
        ``sum(vals[i, j] * x[cols[i, j]]) <sense> rhs``.  ``sense`` and
        ``rhs`` are one value or one per row, ``labels`` one label per
        row.  Zero coefficients are dropped; the other terms of a row
        name distinct columns, as the keys of :meth:`add_row`'s dict do.
        Raises ModelError naming the first row with an unknown sense, a
        non-finite right-hand side, or, in column order, an unknown
        variable index or a non-finite coefficient.
        """
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        m = len(cols)
        if cols.ndim != 2 or vals.shape != cols.shape:
            raise ModelError(f"rows: coefficient arrays of shapes {cols.shape} "
                             f"and {vals.shape}, expected two equal (m, k)")
        if isinstance(sense, str):
            codes = np.full(m, _SENSE_CODE.get(sense, -1), dtype=np.int8)
            given = [sense] * m
        else:
            given = _per_item(sense, m, None, "rows")
            codes = np.full(m, -1, dtype=np.int8)
            for name, code in _SENSE_CODE.items():
                codes[given == name] = code
        rhs = _per_item(rhs, m, float, "rows").copy()
        labels = list(labels)
        if len(labels) != m:
            raise ModelError(f"rows: {len(labels)} labels for {m} rows")
        k = cols.shape[1]
        _check_rows(codes, rhs, cols.ravel(), vals.ravel(), lambda e: e // k,
                    len(self.variables), labels.__getitem__,
                    lambda i: str(given[i]))
        self.blocks.append(RowBlock(cols, vals, codes, rhs, labels))
        start = self._n_rows
        self._n_rows += m
        return range(start, start + m)

    def set_objective(self, coeffs: dict[int, float], constant: float = 0.0) -> None:
        for j, c in coeffs.items():
            if not (0 <= j < len(self.variables)):
                raise ModelError(f"objective: unknown variable index {j}")
            if not math.isfinite(c):
                raise ModelError(f"objective: non-finite coefficient on index {j}")
        self.objective = {j: float(c) for j, c in coeffs.items() if c != 0.0}
        self.objective_constant = float(constant)

    # -- inspection --------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def rows(self) -> RowsView:
        """Every row as a :class:`LinearRow`, read from the blocks when the
        view is iterated; the coefficient maps are read-only, since edits
        to them would not reach the blocks."""
        return RowsView(tuple(self.blocks))

    def row_label(self, i: int) -> str:
        """Label of row ``i``."""
        for block in self.blocks:
            if i < len(block):
                return block.labels[i]
            i -= len(block)
        raise IndexError("row index out of range")

    def variable_by_name(self, name: str) -> Variable:
        return self.variables[self._by_name[name]]

    def has_variable(self, name: str) -> bool:
        return name in self._by_name

    def binary_indices(self) -> list[int]:
        return [v.index for v in self.variables if v.is_integer]

    def row_activity(self, row: LinearRow, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in row.coeffs.items()))

    def validate(self) -> None:
        """Raise ModelError on structural problems; no-op when sound."""
        self.compile()

    def compile(self) -> CompiledModel:
        """Check the model and return it as arrays.

        Raises ModelError on non-finite or empty bounds, a non-binary
        integer variable, a duplicate name, or a row that a block edited
        in place made malformed (see :meth:`add_rows`), naming the first
        offending variable, else row.
        """
        import scipy.sparse as sp

        variables, blocks = self.variables, self.blocks
        n, m = len(variables), self._n_rows
        lb = np.fromiter((v.lb for v in variables), float, n)
        ub = np.fromiter((v.ub for v in variables), float, n)
        integer = np.fromiter((v.is_integer for v in variables), bool, n)
        _check_variables(variables, lb, ub, integer)

        keep = [b.vals != 0.0 for b in blocks]
        indptr = np.zeros(m + 1, dtype=np.int64)
        sense = np.empty(m, dtype=np.int8)
        rhs = np.empty(m)
        if blocks:
            np.cumsum(np.concatenate([k.sum(axis=1) for k in keep]),
                      out=indptr[1:])
            np.concatenate([b.sense for b in blocks], out=sense)
            np.concatenate([b.rhs for b in blocks], out=rhs)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        data = np.empty(nnz)
        if blocks:
            np.concatenate([b.cols[k] for b, k in zip(blocks, keep)],
                           out=indices)
            np.concatenate([b.vals[k] for b, k in zip(blocks, keep)],
                           out=data)
        _check_rows(sense, rhs, indices, data,
                    lambda e: int(np.searchsorted(indptr, e, side="right")) - 1,
                    n, self.row_label, lambda i: int(sense[i]))

        c = np.zeros(n)
        if self.objective:
            k = len(self.objective)
            c[np.fromiter(self.objective, np.int64, k)] = np.fromiter(
                self.objective.values(), float, k)
        return CompiledModel(
            model=self, c=c, lb=lb, ub=ub,
            integrality=integer.astype(np.uint8),
            a=sp.csr_array((data, indices, indptr), shape=(m, n)),
            lo=np.where(sense == _LE, -np.inf, rhs),
            hi=np.where(sense == _GE, np.inf, rhs))

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """Return human-readable violation messages for point x (empty if ok)."""
        return self.compile().check_feasible(x, tol)


_LE, _GE, _EQ = 0, 1, 2
_SENSE_CODE = {SENSE_LE: _LE, SENSE_GE: _GE, SENSE_EQ: _EQ}
_SENSE_NAME = {code: name for name, code in _SENSE_CODE.items()}


def _check_variable(name, lb, ub, taken) -> None:
    if name in taken:
        raise ModelError(f"duplicate variable name: {name}")
    if not (math.isfinite(lb) and math.isfinite(ub)):
        raise ModelError(f"variable {name}: bounds must be finite, got [{lb}, {ub}]")
    if lb > ub:
        raise ModelError(f"variable {name}: lower bound {lb} exceeds upper bound {ub}")


def _check_variables(variables, lb, ub, integer) -> None:
    non_finite = ~(np.isfinite(lb) & np.isfinite(ub))
    empty = lb > ub
    non_binary = integer & ((lb < -0.5) | (ub > 1.5))
    duplicate = np.zeros(len(variables), dtype=bool)
    names = [v.name for v in variables]
    if len(set(names)) < len(names):
        seen: set[str] = set()
        for j, name in enumerate(names):
            duplicate[j] = name in seen
            seen.add(name)
    bad = non_finite | empty | non_binary | duplicate
    if not bad.any():
        return
    j = int(np.argmax(bad))
    name = variables[j].name
    if non_finite[j]:
        raise ModelError(f"variable {name}: non-finite bounds")
    if empty[j]:
        raise ModelError(f"variable {name}: empty bound interval")
    if non_binary[j]:
        raise ModelError(f"variable {name}: integer variables must be binary")
    raise ModelError(f"duplicate variable name: {name}")


def _per_item(value, m, dtype, what) -> np.ndarray:
    """``value`` as ``m`` items: a scalar is repeated."""
    array = np.asarray(value, dtype=dtype)
    if array.ndim == 0:
        return np.full(m, array)
    if array.shape != (m,):
        raise ModelError(f"{what}: {array.shape} values for {m} items")
    return array


def _check_rows(codes, rhs, cols, vals, row_of, n, label, sense) -> None:
    """Raise ModelError for the first bad row: an unknown sense code (named
    by ``sense(row)``), then a non-finite right-hand side, then its first
    term with an index outside ``[0, n)`` or a non-finite coefficient.  The
    terms are flat; ``row_of`` maps a term's position to its row."""
    bad_row = (codes < _LE) | (codes > _EQ) | ~np.isfinite(rhs)
    bad_term = (cols < 0) | (cols >= n) | ~np.isfinite(vals)
    if not (bad_row.any() or bad_term.any()):
        return
    first = int(np.argmax(bad_row)) if bad_row.any() else len(rhs)
    term = int(np.argmax(bad_term)) if bad_term.any() else -1
    if term >= 0 and row_of(term) < first:
        first = row_of(term)
    name = label(first)
    if not _LE <= codes[first] <= _EQ:
        raise ModelError(f"row {name!r}: unknown sense {sense(first)!r}")
    if not math.isfinite(rhs[first]):
        raise ModelError(f"row {name!r}: right-hand side must be finite")
    if not 0 <= cols[term] < n:
        raise ModelError(f"row {name!r}: unknown variable index {cols[term]}")
    raise ModelError(f"row {name!r}: non-finite coefficient on index {cols[term]}")


class RowsView(Sequence):
    """The rows of a list of blocks as :class:`LinearRow`s, made one at
    a time as they are read."""

    def __init__(self, blocks):
        self._blocks = blocks

    def __len__(self) -> int:
        return sum(map(len, self._blocks))

    def __iter__(self):
        return chain.from_iterable(map(_block_rows, self._blocks))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]
        for block in self._blocks:
            if i < len(block):
                return next(islice(_block_rows(block), i, None))
            i -= len(block)


def _block_rows(block: RowBlock):
    """Iterator over a block's rows as :class:`LinearRow`s; tuple.__new__
    builds each row and term map without a Python-level call."""
    counts = np.count_nonzero(block.vals, axis=1).tolist()
    m = len(counts)
    terms = map(tuple.__new__, repeat(RowTerms),
                zip(counts, repeat(block, m), range(m)))
    codes = block.sense.tolist()
    return map(tuple.__new__, repeat(LinearRow),
               zip(terms, map(_SENSE_NAME.get, codes, codes),
                   block.rhs.tolist(), block.labels))


@dataclass(frozen=True)
class CompiledModel:
    """A checked model as arrays: the objective ``c``, the column bounds
    ``lb``/``ub``, the ``integrality`` vector (1 for a binary), the CSR
    row matrix ``a`` and the row bounds ``lo <= a @ x <= hi``.  HiGHS
    and the feasibility re-check both read these."""

    model: MilpModel
    c: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    a: object  # scipy.sparse.csr_array, imported lazily
    lo: np.ndarray
    hi: np.ndarray

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """Violation messages for point x: per variable, bound then
        integrality, in index order; then rows in order.  Bounds and
        integrality are held to ``tol``, a row to ``tol * max(1, |rhs|)``.
        A NaN value or row activity is a violation: every test below asks
        for the value to be inside, which NaN never is."""
        x = np.asarray(x, dtype=float)
        outside = ~((x >= self.lb - tol) & (x <= self.ub + tol))
        fractional = (self.integrality > 0) & ~(np.abs(x - np.round(x)) <= tol)
        act = self.a @ x
        rhs = np.where(self.hi == np.inf, self.lo, self.hi)
        slack = tol * np.maximum(1.0, np.abs(rhs))
        above = (self.lo == -np.inf) & ~(act <= self.hi + slack)
        below = (self.hi == np.inf) & ~(act >= self.lo - slack)
        off = (self.lo == self.hi) & ~(np.abs(act - rhs) <= slack)

        bad: list[str] = []
        variables = self.model.variables
        for j in np.flatnonzero(outside | fractional):
            name, value = variables[j].name, float(x[j])
            if outside[j]:
                bad.append(f"bound {name}: {value!r} outside "
                           f"[{float(self.lb[j])}, {float(self.ub[j])}]")
            if fractional[j]:
                bad.append(f"integrality {name}: {value!r}")
        for i in np.flatnonzero(above | below | off):
            op = ">" if above[i] else "<" if below[i] else "!="
            bad.append(f"row {self.model.row_label(i)}: {float(act[i])!r} "
                       f"{op} {float(rhs[i])!r}")
        return bad
