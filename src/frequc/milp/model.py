"""Mixed-integer linear model container.

Holds columns with finite bounds, kept as arrays of names, bounds and
integrality, labeled linear rows, kept as blocks of arrays, and a linear
objective.  This is the exchange format between the constraint builders,
the solvers and the LP file writer; it does no solving itself.  Building
a model only collects what is added.

Every model compiles through a :class:`ModelLayout`: the structure of a
model, checked once, with its CSR row pattern.  Models that differ only
in their numbers share one, built with name and label templates (a
period written as :func:`period_tag`).  A :class:`LaidOutModel` is a
layout's structure with numbers of its own (column bounds,
coefficients, right-hand sides, objective), checked and made read-only
when it is made.  It is the arrays that HiGHS, the feasibility re-check
of a solve and the LP writer read, and its :meth:`~LaidOutModel.compile`
is the model itself; it makes its names, labels and row blocks only when
they are read.  :meth:`MilpModel.compile` is its own layout with its own
numbers.

:func:`template_rows` writes a row template, one cell's rows over slots,
for every cell of a ``(cells, slots)`` column array as one
:class:`RowBlock`.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

SENSE_LE = "<="
SENSE_GE = ">="
SENSE_EQ = "="
# the code of each sense in a RowBlock
_LE, _GE, _EQ = 0, 1, 2
SENSE_CODE = {SENSE_LE: _LE, SENSE_GE: _GE, SENSE_EQ: _EQ}
_SENSE_NAME = {code: name for name, code in SENSE_CODE.items()}
# brackets a period, counted from a model's first, in a name or label
# template of a ModelLayout
PERIOD = "\x00"


def period_tag(t: int) -> str:
    """The part of a name or label template that reads ``start + t`` in a
    laid-out model whose first period is ``start``."""
    return f"{PERIOD}{t}{PERIOD}"


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


def template_numbers(*parts):
    """``(vals, sense, rhs)`` of :func:`template_rows`'s block, each
    ``(template, n)`` of ``parts`` written ``n`` times in turn: ``vals``
    ``(m, k)``, short rows padded with zero coefficients."""
    k = max(len(row[3]) for template, _ in parts for row in template)
    blocks = []
    for template, n in parts:
        # each row's coefficients, sense code and right-hand side
        numbers = []
        for _, _, sense, slots, vals, rhs in template:
            numbers += [*vals, *[0.0] * (k - len(slots)), sense, rhs]
        blocks += [np.array(numbers, dtype=float).reshape(-1, k + 2)] * n
    numbers = np.concatenate(blocks)
    return numbers[:, :k], numbers[:, k].astype(np.int8), numbers[:, k + 1]


def template_rows(columns, *parts) -> RowBlock:
    """The rows of each ``(template, tags)`` of ``parts`` in turn, as one
    block: ``template`` written for every tag of ``tags``, one tag after
    the other.  ``columns`` is a ``(tags, slots)`` array of column ids.  A
    template row ``(kind, suffix, sense, slots, vals, rhs)``, ``sense`` a
    code, reads the columns ``columns[b, slots]`` for tag ``b`` and is
    labelled ``kind + tags[b] + suffix``; short rows are padded with zero
    coefficients (see :func:`template_numbers`)."""
    vals, sense, rhs = template_numbers(
        *((template, len(tags)) for template, tags in parts))
    k = vals.shape[1]
    cols, labels = [], []
    for template, tags in parts:
        slots = [row[3] + [0] * (k - len(row[3])) for row in template]
        cols.append(columns[:len(tags), np.array(slots, dtype=np.int64)]
                    .reshape(-1, k))
        labels += [f"{kind}{tag}{suffix}" for tag in tags
                   for kind, suffix, *_ in template]
    return RowBlock(np.concatenate(cols), vals, sense, rhs, labels)


class MilpModel:
    """Columns, row blocks and an objective, collected as they are added.

    Column ``j`` is ``names[j]`` with bounds ``lb[j] <= x[j] <= ub[j]``;
    ``integrality[j]`` is 1 for a binary.  :meth:`add_variable` adds one
    column, :meth:`add_variables` many.  Rows are kept in
    :class:`RowBlock`s in the order they were added; :meth:`add_row` adds
    a block of one row, :meth:`add_rows` a block of many and
    :meth:`add_block` a ready-made block.  ``rows`` reads
    them back as :class:`LinearRow`s.

    Adding checks only what forms a block; :meth:`compile` checks the
    model's structure and numbers once, by laying it out: its
    :class:`ModelLayout` checks the structure and its
    :class:`LaidOutModel` the numbers.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.names: list[str] = []
        self.lb = np.empty(0)
        self.ub = np.empty(0)
        self.integrality = np.empty(0, dtype=np.uint8)
        self.blocks: list[RowBlock] = []
        self.objective: dict[int, float] = {}
        self._n_rows = 0

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float, integer: bool = False) -> int:
        return int(self.add_variables([name], lb, ub, integer)[0])

    def add_variables(self, names, lb, ub, integer=False) -> np.ndarray:
        """Add one column per name; ``lb``, ``ub`` and ``integer`` are
        scalars or one value per name.  Returns the new indices in order.
        Names and bounds are checked by the model's layout."""
        names = list(names)
        m = len(names)
        lb = _per_item(lb, m, float, "variables")
        ub = _per_item(ub, m, float, "variables")
        integer = _per_item(integer, m, bool, "variables")
        start = len(self.names)
        self.names += names
        self.lb = np.concatenate([self.lb, lb])
        self.ub = np.concatenate([self.ub, ub])
        self.integrality = np.concatenate([self.integrality,
                                           integer.astype(np.uint8)])
        return np.arange(start, start + m)

    def add_continuous(self, name: str, lb: float, ub: float) -> int:
        return self.add_variable(name, lb, ub, integer=False)

    def add_binary(self, name: str) -> int:
        return self.add_variable(name, 0.0, 1.0, integer=True)

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
        Raises ModelError when no block can be formed: arrays of the
        wrong shape, a wrong count of labels or right-hand sides, or a
        sense that is not ``<=``, ``>=`` or ``=`` (naming the first such
        row).  The rows' indices and numbers are checked by the model's
        layout.
        """
        cols = np.array(cols, dtype=np.int64)
        vals = np.array(vals, dtype=float)
        m = len(cols)
        if cols.ndim != 2 or vals.shape != cols.shape:
            raise ModelError(f"rows: coefficient arrays of shapes {cols.shape} "
                             f"and {vals.shape}, expected two equal (m, k)")
        if isinstance(sense, str):  # one sense for every row
            given = [sense] * m
            codes = np.full(m, SENSE_CODE.get(sense, -1), dtype=np.int8)
        else:
            given = _per_item(sense, m, None, "rows")
            codes = np.full(m, -1, dtype=np.int8)
            for name, code in SENSE_CODE.items():
                codes[given == name] = code
        rhs = _per_item(rhs, m, float, "rows").copy()
        labels = list(labels)
        if len(labels) != m:
            raise ModelError(f"rows: {len(labels)} labels for {m} rows")
        unknown = codes < 0
        if unknown.any():
            i = int(np.argmax(unknown))
            raise ModelError(
                f"row {labels[i]!r}: unknown sense {str(given[i])!r}")
        return self.add_block(RowBlock(cols, vals, codes, rhs, labels))

    def add_block(self, block: RowBlock) -> range:
        """Add a block of rows and return their indices; the model's
        layout checks them as it checks :meth:`add_rows`' rows."""
        self.blocks.append(block)
        start = self._n_rows
        self._n_rows += len(block)
        return range(start, start + len(block))

    def set_objective(self, coeffs: dict[int, float]) -> None:
        """Make ``coeffs``, column index -> coefficient, the objective;
        its indices are checked by the model's layout and its numbers by
        its :class:`LaidOutModel` (see :meth:`compile`)."""
        self.objective = {j: float(c) for j, c in coeffs.items() if c != 0.0}

    # -- inspection --------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def rows(self) -> RowsView:
        """Every row as a :class:`LinearRow`, read from the blocks when the
        view is iterated; the coefficient maps are read-only, since edits
        to them would not reach the blocks."""
        return RowsView(tuple(self.blocks))

    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.integrality).tolist()

    def compile(self) -> LaidOutModel:
        """Check the model and return it as the arrays HiGHS reads: its
        :class:`ModelLayout` with its own numbers.  Raises ModelError as
        :class:`ModelLayout` and :class:`LaidOutModel` do."""
        layout = ModelLayout(self)
        return LaidOutModel(layout, self.name, 0, *layout.numbers())


def _check_variables(name_of, lb, ub, integer, duplicate=False) -> None:
    """Raise ModelError for the first bad column, named by ``name_of(j)``:
    non-finite or empty bounds, a non-binary integer, or a name that
    ``duplicate`` marks."""
    non_finite = ~(np.isfinite(lb) & np.isfinite(ub))
    empty = lb > ub
    non_binary = integer & ((lb < -0.5) | (ub > 1.5))
    bad = non_finite | empty | non_binary | duplicate
    if not bad.any():
        return
    j = int(np.argmax(bad))
    name = name_of(j)
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


def _check_rows(codes, rhs, cols, vals, row_of, n, label,
                structure=True) -> None:
    """Raise ModelError for the first bad row: an unknown sense code, then
    a non-finite right-hand side, then its first term with an index
    outside ``[0, n)`` or a non-finite coefficient.  The terms are flat;
    ``row_of`` maps a term's position to its row.  Without ``structure``
    only the numbers are checked: the right-hand sides and the
    coefficients."""
    bad_row = ~np.isfinite(rhs)
    bad_term = ~np.isfinite(vals)
    if structure:
        bad_row |= (codes < _LE) | (codes > _EQ)
        bad_term |= (cols < 0) | (cols >= n)
    if not (bad_row.any() or bad_term.any()):
        return
    first = int(np.argmax(bad_row)) if bad_row.any() else len(rhs)
    term = int(np.argmax(bad_term)) if bad_term.any() else -1
    if term >= 0 and row_of(term) < first:
        first = row_of(term)
    name = label(first)
    if not _LE <= codes[first] <= _EQ:
        raise ModelError(f"row {name!r}: unknown sense {int(codes[first])}")
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    array.setflags(write=False)
    return array


def _joined(arrays, dtype=float) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype)


def _template_parts(templates) -> list[tuple]:
    """Each template, which holds at most one :func:`period_tag`, as
    ``(head, t, tail)``, ``t`` None without one."""
    parts = []
    for template in templates:
        head, *period = template.split(PERIOD)
        parts.append((head, int(period[0]), period[1]) if period
                     else (head, None, ""))
    return parts


def _made(parts, start: int) -> list[str]:
    """The names or labels of templates ``parts`` at first period ``start``."""
    return [head if t is None else f"{head}{start + t}{tail}"
            for head, t, tail in parts]


class ModelLayout:
    """What models that differ only in their numbers share.

    Made from ``model``, built with name and label templates (a period
    ``t`` after the first written as :func:`period_tag`\\ ``(t)``), whose
    structure it checks, once: a :class:`MilpModel` only collects.  The
    layout keeps the structure: the name and label templates, the
    integrality, each block's columns, senses and shape, and ``pattern``,
    the CSR matrix whose ``indptr`` and ``indices`` every laid-out
    model's matrix shares: ``keep`` indexes the coefficients that are not
    zero.  ``model``'s numbers are the base that
    :meth:`numbers` copies for each model to write its own into; a number
    whose zero pattern may change belongs in the layout's key, not only
    in its numbers.

    Raises ModelError, naming the first offending variable, else row,
    else objective term: non-finite or empty bounds, a non-binary integer
    variable or a duplicate name; a row with an unknown sense code, a
    non-finite right-hand side, or a term (zero ones too) with an index
    outside the columns or a non-finite coefficient, the first in column
    order; an objective index outside the columns.
    """

    def __init__(self, model: MilpModel):
        import scipy.sparse as sp

        blocks = model.blocks
        n, m = model.n_vars, model.n_rows
        self.n_vars, self.n_rows = n, m
        self.name_templates = names = list(model.names)
        self.label_templates = [label for b in blocks for label in b.labels]
        lb, ub = model.lb.copy(), model.ub.copy()
        self.integrality = _frozen(model.integrality.copy())
        duplicate = np.zeros(n, dtype=bool)
        if len(set(names)) < n:
            seen: set[str] = set()
            for j, name in enumerate(names):
                duplicate[j] = name in seen
                seen.add(name)
        _check_variables(names.__getitem__, lb, ub, self.integrality > 0,
                         duplicate)

        self.cols = [_frozen(b.cols) for b in blocks]
        self.sense = sense = _frozen(_joined([b.sense for b in blocks],
                                             np.int8))
        rhs = _joined([b.rhs for b in blocks])
        vals = _joined([b.vals.ravel() for b in blocks])
        self.keep = keep = _frozen(np.flatnonzero(vals != 0.0))
        cols = _joined([b.cols.ravel() for b in blocks], np.int64)
        # where each row's terms end in the flat arrays, zero ones included
        ends = np.cumsum(np.repeat([b.cols.shape[1] for b in blocks],
                                   [len(b) for b in blocks]), dtype=np.int64)
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.searchsorted(keep, ends)
        _check_rows(sense, rhs, cols, vals,
                    lambda e: int(np.searchsorted(ends, e, side="right")),
                    n, self.label_templates.__getitem__)
        indices, data = cols[keep], vals[keep]
        self.lower, self.upper = (_frozen(sense != code)
                                  for code in (_LE, _GE))
        self.pattern = sp.csr_array((data, indices, indptr), shape=(m, n))
        for array in (self.pattern.indptr, self.pattern.indices):
            array.setflags(write=False)

        c = np.zeros(n)
        if model.objective:
            k = len(model.objective)
            at = np.fromiter(model.objective, np.int64, k)
            outside = (at < 0) | (at >= n)
            if outside.any():
                raise ModelError("objective: unknown variable index "
                                 f"{at[np.argmax(outside)]}")
            c[at] = np.fromiter(model.objective.values(), float, k)
        self._base = (lb, ub, vals, rhs, c)
        self._names = self._labels = None

    def numbers(self):
        """Fresh copies of the base numbers ``(lb, ub, vals, rhs, c)``:
        column bounds, the blocks' coefficients flattened block by block,
        right-hand sides and objective."""
        return tuple(array.copy() for array in self._base)

    def names(self, start: int) -> list[str]:
        if self._names is None:
            self._names = _template_parts(self.name_templates)
        return _made(self._names, start)

    def labels(self, start: int) -> list[str]:
        if self._labels is None:
            self._labels = _template_parts(self.label_templates)
        return _made(self._labels, start)


class LaidOutModel:
    """A model with the structure of ``layout`` and numbers of its own, its
    first period ``start``: column bounds ``lb`` and ``ub``, the blocks'
    coefficients ``vals`` flattened block by block, right-hand sides
    ``rhs`` and objective ``c`` (see :meth:`ModelLayout.numbers`).

    It is what HiGHS, the feasibility re-check of a solve and the LP
    writer read: these numbers, checked when it is made and then
    read-only, ``a``, the layout's CSR pattern with these coefficients,
    and the row bounds ``lo <= a @ x <= hi``.  Raises ModelError, naming
    the first offending variable, else row, else objective term, on a
    non-finite or empty bound, a non-binary integer variable, or a
    non-finite right-hand side or coefficient.

    Names, labels, row blocks and the objective map are made when read.
    It has no methods that add columns or rows: its structure is the
    layout's.
    """

    def __init__(self, layout: ModelLayout, name: str, start: int, lb, ub,
                 vals, rhs, c):
        self.name, self.layout, self.start = name, layout, start
        self.integrality = layout.integrality
        self._names = self._blocks = None
        _check_variables(lambda j: self.names[j], lb, ub,
                         layout.integrality > 0)
        data = vals.take(layout.keep)
        pattern = layout.pattern
        _check_rows(layout.sense, rhs, pattern.indices, data,
                    lambda e: int(np.searchsorted(pattern.indptr, e,
                                                  side="right")) - 1,
                    self.n_vars, self.row_label, structure=False)
        if not np.isfinite(c).all():
            j = int(np.argmin(np.isfinite(c)))
            raise ModelError(f"objective: non-finite coefficient on index {j}")
        self.lb, self.ub, self.vals, self.rhs, self.c = map(
            _frozen, (lb, ub, vals, rhs, c))
        # the layout's matrix with this model's coefficients: its checked
        # structure is shared, not checked again
        self.a = copy.copy(pattern)
        self.a.data = data
        self.lo = np.where(layout.lower, rhs, -np.inf)
        self.hi = np.where(layout.upper, rhs, np.inf)

    @property
    def n_vars(self) -> int:
        return self.layout.n_vars

    @property
    def n_rows(self) -> int:
        return self.layout.n_rows

    @property
    def rows(self) -> RowsView:
        """Every row as a :class:`LinearRow`, read from the blocks when the
        view is iterated (see :attr:`MilpModel.rows`)."""
        return RowsView(tuple(self.blocks))

    def binary_indices(self) -> list[int]:
        return np.flatnonzero(self.integrality).tolist()

    @property
    def names(self) -> list[str]:
        if self._names is None:
            self._names = self.layout.names(self.start)
        return self._names

    @property
    def blocks(self) -> list[RowBlock]:
        if self._blocks is None:
            labels = self.layout.labels(self.start)
            self._blocks, v, r = [], 0, 0
            for cols in self.layout.cols:
                m, k = cols.shape
                self._blocks.append(RowBlock(
                    cols, self.vals[v:v + m * k].reshape(m, k),
                    self.layout.sense[r:r + m], self.rhs[r:r + m],
                    labels[r:r + m]))
                v, r = v + m * k, r + m
        return self._blocks

    @property
    def objective(self) -> dict[int, float]:
        nonzero = np.flatnonzero(self.c)
        return dict(zip(nonzero.tolist(), self.c[nonzero].tolist()))

    def row_label(self, i: int) -> str:
        template = self.layout.label_templates[range(self.n_rows)[i]]
        return _made(_template_parts([template]), self.start)[0]


    def compile(self) -> LaidOutModel:
        """The model itself: it was checked when it was made."""
        return self

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
        for j in np.flatnonzero(outside | fractional):
            name, value = self.names[j], float(x[j])
            if outside[j]:
                bad.append(f"bound {name}: {value!r} outside "
                           f"[{float(self.lb[j])}, {float(self.ub[j])}]")
            if fractional[j]:
                bad.append(f"integrality {name}: {value!r}")
        for i in np.flatnonzero(above | below | off):
            op = ">" if above[i] else "<" if below[i] else "!="
            bad.append(f"row {self.row_label(i)}: {float(act[i])!r} "
                       f"{op} {float(rhs[i])!r}")
        return bad
