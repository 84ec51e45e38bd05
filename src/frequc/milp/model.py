"""Mixed-integer linear model container.

Holds variables with finite bounds, labeled linear rows and a linear
objective.  This is the exchange format between the constraint builders, the
solvers and the LP file writer; it does no solving itself.
:meth:`MilpModel.compile` checks a model and turns it into the arrays that
HiGHS and the feasibility re-check of a solve share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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


@dataclass
class LinearRow:
    """Single constraint: sum(coeffs[j] * x[j]) <sense> rhs."""

    coeffs: dict[int, float]
    sense: str
    rhs: float
    label: str = ""


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


class MilpModel:
    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[LinearRow] = []
        self.objective: dict[int, float] = {}
        self.objective_constant: float = 0.0
        self._by_name: dict[str, int] = {}

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float, integer: bool = False) -> int:
        if name in self._by_name:
            raise ModelError(f"duplicate variable name: {name}")
        if not (math.isfinite(lb) and math.isfinite(ub)):
            raise ModelError(f"variable {name}: bounds must be finite, got [{lb}, {ub}]")
        if lb > ub:
            raise ModelError(f"variable {name}: lower bound {lb} exceeds upper bound {ub}")
        idx = len(self.variables)
        self.variables.append(Variable(idx, name, float(lb), float(ub), integer))
        self._by_name[name] = idx
        return idx

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
        if sense not in SENSES:
            raise ModelError(f"row {label!r}: unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise ModelError(f"row {label!r}: right-hand side must be finite")
        n, isfinite = len(self.variables), math.isfinite
        cleaned = {}
        for j, c in coeffs.items():
            if not 0 <= j < n:
                raise ModelError(f"row {label!r}: unknown variable index {j}")
            if not isfinite(c):
                raise ModelError(f"row {label!r}: non-finite coefficient on index {j}")
            if c != 0.0:
                cleaned[j] = float(c)
        self.rows.append(LinearRow(cleaned, sense, float(rhs), label))
        return len(self.rows) - 1

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
        return len(self.rows)

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
        integer variable, a duplicate name, an unknown sense or a row index
        out of range, naming the first offending variable, else row.
        """
        import scipy.sparse as sp

        variables, rows = self.variables, self.rows
        n, m = len(variables), len(rows)
        lb = np.fromiter((v.lb for v in variables), float, n)
        ub = np.fromiter((v.ub for v in variables), float, n)
        integer = np.fromiter((v.is_integer for v in variables), bool, n)
        _check_variables(variables, lb, ub, integer)

        sense = np.fromiter((_SENSE_CODE.get(r.sense, -1) for r in rows),
                            np.int8, m)
        rhs = np.fromiter((r.rhs for r in rows), float, m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(r.coeffs) for r in rows), np.int64, m),
                  out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(
            itertools.chain.from_iterable(r.coeffs for r in rows), np.int64, nnz)
        data = np.fromiter(
            itertools.chain.from_iterable(r.coeffs.values() for r in rows),
            float, nnz)
        _check_rows(rows, sense, indptr, indices, n)

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


def _check_rows(rows, sense, indptr, indices, n) -> None:
    m = len(rows)
    bad_sense = np.flatnonzero(sense < 0)
    bad_index = np.flatnonzero((indices < 0) | (indices >= n))
    first_sense = int(bad_sense[0]) if bad_sense.size else m
    first_index = m
    if bad_index.size:
        first_index = int(np.searchsorted(indptr, bad_index[0], side="right")) - 1
    if first_sense < m and first_sense <= first_index:
        raise ModelError(f"row {rows[first_sense].label!r}: bad sense")
    if first_index < m:
        raise ModelError(f"row {rows[first_index].label!r}: "
                         f"bad variable index {indices[bad_index[0]]}")


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
        integrality are held to ``tol``, a row to ``tol * max(1, |rhs|)``."""
        x = np.asarray(x, dtype=float)
        outside = (x < self.lb - tol) | (x > self.ub + tol)
        fractional = (self.integrality > 0) & (np.abs(x - np.round(x)) > tol)
        act = self.a @ x
        eq = self.lo == self.hi
        rhs = np.where(self.hi == np.inf, self.lo, self.hi)
        slack = tol * np.maximum(1.0, np.abs(rhs))
        above = ~eq & (act > self.hi + slack)
        below = ~eq & (act < self.lo - slack)
        off = eq & (np.abs(act - rhs) > slack)

        bad: list[str] = []
        variables, rows = self.model.variables, self.model.rows
        for j in np.flatnonzero(outside | fractional):
            name, value = variables[j].name, float(x[j])
            if outside[j]:
                bad.append(f"bound {name}: {value!r} outside "
                           f"[{float(self.lb[j])}, {float(self.ub[j])}]")
            if fractional[j]:
                bad.append(f"integrality {name}: {value!r}")
        for i in np.flatnonzero(above | below | off):
            op = ">" if above[i] else "<" if below[i] else "!="
            bad.append(f"row {rows[i].label}: {float(act[i])!r} {op} "
                       f"{float(rhs[i])!r}")
        return bad
