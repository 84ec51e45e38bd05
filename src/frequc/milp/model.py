"""Mixed-integer linear model container.

Holds variables with finite bounds, labeled linear rows and a linear
objective.  This is the exchange format between the constraint builders, the
solvers and the LP file writer; it does no solving itself.
"""

from __future__ import annotations

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
        cleaned = {}
        for j, c in coeffs.items():
            if not (0 <= j < len(self.variables)):
                raise ModelError(f"row {label!r}: unknown variable index {j}")
            if not math.isfinite(c):
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

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        lb = np.array([v.lb for v in self.variables], dtype=float)
        ub = np.array([v.ub for v in self.variables], dtype=float)
        return lb, ub

    def dense_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (A, senses, rhs) with senses coded 0 '<=', 1 '>=', 2 '='."""
        a = np.zeros((len(self.rows), len(self.variables)), dtype=float)
        senses = np.empty(len(self.rows), dtype=np.int64)
        rhs = np.empty(len(self.rows), dtype=float)
        code = {SENSE_LE: 0, SENSE_GE: 1, SENSE_EQ: 2}
        for i, row in enumerate(self.rows):
            for j, c in row.coeffs.items():
                a[i, j] = c
            senses[i] = code[row.sense]
            rhs[i] = row.rhs
        return a, senses, rhs

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(len(self.variables), dtype=float)
        for j, v in self.objective.items():
            c[j] = v
        return c

    def row_activity(self, row: LinearRow, x: np.ndarray) -> float:
        return float(sum(c * x[j] for j, c in row.coeffs.items()))

    def validate(self) -> None:
        """Raise ModelError on structural problems; no-op when sound."""
        seen: set[str] = set()
        for v in self.variables:
            if not (math.isfinite(v.lb) and math.isfinite(v.ub)):
                raise ModelError(f"variable {v.name}: non-finite bounds")
            if v.lb > v.ub:
                raise ModelError(f"variable {v.name}: empty bound interval")
            if v.is_integer and (v.lb < -0.5 or v.ub > 1.5):
                raise ModelError(f"variable {v.name}: integer variables must be binary")
            if v.name in seen:
                raise ModelError(f"duplicate variable name: {v.name}")
            seen.add(v.name)
        for row in self.rows:
            if row.sense not in SENSES:
                raise ModelError(f"row {row.label!r}: bad sense")
            for j in row.coeffs:
                if not (0 <= j < len(self.variables)):
                    raise ModelError(f"row {row.label!r}: bad variable index {j}")

    def check_feasible(self, x: np.ndarray, tol: float = 1e-6) -> list[str]:
        """Return human-readable violation messages for point x (empty if ok)."""
        bad: list[str] = []
        for v in self.variables:
            if x[v.index] < v.lb - tol or x[v.index] > v.ub + tol:
                bad.append(f"bound {v.name}: {x[v.index]!r} outside [{v.lb}, {v.ub}]")
            if v.is_integer and abs(x[v.index] - round(x[v.index])) > tol:
                bad.append(f"integrality {v.name}: {x[v.index]!r}")
        for row in self.rows:
            act = self.row_activity(row, x)
            scale = max(1.0, abs(row.rhs))
            if row.sense == SENSE_LE and act > row.rhs + tol * scale:
                bad.append(f"row {row.label}: {act!r} > {row.rhs!r}")
            elif row.sense == SENSE_GE and act < row.rhs - tol * scale:
                bad.append(f"row {row.label}: {act!r} < {row.rhs!r}")
            elif row.sense == SENSE_EQ and abs(act - row.rhs) > tol * scale:
                bad.append(f"row {row.label}: {act!r} != {row.rhs!r}")
        return bad
