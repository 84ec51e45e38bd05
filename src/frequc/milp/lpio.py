"""LP-format text export.

``export_model`` writes the standard LP text format (Minimize / Subject To /
Bounds / Binaries / End) so a model can be handed to any external solver.
"""

from __future__ import annotations

from .model import MilpModel


def _num(x: float) -> str:
    return repr(float(x))


def _wrap_terms(parts: list[str], indent: str = "   ") -> list[str]:
    lines = []
    line = ""
    for part in parts:
        if line and len(line) + len(part) + 1 > 200:
            lines.append(line)
            line = indent + part
        else:
            line = part if not line else line + " " + part
    if line:
        lines.append(line)
    return lines


def _format_terms(coeffs: dict[int, float], model: MilpModel, constant: float = 0.0) -> list[str]:
    parts: list[str] = []
    for j in sorted(coeffs):
        c = coeffs[j]
        sign = "-" if c < 0 else "+"
        if not parts and sign == "+":
            parts.extend([_num(abs(c)), model.variables[j].name])
        else:
            parts.extend([sign, _num(abs(c)), model.variables[j].name])
    if constant != 0.0:
        sign = "-" if constant < 0 else "+"
        if not parts and sign == "+":
            parts.append(_num(abs(constant)))
        else:
            parts.extend([sign, _num(abs(constant))])
    if not parts:
        parts.append("0")
    return parts


def export_model(model: MilpModel) -> str:
    """Render the model as LP-format text."""
    model.validate()
    out: list[str] = [f"\\ Problem: {model.name}"]
    out.append("Minimize")
    obj_parts = _format_terms(model.objective, model, model.objective_constant)
    out.extend(_wrap_terms(["obj:"] + obj_parts, indent="   "))
    out.append("Subject To")
    for i, row in enumerate(model.rows):
        label = row.label if row.label else f"r{i}"
        parts = [f"{label}:"] + _format_terms(row.coeffs, model)
        parts.extend([row.sense, _num(row.rhs)])
        out.extend(_wrap_terms(parts, indent="   "))
    out.append("Bounds")
    for v in model.variables:
        out.append(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}")
    bins = [model.variables[j].name for j in model.binary_indices()]
    if bins:
        out.append("Binaries")
        out.extend(_wrap_terms(bins, indent=" "))
    out.append("End")
    return "\n".join(out) + "\n"
