"""LP-format text export.

``export_model`` writes the standard LP text format (Minimize / Subject To /
Bounds / Binaries / End) so a model can be handed to any external solver.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .model import SENSE_EQ, SENSE_GE, SENSE_LE, LaidOutModel, MilpModel


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


def _format_terms(cols, vals, names) -> list[str]:
    parts: list[str] = []
    for j, c in zip(cols, vals):
        sign = "-" if c < 0 else "+"
        if not parts and sign == "+":
            parts.extend([_num(abs(c)), names[j]])
        else:
            parts.extend([sign, _num(abs(c)), names[j]])
    if not parts:
        parts.append("0")
    return parts


def export_model(model: MilpModel | LaidOutModel) -> str:
    """Render the model as LP-format text, read from its compiled arrays:
    each row's terms in column order, each column's bounds in index
    order."""
    compiled = model.compile()
    names = model.names
    out: list[str] = [f"\\ Problem: {model.name}"]
    out.append("Minimize")
    obj = np.flatnonzero(compiled.c)
    obj_parts = _format_terms(obj.tolist(), compiled.c[obj].tolist(), names)
    out.extend(_wrap_terms(["obj:"] + obj_parts, indent="   "))
    out.append("Subject To")
    a = compiled.a.sorted_indices()
    indptr, cols, vals = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    labels = chain.from_iterable(block.labels for block in model.blocks)
    for i, (label, lo, hi) in enumerate(zip(labels, compiled.lo.tolist(),
                                            compiled.hi.tolist())):
        terms = slice(indptr[i], indptr[i + 1])
        parts = [f"{label or f'r{i}'}:"] + _format_terms(cols[terms],
                                                         vals[terms], names)
        if lo == -math.inf:
            parts.extend([SENSE_LE, _num(hi)])
        else:
            parts.extend([SENSE_GE if hi == math.inf else SENSE_EQ, _num(lo)])
        out.extend(_wrap_terms(parts, indent="   "))
    out.append("Bounds")
    for name, lo, hi in zip(names, compiled.lb.tolist(), compiled.ub.tolist()):
        out.append(f" {_num(lo)} <= {name} <= {_num(hi)}")
    bins = [names[j] for j in np.flatnonzero(compiled.integrality)]
    if bins:
        out.append("Binaries")
        out.extend(_wrap_terms(bins, indent=" "))
    out.append("End")
    return "\n".join(out) + "\n"
