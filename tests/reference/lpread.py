"""LP-format text reader and structural model comparison.

``import_model`` reads the dialect that ``frequc.milp.export_model`` writes,
so a test can check the export by round trip; ``models_equivalent``
compares two models by name.
"""

from __future__ import annotations

import numpy as np

from frequc.milp import MilpModel

_SENSE_TOKENS = {"<=": "<=", "=<": "<=", "<": "<=", ">=": ">=", "=>": ">=", ">": ">=", "=": "="}


class LpioError(ValueError):
    """Malformed LP text."""


# -- LP parsing ----------------------------------------------------------------


def _strip_comments(text: str) -> str:
    lines = []
    for line in text.splitlines():
        cut = line.find("\\")
        lines.append(line if cut < 0 else line[:cut])
    return "\n".join(lines)


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _split_sections(text: str) -> dict[str, list[str]]:
    """Break LP text into section -> token list (bounds kept line-oriented)."""
    body = _strip_comments(text)
    lower = body.lower()
    markers = []
    for kw, canon in [("minimize", "objective"), ("maximize", "maximize"),
                      ("subject to", "rows"), ("such that", "rows"),
                      ("s.t.", "rows"), ("st.", "rows"),
                      ("bounds", "bounds"), ("binaries", "binaries"),
                      ("binary", "binaries"), ("general", "general"),
                      ("end", "end")]:
        start = 0
        while True:
            pos = lower.find(kw, start)
            if pos < 0:
                break
            pre = lower[pos - 1] if pos > 0 else "\n"
            post = lower[pos + len(kw)] if pos + len(kw) < len(lower) else "\n"
            if pre in "\n\r\t " and post in "\n\r\t ":
                markers.append((pos, pos + len(kw), canon))
                start = pos + len(kw)
            else:
                start = pos + 1
    markers.sort()
    sections: dict[str, list[str]] = {}
    for k, (pos, endpos, canon) in enumerate(markers):
        chunk_end = markers[k + 1][0] if k + 1 < len(markers) else len(body)
        chunk = body[endpos:chunk_end]
        if canon == "bounds":
            sections.setdefault("bounds_lines", []).extend(
                [ln.strip() for ln in chunk.splitlines() if ln.strip()])
        else:
            sections.setdefault(canon, []).extend(chunk.split())
    return sections


def _parse_terms(tokens: list[str], pos: int, stop_tokens: set[str]):
    """Parse [sign] [coeff] name ... until a stop token; returns (coeffs_by_name,
    constant, next_pos)."""
    coeffs: dict[str, float] = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in stop_tokens:
            break
        if tok == "+":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = 1.0
        elif tok == "-":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = -1.0
        elif _is_number(tok):
            if pending is not None:
                constant += sign * pending
            pending = float(tok)
        else:
            coeff = sign * (pending if pending is not None else 1.0)
            coeffs[tok] = coeffs.get(tok, 0.0) + coeff
            pending = None
            sign = 1.0
        pos += 1
    if pending is not None:
        constant += sign * pending
    return coeffs, constant, pos


def import_model(text: str, name: str = "imported") -> MilpModel:
    """Parse LP-format text produced by :func:`export_model`."""
    sections = _split_sections(text)
    if "maximize" in sections:
        raise LpioError("only Minimize problems are supported")
    if "general" in sections:
        raise LpioError("general integer variables are not supported")
    if "objective" not in sections:
        raise LpioError("missing Minimize section")

    bounds: dict[str, tuple[float, float]] = {}
    for line in sections.get("bounds_lines", []):
        toks = line.split()
        # forms: "l <= name <= u", "name <= u", "name >= l", "name = v"
        if len(toks) == 5 and toks[1] in _SENSE_TOKENS and toks[3] in _SENSE_TOKENS:
            bounds[toks[2]] = (float(toks[0]), float(toks[4]))
        elif len(toks) == 3 and toks[1] in _SENSE_TOKENS:
            sense = _SENSE_TOKENS[toks[1]]
            if _is_number(toks[0]):
                name_, val = toks[2], float(toks[0])
                lo, hi = bounds.get(name_, (0.0, np.inf))
                bounds[name_] = (val, hi) if sense == "<=" else ((lo, val) if sense == ">=" else (val, val))
            else:
                name_, val = toks[0], float(toks[2])
                lo, hi = bounds.get(name_, (0.0, np.inf))
                if sense == "<=":
                    bounds[name_] = (lo, val)
                elif sense == ">=":
                    bounds[name_] = (val, hi)
                else:
                    bounds[name_] = (val, val)
        else:
            raise LpioError(f"unparsable bounds line: {line!r}")

    binaries = set(sections.get("binaries", []))

    obj_tokens = sections["objective"]
    pos = 0
    if obj_tokens and obj_tokens[0].endswith(":"):
        pos = 1
    obj_by_name, obj_const, _ = _parse_terms(obj_tokens, pos, set())
    if obj_const != 0.0:
        raise LpioError("objective: a constant term has no place in a model")

    rows: list[tuple[str, dict[str, float], str, float]] = []
    row_tokens = sections.get("rows", [])
    pos = 0
    auto = 0
    while pos < len(row_tokens):
        label = ""
        if row_tokens[pos].endswith(":") and len(row_tokens[pos]) > 1:
            label = row_tokens[pos][:-1]
            pos += 1
        else:
            label = f"r{auto}"
        auto += 1
        coeffs, const, pos = _parse_terms(row_tokens, pos, set(_SENSE_TOKENS))
        if pos >= len(row_tokens):
            raise LpioError(f"row {label!r}: missing sense")
        sense = _SENSE_TOKENS[row_tokens[pos]]
        pos += 1
        if pos >= len(row_tokens) or not _is_number(row_tokens[pos]):
            raise LpioError(f"row {label!r}: missing right-hand side")
        rhs = float(row_tokens[pos]) - const
        pos += 1
        rows.append((label, coeffs, sense, rhs))

    ordered: list[str] = []
    seen: set[str] = set()
    for nm in list(obj_by_name) + [nm for _, cf, _, _ in rows for nm in cf] + list(bounds):
        if nm not in seen:
            seen.add(nm)
            ordered.append(nm)

    model = MilpModel(name)
    for nm in ordered:
        lo, hi = bounds.get(nm, (0.0, 1.0) if nm in binaries else (0.0, np.inf))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise LpioError(f"variable {nm}: unbounded after parsing")
        model.add_variable(nm, lo, hi, integer=nm in binaries)
    name_to_idx = {nm: k for k, nm in enumerate(ordered)}
    model.set_objective({name_to_idx[nm]: v for nm, v in obj_by_name.items()})
    for label, coeffs, sense, rhs in rows:
        for nm in coeffs:
            if nm not in name_to_idx:
                raise LpioError(f"row {label!r}: unknown variable {nm!r}")
        model.add_row({name_to_idx[nm]: v for nm, v in coeffs.items()}, sense, rhs, label)
    return model


def models_equivalent(m1: MilpModel, m2: MilpModel, tol: float = 1e-12) -> bool:
    """Structural equality by name: variables, bounds, rows, objective."""
    n1 = {nm: j for j, nm in enumerate(m1.names)}
    n2 = {nm: j for j, nm in enumerate(m2.names)}
    if set(n1) != set(n2):
        return False
    for nm, j in n1.items():
        k = n2[nm]
        if (abs(m1.lb[j] - m2.lb[k]) > tol or abs(m1.ub[j] - m2.ub[k]) > tol
                or m1.integrality[j] != m2.integrality[k]):
            return False

    def named(model, coeffs):
        return {model.names[j]: c for j, c in coeffs.items() if c != 0.0}

    o1, o2 = named(m1, m1.objective), named(m2, m2.objective)
    if set(o1) != set(o2) or any(abs(o1[k] - o2[k]) > tol for k in o1):
        return False
    if len(m1.rows) != len(m2.rows):
        return False
    rows2 = {r.label: r for r in m2.rows}
    for r in m1.rows:
        s = rows2.get(r.label)
        if s is None or s.sense != r.sense or abs(s.rhs - r.rhs) > tol:
            return False
        c1, c2 = named(m1, r.coeffs), named(m2, s.coeffs)
        if set(c1) != set(c2) or any(abs(c1[k] - c2[k]) > tol for k in c1):
            return False
    return True

