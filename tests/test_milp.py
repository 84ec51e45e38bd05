import ast
import copy
import dataclasses
import itertools
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frequc.cli import _scale_wind
from frequc.milp import (LinearRow, MilpModel, ModelError, SolverError,
                         branch_bound, solve)
from frequc.scheduler import LOSS_MODES, UcOptions, build_uc
from frequc.sysmodel import (build_scenario_tree, load_scenario_table,
                             load_system)
from reference.oracle import dense_rows, solve_exhaustive
from reference.recheck import check_feasible_loop
from reference.scipy_milp import solve_with_scipy
from reference.simplex import solve_lp

ROOT = Path(__file__).resolve().parent.parent


def knapsack_model():
    # max 5a + 4b + 3c  s.t. 2a + 3b + c <= 4  -> minimize the negation
    mdl = MilpModel()
    mdl.add_binary("a")
    mdl.add_binary("b")
    mdl.add_binary("c")
    mdl.add_row({0: 2.0, 1: 3.0, 2: 1.0}, "<=", 4.0, label="cap")
    mdl.set_objective({0: -5.0, 1: -4.0, 2: -3.0})
    return mdl


def test_model_rejects_infinite_bounds():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, np.inf)
    with pytest.raises(ModelError, match="^variable x: non-finite bounds$"):
        mdl.compile()


def test_model_rejects_duplicate_names():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_continuous("x", 0.0, 2.0)
    with pytest.raises(ModelError, match="^duplicate variable name: x$"):
        mdl.compile()


def test_model_rejects_unknown_index_in_row():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_row({3: 1.0}, "<=", 1.0)
    with pytest.raises(ModelError, match="^row '': unknown variable index 3$"):
        mdl.compile()


@pytest.mark.parametrize("j", [-1, 2, 7])
def test_an_objective_index_outside_the_columns_fails_at_compile(j):
    """Checked by the layout: ``-1`` would otherwise name the last column."""
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_continuous("y", 0.0, 1.0)
    mdl.set_objective({0: 1.0, j: 2.0})
    with pytest.raises(ModelError,
                       match=f"^objective: unknown variable index {j}$"):
        mdl.compile()


def test_validate_flags_non_binary_integer():
    mdl = MilpModel()
    mdl.add_variable("k", 0.0, 3.0, integer=True)
    with pytest.raises(ModelError):
        mdl.compile()


def test_check_feasible_reports_violated_rows():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 10.0)
    mdl.add_row({0: 1.0}, "<=", 2.0, label="cap")
    bad = mdl.compile().check_feasible(np.array([5.0]))
    assert bad and "cap" in bad[0]
    assert mdl.compile().check_feasible(np.array([1.5])) == []


def test_solve_lp_two_variable_corner():
    # min -x - 2y  s.t. x + y <= 4, y <= 3, box [0, 10]
    c = np.array([-1.0, -2.0])
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    senses = np.array([0, 0])
    rhs = np.array([4.0, 3.0])
    lb = np.zeros(2)
    ub = np.full(2, 10.0)
    res = solve_lp(c, a, senses, rhs, lb, ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-7.0, abs=1e-9)
    assert res.x == pytest.approx([1.0, 3.0], abs=1e-9)


def test_solve_lp_negative_and_fixed_bounds():
    # a fixed variable plus bounds straddling zero; optimum sits at corners
    c = np.array([-1.0, 0.0, 0.0, 0.0])
    a = np.array([
        [-1.0, 0.0, 3.0, 0.0],
        [2.0, -3.0, 1.0, -1.0],
        [0.0, 2.0, 0.0, 0.0],
    ])
    senses = np.array([0, 1, 0])
    rhs = np.array([-6.0, 5.0, 2.0])
    lb = np.array([1.0, -3.0, -2.0, -4.0])
    ub = np.array([3.0, -3.0, 2.0, 1.0])
    res = solve_lp(c, a, senses, rhs, lb, ub)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-3.0, abs=1e-9)
    act = a @ res.x
    assert act[0] <= rhs[0] + 1e-9
    assert act[1] >= rhs[1] - 1e-9
    assert act[2] <= rhs[2] + 1e-9


def test_solve_lp_detects_infeasible_rows():
    c = np.array([1.0])
    a = np.array([[1.0], [1.0]])
    senses = np.array([1, 0])  # x >= 5 and x <= 2
    rhs = np.array([5.0, 2.0])
    res = solve_lp(c, a, senses, rhs, np.array([0.0]), np.array([10.0]))
    assert res.status == "infeasible"


def test_solve_lp_no_rows_is_box_minimum():
    c = np.array([3.0, -2.0])
    res = solve_lp(
        c,
        np.zeros((0, 2)),
        np.zeros(0, dtype=np.int64),
        np.zeros(0),
        np.array([-1.0, -1.0]),
        np.array([2.0, 2.0]),
    )
    assert res.status == "optimal"
    assert res.x == pytest.approx([-1.0, 2.0])


def test_knapsack_optimum():
    mdl = knapsack_model()
    got = solve(mdl)
    assert got.status == "optimal"
    # best pick is items a and c (value 8); a+b already exceeds the capacity
    assert got.objective == pytest.approx(-8.0, abs=1e-8)
    assert got.values[0] == pytest.approx(1.0)
    assert got.values[1] == pytest.approx(0.0)
    assert got.values[2] == pytest.approx(1.0)
    assert not got.violations


def test_knapsack_backends_agree():
    mdl = knapsack_model()
    highs = solve(mdl)
    brute = solve_exhaustive(mdl)
    assert highs.status == brute.status == "optimal"
    assert highs.objective == pytest.approx(brute.objective, abs=1e-8)


def test_row_breaking_solution_is_not_optimal(monkeypatch):
    """The re-check overrules a solver that reports a broken point optimal."""
    real_run = branch_bound.run_highs

    def broken_run(*args, **kwargs):
        sol = real_run(*args, **kwargs)
        sol.values = np.ones_like(sol.values)  # takes every item: 2 + 3 + 1 > 4
        return sol

    monkeypatch.setattr(branch_bound, "run_highs", broken_run)
    got = solve(knapsack_model())
    assert got.status == "violated"
    assert len(got.violations) == 1 and "cap" in got.violations[0]


def test_infeasible_milp_reported_by_all_routes():
    mdl = MilpModel()
    mdl.add_binary("a")
    mdl.add_binary("b")
    mdl.add_row({0: 1.0, 1: 1.0}, ">=", 3.0)
    mdl.set_objective({0: 1.0})
    assert solve(mdl).status == "infeasible"
    assert solve_exhaustive(mdl).status == "infeasible"


def test_node_limit_returns_limit_status(monkeypatch):
    """Two-sided split rows on 30 binaries: HiGHS cannot close the root
    node, finds its first point after some 50 nodes and stops at the limit
    with it, far from the bound.  ``solve`` reports the MILP call's answer,
    binaries rounded."""
    rng = np.random.default_rng(1)
    mdl = MilpModel()
    for j in range(30):
        mdl.add_binary(f"b{j}")
    for i in range(2):
        w = rng.integers(0, 100, 30)
        half = float(w.sum() // 2)
        coeffs = {j: float(w[j]) for j in range(30)}
        mdl.add_row(coeffs, "<=", half, label=f"hi{i}")
        mdl.add_row(coeffs, ">=", half - 3.0, label=f"lo{i}")
    mdl.set_objective({j: float(rng.integers(-60, -1)) for j in range(30)})
    monkeypatch.setattr(branch_bound, "MAX_NODES", 100)
    monkeypatch.setattr(branch_bound, "OPT_GAP", 0.0)
    got = solve(mdl)
    assert got.status == "limit"
    assert got.objective is not None and not got.violations
    # the reported dual bound must underestimate (or match) any incumbent
    assert got.bound <= got.objective + 1e-9
    compiled = mdl.compile()
    mip = branch_bound.run_highs(compiled, compiled.integrality)
    assert_same_solution(got, dataclasses.replace(
        mip, values=rounded(mip, compiled)))


def test_exhaustive_rejects_large_binary_count():
    mdl = MilpModel()
    for j in range(21):
        mdl.add_binary(f"b{j}")
    mdl.set_objective({0: 1.0})
    with pytest.raises(ValueError):
        solve_exhaustive(mdl)


def test_solver_is_deterministic():
    rng = np.random.default_rng(17)
    mdl = MilpModel()
    for j in range(6):
        mdl.add_binary(f"b{j}")
    for j in range(3):
        mdl.add_continuous(f"c{j}", -2.0, 5.0)
    for i in range(5):
        coeffs = {j: float(rng.integers(-3, 4)) for j in range(9) if rng.random() < 0.6}
        coeffs = {j: v for j, v in coeffs.items() if v}
        if coeffs:
            mdl.add_row(coeffs, ["<=", ">="][i % 2], float(rng.integers(-4, 7)))
    mdl.set_objective({j: float(rng.integers(-3, 4)) for j in range(9)})
    first = solve(mdl)
    second = solve(mdl)
    assert first.status == second.status == "optimal"
    assert first.nodes == second.nodes
    assert np.array_equal(first.values, second.values)
    assert first.objective == second.objective


def random_model(rng):
    n_bin = int(rng.integers(0, 7))
    n_cont = int(rng.integers(1, 4))
    mdl = MilpModel()
    for j in range(n_bin):
        mdl.add_binary(f"b{j}")
    for j in range(n_cont):
        lo = float(rng.integers(-4, 1))
        mdl.add_continuous(f"c{j}", lo, lo + float(rng.integers(0, 7)))
    n = n_bin + n_cont
    for i in range(int(rng.integers(1, 6))):
        coeffs = {}
        for j in range(n):
            if rng.random() < 0.6:
                v = float(rng.integers(-3, 4))
                if v:
                    coeffs[j] = v
        if coeffs:
            sense = ["<=", ">=", "="][rng.integers(0, 3)]
            mdl.add_row(coeffs, sense, float(rng.integers(-6, 7)))
    mdl.set_objective({j: float(rng.integers(-3, 4)) for j in range(n)})
    return mdl


def test_branch_bound_matches_exhaustive_on_random_models():
    """Cross-check HiGHS against brute-force enumeration."""
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(40):
        mdl = random_model(rng)
        bb = solve(mdl)
        brute = solve_exhaustive(mdl)
        assert bb.status == brute.status
        if bb.status == "optimal":
            scale = max(1.0, abs(brute.objective))
            assert abs(bb.objective - brute.objective) <= 1e-6 * scale
            assert not bb.violations
            checked += 1
    assert checked >= 10


# -- the compiled model ----------------------------------------------------


def malformed_models():
    """Models that break each check of ``compile``, built past the checks
    of ``add_*`` (except the non-binary integer, which they allow): rows
    are added sound, then their block is edited in place."""
    infinite = MilpModel()
    infinite.add_continuous("x", 0.0, 1.0)
    infinite.ub[0] = np.inf
    duplicate = MilpModel()
    duplicate.add_continuous("x", 0.0, 1.0)
    duplicate.add_continuous("y", 0.0, 2.0)
    duplicate.names[1] = "x"
    empty = MilpModel()
    empty.add_continuous("x", 0.0, 1.0)
    empty.lb[0] = 2.0
    edits = {"unknown index": ("cols", 3), "negative index": ("cols", -1),
             "bad sense": ("sense", 7), "infinite rhs": ("rhs", np.inf),
             "nan coefficient": ("vals", np.nan)}
    models = {}
    for case, (field, value) in edits.items():
        mdl = MilpModel()
        mdl.add_continuous("x", 0.0, 1.0)
        mdl.add_row({0: 1.0}, "<=", 1.0, "r")
        getattr(mdl.blocks[0], field).flat[0] = value
        models[case] = mdl
    non_binary = MilpModel()
    non_binary.add_variable("k", 0.0, 3.0, integer=True)
    return {"infinite bounds": infinite, "duplicate name": duplicate,
            "empty interval": empty, "non-binary integer": non_binary,
            **models}


@pytest.mark.parametrize("case", sorted(malformed_models()))
def test_malformed_models_raise_through_solve(case):
    model = malformed_models()[case]
    with pytest.raises(ModelError):
        model.compile()
    with pytest.raises(ModelError):
        solve(model)


def test_validate_names_the_first_offender():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_continuous("y", 0.0, 1.0)
    mdl.add_row({0: 1.0}, "<=", 1.0, "ok")
    mdl.add_rows([[0, 1], [1, 0], [0, 1]],
                 [[1.0, 0.0], [1.0, 2.0], [1.0, 0.0]], "<=", 1.0,
                 ["early_sense", "late_index", "later_sense"])
    block = mdl.blocks[-1]
    block.cols[1, 1] = 5
    block.sense[2] = 9
    with pytest.raises(ModelError, match="late_index.*index 5"):
        mdl.compile()
    block.sense[0] = 9
    with pytest.raises(ModelError, match="early_sense.*sense"):
        mdl.compile()
    mdl.lb[1] = 4.0
    with pytest.raises(ModelError, match="variable y: empty"):
        mdl.compile()


def random_compiled_case(rng):
    """A model with empty rows, explicit zero coefficients, fixed columns
    and float coefficients, and a point near (and often off) its bounds.
    Its rows go in by ``add_row`` or, a few at a time, by ``add_rows`` with
    zero-coefficient padding; the rows meant are returned as well."""
    mdl = MilpModel()
    n = int(rng.integers(1, 9))
    for j in range(n):
        if rng.random() < 0.4:
            mdl.add_binary(f"b{j}")
        else:
            lo = float(rng.normal(0.0, 3.0))
            mdl.add_continuous(f"c{j}", lo, lo + float(rng.exponential(2.0)))
        if rng.random() < 0.3:
            value = mdl.lb[j] if rng.random() < 0.5 else mdl.ub[j]
            mdl.lb[j] = mdl.ub[j] = value
    rows = []
    for i in range(int(rng.integers(0, 8))):
        coeffs = {int(j): float(rng.normal()) for j in rng.permutation(n)
                  if rng.random() < 0.5}
        if coeffs and rng.random() < 0.3:
            coeffs[next(iter(coeffs))] = 0.0  # stored, dropped when read
        sense = ("<=", ">=", "=")[rng.integers(0, 3)]
        rows.append(LinearRow(coeffs, sense, float(rng.normal(0.0, 5.0)),
                              f"r{i}"))
    i = 0
    while i < len(rows):
        group = rows[i:i + int(rng.integers(1, 4))]
        i += len(group)
        if len(group) == 1 and rng.random() < 0.5:
            row = group[0]
            mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
            continue
        k = max(len(row.coeffs) for row in group) + int(rng.integers(0, 2))
        cols = rng.integers(0, n, (len(group), k))
        vals = np.zeros((len(group), k))
        for r, row in enumerate(group):
            cols[r, :len(row.coeffs)] = list(row.coeffs)
            vals[r, :len(row.coeffs)] = list(row.coeffs.values())
        mdl.add_rows(cols, vals, [row.sense for row in group],
                     [row.rhs for row in group], [row.label for row in group])
    mdl.set_objective({j: float(rng.normal()) for j in range(n)})
    x = rng.uniform(mdl.lb - 1.0, mdl.ub + 1.0)
    snap = rng.random(n) < 0.3
    x[snap] = np.round(x[snap])
    return mdl, x, rows


def test_compiled_arrays_equal_the_dense_reference():
    rng = np.random.default_rng(404)
    for _ in range(200):
        mdl, _, rows = random_compiled_case(rng)
        assert [(dict(r.coeffs), r.sense, r.rhs, r.label) for r in mdl.rows] \
            == [({j: c for j, c in r.coeffs.items() if c != 0.0}, r.sense,
                 r.rhs, r.label) for r in rows]
        compiled = mdl.compile()
        assert np.all(compiled.a.data != 0.0)
        a, senses, rhs = dense_rows(mdl)
        assert compiled.a.shape == a.shape
        assert np.array_equal(compiled.a.toarray(), a)
        assert np.array_equal(compiled.lo, np.where(senses == 0, -np.inf, rhs))
        assert np.array_equal(compiled.hi, np.where(senses == 1, np.inf, rhs))
        assert np.array_equal(compiled.lb, mdl.lb)
        assert np.array_equal(compiled.ub, mdl.ub)
        assert np.array_equal(compiled.integrality,
                              [name.startswith("b") for name in mdl.names])
        assert compiled.lb is not mdl.lb and compiled.ub is not mdl.ub
        c = np.zeros(mdl.n_vars)
        for j, v in mdl.objective.items():
            c[j] = v
        assert np.array_equal(compiled.c, c)


def test_check_feasible_matches_the_loop_reference():
    rng = np.random.default_rng(505)
    kinds = Counter()
    for _ in range(300):
        mdl, x, _ = random_compiled_case(rng)
        compiled = mdl.compile()
        inside = np.clip(x, compiled.lb, compiled.ub)
        for point in (x, inside):
            for tol in (1e-6, 0.5):
                expected = check_feasible_loop(mdl, point, tol)
                assert compiled.check_feasible(point, tol) == expected
                kinds.update(msg.split()[0] for msg in expected)
                kinds["clean"] += not expected
    assert min(kinds[k] for k in ("bound", "integrality", "row", "clean")) >= 50


# -- row blocks and block variables --------------------------------------


def test_add_rows_matches_add_row_and_drops_zeros():
    """A block reads back, labels included, as the same rows added one by
    one; zero coefficients (padding or not) are dropped on both paths."""
    rows = [({0: 1.0, 2: 0.0, 1: -2.0}, "<=", 3.0, "a[0]"),
            ({2: 4.0}, ">=", -1.0, "b[1]"),
            ({}, "=", 0.0, "c[2]")]
    single, block = MilpModel(), MilpModel()
    for mdl in (single, block):
        for j in range(3):
            mdl.add_continuous(f"x{j}", -5.0, 5.0)
    for coeffs, sense, rhs, label in rows:
        single.add_row(coeffs, sense, rhs, label)
    added = block.add_rows(
        [[0, 2, 1], [2, 2, 2], [1, 1, 1]],
        [[1.0, 0.0, -2.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        ["<=", ">=", "="], [3.0, -1.0, 0.0], ("a[0]", "b[1]", "c[2]"))
    assert list(added) == [0, 1, 2] and block.n_rows == 3
    assert list(single.rows) == list(block.rows) == [
        LinearRow({0: 1.0, 1: -2.0}, "<=", 3.0, "a[0]"),
        LinearRow({2: 4.0}, ">=", -1.0, "b[1]"),
        LinearRow({}, "=", 0.0, "c[2]")]
    assert [len(row.coeffs) for row in block.rows] == [2, 1, 0]
    assert list(block.rows[0].coeffs.items()) == [(0, 1.0), (1, -2.0)]
    assert len(block.rows) == 3 and block.rows[-1].label == "c[2]"
    compiled = block.compile()
    assert [compiled.model.row_label(i) for i in range(3)] == \
        ["a[0]", "b[1]", "c[2]"]
    a, b = single.compile().a, compiled.a
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert b.nnz == 3


@pytest.mark.parametrize("edit, message", [
    (("sense", 1, "=<"), "row 'r1': unknown sense '=<'"),
    (("rhs", 1, np.nan), "row 'r1': right-hand side must be finite"),
    (("cols", (1, 1), 3), "row 'r1': unknown variable index 3"),
    (("cols", (1, 0), -1), "row 'r1': unknown variable index -1"),
    (("vals", (1, 0), np.inf), "row 'r1': non-finite coefficient on index 0"),
    # a zero coefficient's index is checked too
    (("cols", (1, 1), 7), "row 'r1': unknown variable index 7"),
])
def test_add_rows_names_the_first_malformed_row(edit, message):
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_continuous("y", 0.0, 1.0)
    cols = np.array([[0, 1], [0, 1], [1, 0]])
    vals = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    sense = np.array(["<=", ">=", "="])
    rhs = np.ones(3)
    field, at, value = edit
    {"cols": cols, "vals": vals, "sense": sense, "rhs": rhs}[field][at] = value
    # a later bad row is not the one reported
    cols[2, 0] = 9
    if field == "sense":  # no block can be formed
        with pytest.raises(ModelError) as err:
            mdl.add_rows(cols, vals, sense, rhs, ["r0", "r1", "r2"])
        assert not mdl.blocks
    else:
        mdl.add_rows(cols, vals, sense, rhs, ["r0", "r1", "r2"])
        with pytest.raises(ModelError) as err:
            mdl.compile()
    assert str(err.value) == message


def test_add_row_keeps_its_checks():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ModelError, match="'s': unknown sense '<>'"):
        mdl.add_row({0: 1.0}, "<>", 1.0, "s")
    with pytest.raises(ModelError, match="expected two equal"):
        mdl.add_rows([[0]], [[1.0, 2.0]], "<=", 1.0, ["shape"])
    with pytest.raises(ModelError, match="2 labels for 1 rows"):
        mdl.add_rows([[0]], [[1.0]], "<=", 1.0, ["one", "two"])
    assert mdl.n_rows == 0
    # the rows' numbers and indices are checked when the model compiles
    for coeffs, rhs, message in [
            ({0: 1.0}, np.inf, "'h': right-hand side must be finite"),
            ({0: 1.0, 4: 0.0}, 1.0, "'z': unknown variable index 4"),
            ({0: np.nan}, 1.0, "'n': non-finite coefficient on index 0")]:
        bad = copy.deepcopy(mdl)
        bad.add_row(coeffs, "<=", rhs, message[1])
        with pytest.raises(ModelError, match=message):
            bad.compile()


def test_add_variables_keeps_the_checks_of_add_variable():
    mdl = MilpModel()
    mdl.add_continuous("a", 0.0, 1.0)
    got = mdl.add_variables(["b", "c", "d"], [0.0, -1.0, 2.0], 3.0,
                            integer=[False, False, True])
    assert got.tolist() == [1, 2, 3]
    assert mdl.names == ["a", "b", "c", "d"]
    assert mdl.lb.tolist() == [0.0, 0.0, -1.0, 2.0]
    assert mdl.ub.tolist() == [1.0, 3.0, 3.0, 3.0]
    assert mdl.integrality.tolist() == [0, 0, 0, 1]
    assert mdl.lb.dtype == mdl.ub.dtype == np.float64
    assert mdl.integrality.dtype == np.uint8
    assert mdl.names.index("c") == 2
    # a bad column is collected, and compiling names the first
    with pytest.raises(ModelError,
                       match="^variable d: integer variables must be binary$"):
        mdl.compile()
    for names, lb, ub, message in [
            (["e", "a"], 0.0, 1.0, "duplicate variable name: a"),
            (["e", "e"], 0.0, 1.0, "duplicate variable name: e"),
            (["e", "f"], [0.0, -np.inf], 1.0, "variable f: non-finite bounds"),
            (["e", "f"], [0.0, 2.0], 1.0, "variable f: empty bound interval"),
    ]:
        bad = MilpModel()
        bad.add_continuous("a", 0.0, 1.0)
        assert bad.add_variables(names, lb, ub).tolist() == [1, 2]
        assert bad.lb.size == bad.ub.size == bad.integrality.size == 3
        with pytest.raises(ModelError, match=f"^{message}$"):
            bad.compile()


def test_recheck_flags_nan(monkeypatch):
    """A NaN value breaks its bounds and every row it enters."""
    mdl = MilpModel()
    mdl.add_binary("b")
    mdl.add_continuous("c", 0.0, 4.0)
    mdl.add_row({0: 1.0, 1: 1.0}, "<=", 3.0, label="cap")
    mdl.set_objective({0: -1.0, 1: -1.0})
    point = np.array([0.0, np.nan])
    bad = mdl.compile().check_feasible(point)
    assert bad == check_feasible_loop(mdl, point)
    assert bad == ["bound c: nan outside [0.0, 4.0]", "row cap: nan > 3.0"]
    assert check_feasible_loop(mdl, np.array([np.nan, 0.0]))[:2] == [
        "bound b: nan outside [0.0, 1.0]", "integrality b: nan"]

    real_run = branch_bound.run_highs

    def nan_run(*args, **kwargs):
        sol = real_run(*args, **kwargs)
        sol.values[1] = np.nan
        return sol

    monkeypatch.setattr(branch_bound, "run_highs", nan_run)
    got = solve(mdl)
    assert got.status == "violated" and got.violations == bad


# -- the call into HiGHS ---------------------------------------------------


def solve_through_scipy(monkeypatch, model):
    """``solve`` with HiGHS reached through ``scipy.optimize.milp``."""
    with monkeypatch.context() as patch:
        patch.setattr(branch_bound, "run_highs", solve_with_scipy)
        return solve(model)


def assert_same_solution(got, want):
    """Equal to the last bit: status, point, objective, bound, gap, nodes
    and re-check."""
    assert got.status == want.status
    assert (got.values is None) == (want.values is None)
    if want.values is not None:
        assert np.array_equal(got.values, want.values)
    assert (got.objective, got.bound, got.gap, got.nodes) == \
        (want.objective, want.bound, want.gap, want.nodes)
    assert got.violations == want.violations


def bundled(wind):
    """The bundled system and tree with ``wind`` MW of wind."""
    base = load_system(ROOT / "data" / "toy_system.yaml")
    levels, table = load_scenario_table(ROOT / "data" / "toy_scenarios.txt")
    return _scale_wind(base, build_scenario_tree(levels, table), wind)


def close_points(got, want):
    """Within 1e-9 of each other, relative to the size of each value."""
    return bool(np.all(np.abs(got - want)
                       <= 1e-9 * np.maximum(1.0, np.abs(want))))


def assert_same_optimum(got, want, compiled):
    """Two MILP optima of one model found by different searches: the same
    status, objective and integer columns, the continuous columns within
    1e-9, and ``got``'s bound and gap within ``OPT_GAP``.  Nodes and
    bound may differ."""
    assert got.status == want.status == "optimal"
    assert got.objective == want.objective
    integer = compiled.integrality > 0
    assert np.array_equal(np.round(got.values[integer]),
                          np.round(want.values[integer]))
    assert close_points(got.values[~integer], want.values[~integer])
    # HiGHS may report a bound one rounding above its objective
    assert got.bound <= got.objective + 1e-12 * max(1.0, abs(got.objective))
    assert 0.0 <= got.gap <= branch_bound.OPT_GAP


def rounded(sol, compiled):
    """``sol``'s point with its integer columns rounded, as ``solve``
    reports it."""
    values = sol.values.copy()
    integer = compiled.integrality > 0
    values[integer] = np.round(values[integer]) + 0.0
    return values


@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("wind", [700.0, 1850.0, 3000.0])
def test_direct_highs_matches_scipy_milp_on_bundled_windows(monkeypatch,
                                                            wind, mode):
    """Secured windows at 700 and 3000 MW; at 1850 MW unsecured windows
    whose LP relaxation is fractional, so that HiGHS's MIP search runs.
    The relaxation ``solve`` tries first must agree with
    ``scipy.optimize.milp`` on the same arrays bit for bit.  The MILP
    does not: ``scipy.optimize.milp`` runs the restarts and the
    heuristics ``run_highs`` turns off, so the two searches differ in
    their nodes and bound.  They must still agree in status, objective
    and integer columns, and within 1e-9 on every continuous column,
    relative to the size of each value; and ``run_highs``'s own bound
    and gap must hold its optimum within ``OPT_GAP``.  ``solve``'s answer
    is the MILP's optimum: within ``OPT_GAP``, and within 1e-9 of its
    point when the relaxation is the answer.  A window with every binary
    pinned is an LP: its answer is the relaxation's."""
    system, tree = bundled(wind)
    secured = wind != 1850.0
    windows = ([(4, 0), (4, 12)] + [(12, 0)] * (mode == "fixed") if secured
               else [(4, 8), (4, 16), (12, 0), (12, 12)])
    for horizon, start in windows:
        options = UcOptions(frequency_constraints=secured, horizon=horizon,
                            first_stage=horizon, largest_loss_mode=mode)
        model = build_uc(system, tree, options, start_period=start)
        compiled = model.compile()
        relaxed = np.zeros_like(compiled.integrality)
        lp = branch_bound.run_highs(compiled, relaxed)
        assert_same_solution(lp, solve_with_scipy(compiled, relaxed))
        assert lp.status == "optimal"
        got, calls = solve_counting(monkeypatch, model)
        assert got.status == "optimal" and got.violations == []
        # secured fixed-mode windows have every commitment pinned: an LP
        free = [j for j in model.binary_indices() if model.lb[j] != model.ub[j]]
        assert bool(free) == (mode == "optimised" or not secured)
        if not free:
            assert calls == [False]
            assert_same_solution(got, dataclasses.replace(
                lp, bound=lp.objective, values=rounded(lp, compiled)))
            continue
        if not secured:
            assert np.abs(lp.values[free] - np.round(lp.values[free])).max() \
                > 1e-3
        mip = branch_bound.run_highs(compiled, compiled.integrality)
        assert_same_optimum(mip, solve_with_scipy(compiled,
                                                  compiled.integrality),
                            compiled)
        assert abs(got.objective - mip.objective) \
            <= branch_bound.OPT_GAP * abs(mip.objective)
        if calls == [False]:  # the relaxation is the answer
            assert close_points(got.values, mip.values)
            assert_same_solution(got, dataclasses.replace(
                lp, bound=lp.objective, values=rounded(lp, compiled)))
        else:
            assert calls == [False, True]
            assert_same_solution(got, dataclasses.replace(
                mip, values=rounded(mip, compiled)))


def test_direct_highs_matches_scipy_milp_on_random_models(monkeypatch):
    """Random compiled models, as MILPs and, when every binary is pinned,
    as LPs, both feasible and not."""
    rng = np.random.default_rng(606)
    seen = Counter()
    for _ in range(150):
        mdl, _, _ = random_compiled_case(rng)
        got = solve(mdl)
        assert_same_solution(got, solve_through_scipy(monkeypatch, mdl))
        free = [j for j in mdl.binary_indices() if mdl.lb[j] != mdl.ub[j]]
        seen[got.status, "milp" if free else "lp"] += 1
    assert min(seen[status, kind] for status in ("optimal", "infeasible")
               for kind in ("milp", "lp")) >= 5


def test_unbounded_model_statuses_match_scipy_milp():
    """An infinite bound, which ``compile`` rejects, handed to HiGHS
    directly: the unbounded LP is "unbounded"; as a MILP HiGHS cannot tell
    it from infeasible, a "limit".  Neither has a point."""
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    mdl.add_binary("b")
    mdl.add_row({0: 1.0, 1: 1.0}, ">=", 0.5, "r")
    mdl.set_objective({0: -1.0})
    compiled = dataclasses.replace(mdl.compile(), ub=np.array([np.inf, 1.0]))
    for integrality, status in [(np.zeros(2, np.uint8), "unbounded"),
                                (compiled.integrality, "limit")]:
        got = branch_bound.run_highs(compiled, integrality)
        assert got.status == status and got.values is None
        assert_same_solution(got, solve_with_scipy(compiled, integrality))


def market_split(rows):
    """Equality knapsacks on 30 binaries: hard to find any point of."""
    rng = np.random.default_rng(1)
    mdl = MilpModel()
    for j in range(30):
        mdl.add_binary(f"b{j}")
    for i in range(rows):
        w = rng.integers(0, 100, 30)
        mdl.add_row({j: float(w[j]) for j in range(30)}, "=",
                    float(w.sum() // 2), label=f"split{i}")
    mdl.set_objective({j: 1.0 for j in range(30)})
    return mdl


def test_node_limit_without_an_incumbent_returns_no_point(monkeypatch):
    monkeypatch.setattr(branch_bound, "MAX_NODES", 1)
    monkeypatch.setattr(branch_bound, "OPT_GAP", 0.0)
    got = solve(market_split(4))
    assert got.status == "limit" and got.values is None
    assert got.objective is None and got.bound is None
    assert_same_solution(
        got, solve_through_scipy(monkeypatch, market_split(4)))


# -- the relaxation tried first ----------------------------------------------


def solve_counting(monkeypatch, model):
    """``solve`` and, per call into HiGHS, whether it was a MILP."""
    calls = []
    run = branch_bound.run_highs

    def counting(compiled, integrality, basis=None):
        calls.append(bool(integrality.any()))
        return run(compiled, integrality, basis)

    with monkeypatch.context() as patch:
        patch.setattr(branch_bound, "run_highs", counting)
        return solve(model), calls


@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("wind", [700.0, 1850.0, 3000.0])
def test_relaxation_first_matches_the_milp_on_bundled_windows(monkeypatch,
                                                               wind, mode):
    """Unsecured windows: an integral relaxation is taken as the answer, one
    LP with no nodes and no gap; a fractional one falls back to the MILP.
    Either way the answer is the MILP's, as one HiGHS call finds it."""
    system, tree = bundled(wind)
    taken = 0
    for horizon, start in [(4, 0), (4, 12), (12, 0)]:
        options = UcOptions(frequency_constraints=False, horizon=horizon,
                            first_stage=horizon, largest_loss_mode=mode)
        model = build_uc(system, tree, options, start_period=start)
        compiled = model.compile()
        want = branch_bound.run_highs(compiled, compiled.integrality)
        assert want.status == "optimal"
        got, calls = solve_counting(monkeypatch, model)
        assert got.status == want.status and got.violations == []
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=0)
        assert np.abs(got.values - want.values).max() <= 1e-9
        if calls == [False]:
            taken += 1
            assert (got.bound, got.gap, got.nodes) == (got.objective, 0.0, 0)
        else:
            assert calls == [False, True]
            assert_same_solution(got, dataclasses.replace(
                want, values=rounded(want, compiled)))
    assert taken >= 2


def fractional_knapsack():
    """Four binaries whose relaxation splits an item."""
    mdl = MilpModel()
    for j in range(4):
        mdl.add_binary(f"b{j}")
    mdl.add_row({0: 3.0, 1: 4.7, 2: 6.4, 3: 8.1}, "<=", 11.4, label="cap")
    mdl.add_row({0: 1.0, 1: 1.0, 2: 1.0}, "<=", 2.0, label="pick")
    mdl.set_objective({0: -5.0, 1: -8.3, 2: -11.6, 3: -11.9})
    return mdl


def test_fractional_relaxation_falls_back_to_the_milp(monkeypatch):
    mdl = fractional_knapsack()
    compiled = mdl.compile()
    lp = branch_bound.run_highs(compiled, np.zeros_like(compiled.integrality))
    assert lp.status == "optimal"
    assert np.abs(lp.values - np.round(lp.values)).max() > 1e-3
    got, calls = solve_counting(monkeypatch, mdl)
    assert calls == [False, True]
    assert got.status == "optimal" and got.nodes >= 1
    # the relaxation's work and basis are the solve's too
    mip = branch_bound.run_highs(compiled, compiled.integrality)
    assert got.iterations == lp.iterations + mip.iterations
    assert lp.basis is not None and mip.basis is None
    assert got.basis is not None
    brute = solve_exhaustive(mdl)
    assert got.objective == pytest.approx(brute.objective, abs=1e-9)
    assert np.array_equal(got.values, brute.values)
    assert_same_solution(got, solve(mdl))


def test_infeasible_relaxation_falls_back_to_infeasible(monkeypatch):
    mdl = MilpModel()
    mdl.add_binary("a")
    mdl.add_continuous("y", 0.0, 1.0)
    mdl.add_row({0: 1.0, 1: 1.0}, ">=", 2.5, label="over")
    got, calls = solve_counting(monkeypatch, mdl)
    assert calls == [False, True]
    assert got.status == "infeasible" and got.values is None
    assert_same_solution(got, solve(mdl))


def test_relaxation_starts_from_a_given_basis():
    """A solve started from the basis of its own optimal relaxation needs
    no simplex iteration and finds the same answer; a cold one needs
    some."""
    mdl = knapsack_model()
    cold = solve(mdl)
    assert cold.status == "optimal" and cold.nodes == 0
    assert cold.iterations > 0 and cold.basis is not None
    warm = solve(mdl, basis=cold.basis)
    assert warm.iterations == 0
    assert_same_solution(warm, cold)


def test_rejected_basis_raises_solver_error():
    """A basis of another shape is refused by HiGHS: a solver failure,
    not a status."""
    basis = solve(knapsack_model()).basis
    other = fractional_knapsack()
    compiled = other.compile()
    with pytest.raises(SolverError, match="rejected the starting basis"):
        branch_bound.run_highs(compiled, np.zeros_like(compiled.integrality),
                               basis)
    with pytest.raises(SolverError, match="rejected the starting basis"):
        solve(other, basis=basis)


def test_run_highs_turns_feasibility_jump_off(monkeypatch):
    """Every HiGHS instance ``run_highs`` makes, for an LP or a MIP, is
    told not to run feasibility jump, the root reduced-cost, RINS or RENS
    heuristics, nor to restart the MIP at the root, and takes each
    setting."""
    from scipy.optimize._highspy import _core

    made = []

    class Recording:
        """Forwards every call to a real ``_Highs`` and records the
        options set on it."""

        def __init__(self):
            self.highs, self.options = real(), []
            made.append(self)

        def setOptionValue(self, name, value):
            status = self.highs.setOptionValue(name, value)
            self.options.append((name, value, status))
            return status

        def __getattr__(self, name):
            return getattr(self.highs, name)

    real = _core._Highs
    monkeypatch.setattr(_core, "_Highs", Recording)
    got, calls = solve_counting(monkeypatch, fractional_knapsack())
    assert got.status == "optimal" and calls == [False, True]
    assert len(made) == 2
    for highs, name in itertools.product(made, (
            "mip_heuristic_run_feasibility_jump", "mip_allow_restart",
            "mip_heuristic_run_root_reduced_cost", "mip_heuristic_run_rins",
            "mip_heuristic_run_rens")):
        assert (name, False, _core.HighsStatus.kOk) in highs.options
        assert highs.highs.getOptionValue(name) == (_core.HighsStatus.kOk,
                                                    False)


@pytest.mark.parametrize("options, name", [
    ({"OPT_GAP": -1.0}, "mip_rel_gap"),
    ({"MAX_NODES": -1}, "mip_max_nodes"),
])
def test_rejected_option_raises_solver_error(monkeypatch, options, name):
    for constant, value in options.items():
        monkeypatch.setattr(branch_bound, constant, value)
    with pytest.raises(SolverError, match=f"option {name}"):
        solve(knapsack_model())


def test_rejected_model_raises_solver_error():
    """HiGHS refuses an infinite coefficient, which ``compile`` never
    produces; the refusal is a solver failure, not a status."""
    compiled = knapsack_model().compile()
    compiled.a.data[0] = np.inf
    with pytest.raises(SolverError, match="rejected the model"):
        branch_bound.run_highs(compiled, compiled.integrality)


def test_solve_writes_nothing_to_the_terminal(capfd, monkeypatch):
    """HiGHS logs from C, so its silence is checked on the file
    descriptors."""
    solve(knapsack_model())
    with monkeypatch.context() as patch:
        patch.setattr(branch_bound, "MAX_NODES", 1)
        assert solve(market_split(4)).status == "limit"
    infeasible = MilpModel()
    infeasible.add_binary("a")
    infeasible.add_row({0: 1.0}, ">=", 2.0)
    assert solve(infeasible).status == "infeasible"
    assert capfd.readouterr() == ("", "")


def package_sources():
    return sorted((ROOT / "src" / "frequc").rglob("*.py"))


def test_highs_binding_is_imported_by_one_function():
    """scipy's HiGHS binding is private to scipy: if an upgrade moves it,
    only ``run_highs`` has to follow."""
    found = []
    for path in package_sources():
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function (walk is outer first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        found += [(path.relative_to(ROOT).as_posix(), owner.get(node))
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and "_highspy" in ast.unparse(node)]
    assert found == [("src/frequc/milp/branch_bound.py", "run_highs")]
    assert [path.name for path in package_sources()
            if "_highspy" in path.read_text()] == ["branch_bound.py"]


def test_one_class_builds_a_csr_matrix():
    """Every model's row pattern is built in ``ModelLayout``: the other
    compile paths reuse it, so a second assembly of the matrix fails
    here."""
    found = []
    for path in package_sources():
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing class (walk is outer first)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update(dict.fromkeys(ast.walk(cls), cls.name))
        found += [(path.relative_to(ROOT).as_posix(), owner.get(node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and ast.unparse(node.func).split(".")[-1] == "csr_array"]
    assert found == [("src/frequc/milp/model.py", "ModelLayout")]
    assert sum(path.read_text().count("csr_array(")
               for path in package_sources()) == 1


def test_each_model_check_is_made_in_one_place():
    """Every variable and row check message is raised once in ``src/``, by
    ``_check_variables`` or ``_check_rows``: a ``MilpModel`` only collects,
    and its layout and compile check.  ``add_rows`` also names an unknown
    sense string, since no block's sense codes can be formed without it."""
    raised = {}  # message, placeholders as {} -> functions that raise it
    for path in package_sources():
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> innermost enclosing function (walk is outer first)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) == "ModelError"):
                parts = getattr(node.exc.args[0], "values", [node.exc.args[0]])
                message = "".join(part.value if isinstance(part, ast.Constant)
                                  else "{}" for part in parts)
                raised.setdefault(message, []).append(owner.get(node))
    checks = {message: sorted(owners) for message, owners in raised.items()
              if message.startswith(("variable ", "duplicate ", "row "))}
    assert checks == {
        "variable {}: non-finite bounds": ["_check_variables"],
        "variable {}: empty bound interval": ["_check_variables"],
        "variable {}: integer variables must be binary": ["_check_variables"],
        "duplicate variable name: {}": ["_check_variables"],
        "row {}: unknown sense {}": ["_check_rows", "add_rows"],
        "row {}: right-hand side must be finite": ["_check_rows"],
        "row {}: unknown variable index {}": ["_check_rows"],
        "row {}: non-finite coefficient on index {}": ["_check_rows"],
    }


def test_scipy_milp_is_not_used_by_the_package():
    pattern = re.compile(r"optimize\.milp\b|from\s+scipy\.optimize\s+"
                         r"import[^\n]*\bmilp\b")
    users = [path.name for path in package_sources()
             if pattern.search(path.read_text())]
    assert users == []
