from collections import Counter

import numpy as np
import pytest

import scipy.optimize

from frequc.milp import (LinearRow, MilpModel, ModelError, SolveOptions,
                         Variable, solve)
from reference.oracle import dense_rows, solve_exhaustive
from reference.recheck import check_feasible_loop
from reference.simplex import solve_lp


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
    with pytest.raises(ModelError):
        mdl.add_continuous("x", 0.0, np.inf)


def test_model_rejects_duplicate_names():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ModelError):
        mdl.add_continuous("x", 0.0, 2.0)


def test_model_rejects_unknown_index_in_row():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ModelError):
        mdl.add_row({3: 1.0}, "<=", 1.0)


def test_validate_flags_non_binary_integer():
    mdl = MilpModel()
    mdl.add_variable("k", 0.0, 3.0, integer=True)
    with pytest.raises(ModelError):
        mdl.validate()


def test_check_feasible_reports_violated_rows():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 10.0)
    mdl.add_row({0: 1.0}, "<=", 2.0, label="cap")
    bad = mdl.check_feasible(np.array([5.0]))
    assert bad and "cap" in bad[0]
    assert mdl.check_feasible(np.array([1.5])) == []


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
    real_milp = scipy.optimize.milp

    def broken_milp(*args, **kwargs):
        res = real_milp(*args, **kwargs)
        res.x = np.ones_like(res.x)  # takes every item: 2 + 3 + 1 > 4
        return res

    monkeypatch.setattr(scipy.optimize, "milp", broken_milp)
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


def test_node_limit_returns_limit_status():
    # two-sided split rows on 30 binaries: HiGHS cannot close the root node
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
    # a negative constant: a bound that dropped it would exceed the incumbent
    mdl.set_objective({j: float(rng.integers(-60, -1)) for j in range(30)},
                      constant=-1000.0)
    got = solve(mdl, SolveOptions(max_nodes=2, opt_gap=0.0))
    assert got.status == "limit"
    assert got.objective is not None and not got.violations
    # the reported dual bound must underestimate (or match) any incumbent
    assert got.bound <= got.objective + 1e-9
    assert got.bound >= got.objective - 0.1 * abs(got.objective)


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
    """Models that break each check of ``validate``, built past the checks
    of ``add_*`` (except the non-binary integer, which they allow): rows
    are added sound, then their block is edited in place."""
    infinite = MilpModel()
    infinite.add_continuous("x", 0.0, 1.0)
    infinite.variables[0].ub = np.inf
    duplicate = MilpModel()
    duplicate.add_continuous("x", 0.0, 1.0)
    duplicate.variables.append(Variable(1, "x", 0.0, 2.0))
    empty = MilpModel()
    empty.add_continuous("x", 0.0, 1.0)
    empty.variables[0].lb = 2.0
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
        model.validate()
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
        mdl.validate()
    block.sense[0] = 9
    with pytest.raises(ModelError, match="early_sense.*sense"):
        mdl.validate()
    mdl.variables[1].lb = 4.0
    with pytest.raises(ModelError, match="variable y: empty"):
        mdl.validate()


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
            var = mdl.variables[j]
            mdl.fix_variable(j, var.lb if rng.random() < 0.5 else var.ub)
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
    lb = np.array([v.lb for v in mdl.variables])
    ub = np.array([v.ub for v in mdl.variables])
    x = rng.uniform(lb - 1.0, ub + 1.0)
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
        assert np.array_equal(compiled.lb, [v.lb for v in mdl.variables])
        assert np.array_equal(compiled.ub, [v.ub for v in mdl.variables])
        assert np.array_equal(compiled.integrality,
                              [v.is_integer for v in mdl.variables])
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
                assert mdl.check_feasible(point, tol) == expected
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
    assert [block.row_label(i) for i in range(3)] == ["a[0]", "b[1]", "c[2]"]
    a, b = single.compile().a, block.compile().a
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
    with pytest.raises(ModelError) as err:
        mdl.add_rows(cols, vals, sense, rhs, ["r0", "r1", "r2"])
    assert str(err.value) == message
    assert mdl.n_rows == 0 and not mdl.blocks


def test_add_row_keeps_its_checks():
    mdl = MilpModel()
    mdl.add_continuous("x", 0.0, 1.0)
    with pytest.raises(ModelError, match="'s': unknown sense '<>'"):
        mdl.add_row({0: 1.0}, "<>", 1.0, "s")
    with pytest.raises(ModelError, match="'h': right-hand side must be finite"):
        mdl.add_row({0: 1.0}, "<=", np.inf, "h")
    with pytest.raises(ModelError, match="'z': unknown variable index 4"):
        mdl.add_row({0: 1.0, 4: 0.0}, "<=", 1.0, "z")
    with pytest.raises(ModelError, match="'n': non-finite coefficient on index 0"):
        mdl.add_row({0: np.nan}, "<=", 1.0, "n")
    with pytest.raises(ModelError, match="expected two equal"):
        mdl.add_rows([[0]], [[1.0, 2.0]], "<=", 1.0, ["shape"])
    with pytest.raises(ModelError, match="2 labels for 1 rows"):
        mdl.add_rows([[0]], [[1.0]], "<=", 1.0, ["one", "two"])
    assert mdl.n_rows == 0


def test_add_variables_keeps_the_checks_of_add_variable():
    mdl = MilpModel()
    mdl.add_continuous("a", 0.0, 1.0)
    got = mdl.add_variables(["b", "c", "d"], [0.0, -1.0, 2.0], 3.0,
                            integer=[False, False, True])
    assert got.tolist() == [1, 2, 3]
    assert [(v.index, v.name, v.lb, v.ub, v.is_integer)
            for v in mdl.variables[1:]] == [
        (1, "b", 0.0, 3.0, False), (2, "c", -1.0, 3.0, False),
        (3, "d", 2.0, 3.0, True)]
    assert all(type(v.lb) is float and type(v.is_integer) is bool
               for v in mdl.variables)
    assert mdl.variable_by_name("c").index == 2
    for names, lb, ub, message in [
            (["e", "a"], 0.0, 1.0, "duplicate variable name: a"),
            (["e", "e"], 0.0, 1.0, "duplicate variable name: e"),
            (["e", "f"], [0.0, -np.inf], 1.0, "variable f: bounds must be finite"),
            (["e", "f"], [0.0, 2.0], 1.0, "variable f: lower bound 2.0 exceeds"),
    ]:
        with pytest.raises(ModelError, match=message):
            mdl.add_variables(names, lb, ub)
    assert mdl.n_vars == 4 and not mdl.has_variable("e")
    mdl.fix_variable(got[2], 2.0)
    assert mdl.variables[3].lb == mdl.variables[3].ub == 2.0


def test_recheck_flags_nan(monkeypatch):
    """A NaN value breaks its bounds and every row it enters."""
    mdl = MilpModel()
    mdl.add_binary("b")
    mdl.add_continuous("c", 0.0, 4.0)
    mdl.add_row({0: 1.0, 1: 1.0}, "<=", 3.0, label="cap")
    mdl.set_objective({0: -1.0, 1: -1.0})
    point = np.array([0.0, np.nan])
    bad = mdl.check_feasible(point)
    assert bad == check_feasible_loop(mdl, point)
    assert bad == ["bound c: nan outside [0.0, 4.0]", "row cap: nan > 3.0"]
    assert check_feasible_loop(mdl, np.array([np.nan, 0.0]))[:2] == [
        "bound b: nan outside [0.0, 1.0]", "integrality b: nan"]

    real_milp = scipy.optimize.milp

    def nan_milp(*args, **kwargs):
        res = real_milp(*args, **kwargs)
        res.x[1] = np.nan
        return res

    monkeypatch.setattr(scipy.optimize, "milp", nan_milp)
    got = solve(mdl)
    assert got.status == "violated" and got.violations == bad
