import pytest

from frequc.milp import MilpModel, export_model, solve
from reference.lpread import LpioError, import_model, models_equivalent


def sample_model():
    mdl = MilpModel()
    mdl.add_binary("on_a")
    mdl.add_binary("on_b")
    mdl.add_continuous("p_a", 0.0, 4.0)
    mdl.add_continuous("p_b", -1.0, 3.0)
    mdl.add_row({0: 2.0, 2: 1.0}, "<=", 5.0, label="cap_a")
    mdl.add_row({2: 1.0, 3: 1.0}, ">=", 1.5, label="demand")
    mdl.add_row({1: 1.0, 3: -1.0}, "=", 0.0, label="link")
    mdl.set_objective({0: 10.0, 1: 7.0, 2: 1.5, 3: 2.0})
    return mdl


def test_export_import_round_trip():
    mdl = sample_model()
    text = export_model(mdl)
    back = import_model(text)
    assert models_equivalent(mdl, back)


def test_round_trip_preserves_optimum():
    mdl = sample_model()
    back = import_model(export_model(mdl))
    a = solve(mdl)
    b = solve(back)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, abs=1e-9)


def test_models_equivalent_detects_changed_coefficient():
    mdl = sample_model()
    other = import_model(export_model(mdl))
    assert models_equivalent(mdl, other)
    tweaked = sample_model()
    with pytest.raises(TypeError):  # rows are a read-only view
        tweaked.rows[0].coeffs[0] = 2.5
    assert models_equivalent(mdl, tweaked)
    tweaked.blocks[0].vals[0, 0] = 2.5
    assert tweaked.rows[0].coeffs[0] == 2.5
    assert not models_equivalent(mdl, tweaked)


def test_import_rejects_maximize():
    text = "Maximize\n obj: x\nSubject To\n r0: x <= 1\nBounds\n 0 <= x <= 1\nEnd\n"
    with pytest.raises(LpioError):
        import_model(text)


def test_import_rejects_general_integers():
    text = (
        "Minimize\n obj: x\nSubject To\n r0: x <= 4\n"
        "Bounds\n 0 <= x <= 4\nGeneral\n x\nEnd\n"
    )
    with pytest.raises(LpioError):
        import_model(text)


def test_import_rejects_objective_constant():
    text = ("Minimize\n obj: x + 3.0\nSubject To\n r0: x <= 1\n"
            "Bounds\n 0 <= x <= 1\nEnd\n")
    with pytest.raises(LpioError):
        import_model(text)


def test_import_requires_finite_bounds():
    text = "Minimize\n obj: x + y\nSubject To\n r0: x + y <= 1\nBounds\n 0 <= x <= 1\nEnd\n"
    with pytest.raises(LpioError):
        import_model(text)


def test_export_orders_terms_stably():
    mdl = sample_model()
    assert export_model(mdl) == export_model(sample_model())
