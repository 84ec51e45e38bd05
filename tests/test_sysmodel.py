import numpy as np
import pytest

from frequc.sysmodel import (
    FrequencyParams,
    GeneratorSpec,
    ScenarioTree,
    SystemConfigError,
    SystemSpec,
    build_scenario_tree,
    default_segment_grid,
    largest_unit,
    load_scenario_table,
    load_system,
    quantile_probabilities,
    system_from_dict,
)

MINIMAL_YAML = """\
frequency:
  f0: 50.0
  df_max: 0.8
  df_ss_max: 0.5
  rocof_max: 0.5
  t_d: 10.0
  damping: 0.0
generators:
  - id: big
    technology: nuclear
    p_max: 2000.0
    p_min: 1000.0
    inertia_const: 5.0
  - id: small
    technology: thermal
    p_max: 500.0
    p_min: 100.0
    inertia_const: 4.0
    marginal_cost: 40.0
    pfr_max: 200.0
demand:
  period_hours: 1.0
  profile: [2100.0, 2200.0]
scenarios:
  wind_capacity: 300.0
"""


def test_load_minimal_system(tmp_path):
    path = tmp_path / "sys.yaml"
    path.write_text(MINIMAL_YAML)
    spec = load_system(path)
    assert len(spec.generators) == 2
    assert spec.frequency.largest_unit_rating == 2000.0
    assert spec.frequency.largest_unit_inertia == 5.0
    assert spec.n_periods == 2
    assert spec.wind_capacity == 300.0


SCENARIO_TABLE = "0.1 0.9\n1000 1200\n1050 1250\n"


@pytest.mark.parametrize("target, old, new, match", [
    ("sys.yaml", "profile: [2100.0, 2200.0]", "profile: [2100.0, .nan]",
     r"system: demand_profile\[1\] must be finite"),
    ("sys.yaml", "period_hours: 1.0", "period_hours: .inf",
     "system: period_hours must be finite"),
    ("sys.yaml", "wind_capacity: 300.0", "wind_capacity: .nan",
     "system: wind_capacity must be finite"),
    ("sys.yaml", "p_max: 2000.0", "p_max: .inf",
     "generator big: p_max must be finite"),
    ("sys.yaml", "marginal_cost: 40.0", "marginal_cost: .inf",
     "generator small: marginal_cost must be finite"),
    ("sys.yaml", "inertia_const: 4.0", "inertia_const: .nan",
     "generator small: inertia_const must be finite"),
    ("sys.yaml", "pfr_max: 200.0", "pfr_max: -.inf",
     "generator small: pfr_max must be finite"),
    ("sys.yaml", "damping: 0.0", "damping: .nan",
     "frequency: damping must be finite"),
    ("sys.yaml", "rocof_max: 0.5", "rocof_max: .inf",
     "frequency: rocof_max must be finite"),
    ("sys.yaml", "damping: 0.0", "damping: 0.0\n  nadir_segments: [1500.0, .nan]",
     r"frequency: nadir_segments\[1\] must be finite"),
    ("scen.txt", "1050 1250", "1050 nan", "scen.txt:3: values must be finite"),
    ("scen.txt", "0.1 0.9", "0.1 inf", "scen.txt:1: values must be finite"),
])
def test_non_finite_numbers_are_rejected(tmp_path, target, old, new, match):
    texts = {"sys.yaml": MINIMAL_YAML, "scen.txt": SCENARIO_TABLE}
    assert old in texts[target]
    texts[target] = texts[target].replace(old, new)
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(SystemConfigError, match=match):
        load_system(tmp_path / "sys.yaml")
        load_scenario_table(tmp_path / "scen.txt")


@pytest.mark.parametrize("old, new, match", [
    ("damping: 0.0", "damping: true",
     "frequency: damping must be a number, got True"),
    ("pfr_max: 200.0", "pfr_max: true",
     "generator small: pfr_max must be a number, got True"),
    ("pfr_max: 200.0", 'pfr_max: 200.0\n    emissions_rate: "0.95"',
     "generator small: emissions_rate must be a number, got '0.95'"),
    ("inertia_const: 5.0", 'inertia_const: 5.0\n    deloadable: "no"',
     "generator big: deloadable must be true or false, got 'no'"),
    ("profile: [2100.0, 2200.0]", 'profile: [2100.0, "2200"]',
     r"system: demand_profile\[1\] must be a number, got '2200'"),
    ("profile: [2100.0, 2200.0]", 'profile: "2100.0"',
     "system: demand_profile must be a list of numbers, got '2100.0'"),
    ("damping: 0.0", 'damping: 0.0\n  nadir_segments: [1500.0, "2000"]',
     r"frequency: nadir_segments\[1\] must be a number, got '2000'"),
    ("wind_capacity: 300.0", 'wind_capacity: "300"',
     "system: wind_capacity must be a number, got '300'"),
    ("period_hours: 1.0", 'period_hours: "1"',
     "system: period_hours must be a number, got '1'"),
])
def test_values_of_the_wrong_type_are_rejected(tmp_path, old, new, match):
    """Booleans and strings are not read as numbers, nor strings as
    booleans; the error names the field."""
    assert old in MINIMAL_YAML
    path = tmp_path / "sys.yaml"
    path.write_text(MINIMAL_YAML.replace(old, new, 1))
    with pytest.raises(SystemConfigError, match=match):
        load_system(path)


def test_numpy_numbers_are_numbers():
    unit = GeneratorSpec(id="u", technology="thermal", p_max=np.float32(100.0),
                         p_min=np.int64(10), inertia_const=np.float64(4.0),
                         deloadable=np.bool_(True),
                         max_deload_fraction=np.float64(0.4))
    assert unit.synchronous and unit.deloadable
    freq = FrequencyParams(
        f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.5, t_d=10.0,
        damping=np.float64(0.0), nadir_segments=np.array([60.0, 100.0]),
        largest_unit_rating=unit.p_max, largest_unit_inertia=4.0)
    system = SystemSpec(generators=(unit,), demand_profile=np.array([90.0]),
                        wind_capacity=np.int64(10), period_hours=np.float32(1),
                        frequency=freq)
    assert system.demand_profile == (90.0,) and system.wind_capacity == 10.0


def test_pmin_above_pmax_names_the_unit():
    with pytest.raises(SystemConfigError, match="bad1"):
        GeneratorSpec(id="bad1", technology="thermal", p_max=100.0, p_min=200.0)


def test_generator_id_with_a_nul_is_rejected():
    """A YAML ``"\\0"`` escape puts a NUL in an id; the names and labels
    of a laid-out window mark its period with NUL characters."""
    with pytest.raises(SystemConfigError, match="id holds a NUL character"):
        GeneratorSpec(id="g\x001", technology="thermal", p_max=100.0)


def test_minimum_times_are_whole_numbers():
    unit = GeneratorSpec(id="g", technology="thermal", p_max=100.0,
                         min_up=3.0, min_down=2)
    assert (unit.min_up, unit.min_down) == (3, 2)
    assert type(unit.min_up) is int
    for field, value in (("min_up", 2.5), ("min_down", True),
                         ("min_up", "2")):
        with pytest.raises(SystemConfigError,
                           match=f"generator g: {field} must be a whole"):
            GeneratorSpec(id="g", technology="thermal", p_max=100.0,
                          **{field: value})


def test_wind_with_inertia_rejected():
    with pytest.raises(SystemConfigError, match="non-synchronous"):
        GeneratorSpec(id="w", technology="wind", p_max=100.0, inertia_const=5.0)


def test_deloadable_needs_fraction():
    with pytest.raises(SystemConfigError, match="max_deload_fraction"):
        GeneratorSpec(id="n", technology="nuclear", p_max=100.0, deloadable=True)


def test_unknown_generator_field_rejected(tmp_path):
    doc = yaml_doc()
    doc["generators"][0]["ramp_rate"] = 5.0
    with pytest.raises(SystemConfigError, match="ramp_rate"):
        system_from_dict(doc)


def yaml_doc():
    import yaml

    return yaml.safe_load(MINIMAL_YAML)


def test_largest_unit_tie_breaks():
    a = GeneratorSpec(id="b", technology="thermal", p_max=500.0, inertia_const=4.0)
    b = GeneratorSpec(id="a", technology="thermal", p_max=500.0, inertia_const=6.0)
    c = GeneratorSpec(id="c", technology="thermal", p_max=400.0, inertia_const=9.0)
    assert largest_unit([a, b, c]).id == "a"
    # equal rating and inertia: lexicographically smallest id wins
    d = GeneratorSpec(id="aa", technology="thermal", p_max=500.0, inertia_const=6.0)
    assert largest_unit([a, d, b]).id == "a"


def test_frequency_params_reject_short_segment_grid():
    with pytest.raises(SystemConfigError, match="nadir_segments"):
        FrequencyParams(
            f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.5, t_d=10.0,
            damping=0.0, nadir_segments=(500.0, 900.0),
            largest_unit_rating=1000.0, largest_unit_inertia=5.0,
        )


def test_frequency_params_reject_settled_limit_beyond_nadir_limit():
    with pytest.raises(SystemConfigError, match="df_ss_max must not exceed"):
        FrequencyParams(
            f0=50.0, df_max=0.8, df_ss_max=1.0, rocof_max=0.5, t_d=10.0,
            damping=0.0, nadir_segments=(1000.0,),
            largest_unit_rating=1000.0, largest_unit_inertia=5.0,
        )


def test_default_segment_grid_spans_deload_range():
    grid = default_segment_grid(900.0, 0.33)
    assert len(grid) == 10
    assert grid[0] == pytest.approx(0.67 * 900.0)
    assert grid[-1] == pytest.approx(900.0)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    # a non-deloadable unit collapses to the single full-rating segment
    assert default_segment_grid(900.0, 0.0) == (900.0,)


def test_quantile_probabilities_examples():
    probs = quantile_probabilities([0.25, 0.75])
    assert probs == pytest.approx([0.5, 0.5])
    assert quantile_probabilities([0.5]) == pytest.approx([1.0])
    levels = [0.005, 0.1, 0.3, 0.5, 0.7, 0.9, 0.995]
    probs = quantile_probabilities(levels)
    assert len(probs) == 7
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs > 0)


def test_quantile_probabilities_sum_to_one_for_random_levels():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        levels = np.sort(rng.uniform(0.001, 0.999, size=n))
        levels = np.unique(levels)
        probs = quantile_probabilities(levels)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert np.all(probs > 0)


def test_quantile_levels_validated():
    with pytest.raises(SystemConfigError):
        quantile_probabilities([0.3, 0.2])
    with pytest.raises(SystemConfigError):
        quantile_probabilities([0.0, 0.5])
    with pytest.raises(SystemConfigError):
        quantile_probabilities([])


def test_build_scenario_tree_shape_and_probabilities():
    levels = [0.25, 0.5, 0.75]
    table = np.array([
        [1000.0, 1200.0, 1400.0],
        [900.0, 1100.0, 1300.0],
    ])
    tree = build_scenario_tree(levels, table)
    assert tree.net.shape == (2, 3) and tree.n_periods == 2
    assert np.array_equal(tree.net[:, 0], [1000.0, 900.0])
    assert np.array_equal(tree.probabilities, quantile_probabilities(levels))
    assert tree.probabilities.sum() == pytest.approx(1.0)
    assert tree.quantile_levels == (0.25, 0.5, 0.75)
    # a read-only copy: the table and the tree do not write to each other
    table[0, 0] = 0.0
    assert tree.net[0, 0] == 1000.0
    for array in (tree.net, tree.probabilities):
        with pytest.raises(ValueError):
            array[0] = 1.0


@pytest.mark.parametrize("net, probabilities, levels, message", [
    ([[1.0, 2.0]], [0.5, 0.5], [0.5], "branch count must equal quantile"),
    ([[1.0, 2.0]], [1.0], [0.3, 0.7], "branch count must equal quantile"),
    ([[1.0, 2.0]], [0.5, 0.5], [0.7, 0.3], "must be strictly increasing"),
    ([[1.0, 2.0]], [0.5, 0.5], [0.0, 0.5], "outside"),
    ([[1.0, 2.0]], [1.0, 0.0], [0.3, 0.7], "probabilities must be > 0"),
    ([[1.0, 2.0]], [0.5, 0.6], [0.3, 0.7], "probabilities sum to 1.1"),
    ([1.0, 2.0], [0.5, 0.5], [0.3, 0.7], "must be a \\(periods, branches\\)"),
    ([[[1.0, 2.0]]], [0.5, 0.5], [0.3, 0.7], "must be a \\(periods, branches\\)"),
    ([[1.0, np.nan]], [0.5, 0.5], [0.3, 0.7], "net demand must be finite"),
])
def test_scenario_tree_validation(net, probabilities, levels, message):
    with pytest.raises(SystemConfigError, match=message):
        ScenarioTree(net=net, probabilities=probabilities,
                     quantile_levels=levels)


def test_scenario_table_rows_must_be_monotone():
    with pytest.raises(SystemConfigError, match="non-decreasing"):
        build_scenario_tree([0.25, 0.75], np.array([[1400.0, 1000.0]]))


def test_load_scenario_table(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text(
        "# net demand quantiles\n"
        "0.1 0.5 0.9\n"
        "1000 1100 1200\n"
        "1050 1150 1250  # second period\n"
    )
    levels, table = load_scenario_table(path)
    assert levels == (0.1, 0.5, 0.9)
    assert table.shape == (2, 3)
    assert table[1, 2] == 1250.0


def test_load_scenario_table_rejects_ragged_rows(tmp_path):
    path = tmp_path / "scen.txt"
    path.write_text("0.1 0.9\n1000 1200\n1050\n")
    with pytest.raises(SystemConfigError, match="columns"):
        load_scenario_table(path)


def test_missing_file_is_config_error():
    with pytest.raises(SystemConfigError):
        load_system("/nonexistent/sys.yaml")


def test_system_rejects_mismatched_largest_unit():
    gens = (
        GeneratorSpec(id="a", technology="thermal", p_max=500.0, inertia_const=4.0),
    )
    freq = FrequencyParams(
        f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.5, t_d=10.0,
        damping=0.0, nadir_segments=(600.0,),
        largest_unit_rating=600.0, largest_unit_inertia=9.0,
    )
    with pytest.raises(SystemConfigError, match="largest"):
        SystemSpec(
            generators=gens, demand_profile=(100.0,), wind_capacity=0.0,
            period_hours=1.0, frequency=freq,
        )
