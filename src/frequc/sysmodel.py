"""Power-system data model: generators, frequency limits, demand, scenarios.

Loads and validates the system configuration (YAML with sections
``frequency``, ``generators``, ``demand``, ``scenarios``) and the
tabular net-demand quantile file, and builds the scenario tree used by
the stochastic scheduler: one ``(periods, branches)`` array of net demand
over the whole demand profile, with one probability per branch.  A
scheduling window reads its rows by profile period.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

TECHNOLOGIES = ("nuclear", "thermal", "wind")

DEFAULT_SEGMENT_COUNT = 10


class SystemConfigError(ValueError):
    """Input file is malformed or violates a model invariant."""


def _require_number(where: str, name: str, value) -> None:
    """Reject a value that is not a finite real number: a boolean, a
    string, NaN or an infinity.  Python's and numpy's ints and floats
    pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SystemConfigError(
            f"{where}: {name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise SystemConfigError(f"{where}: {name} must be finite, got {value}")


def _require_numbers(where: str, spec, names, listed=()) -> None:
    """:func:`_require_number` for each field of ``spec`` that ``names``
    lists, and for each item of each field that ``listed`` names, which
    must hold a list of numbers."""
    for name in names:
        _require_number(where, name, getattr(spec, name))
    for name in listed:
        values = getattr(spec, name)
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
            raise SystemConfigError(
                f"{where}: {name} must be a list of numbers, got {values!r}")
        for i, value in enumerate(values):
            _require_number(where, f"{name}[{i}]", value)


@dataclass(frozen=True)
class GeneratorSpec:
    """One dispatchable (or wind) unit and its static parameters."""

    id: str
    technology: str
    p_max: float
    p_min: float = 0.0
    inertia_const: float = 0.0   # seconds, on the unit's own MVA base
    marginal_cost: float = 0.0   # currency per MWh
    no_load_cost: float = 0.0    # currency per hour online
    startup_cost: float = 0.0    # currency per start
    min_up: int = 1              # hours
    min_down: int = 1            # hours
    pfr_max: float = 0.0         # MW of primary response capability
    emissions_rate: float = 0.0  # tCO2 per MWh
    deloadable: bool = False
    max_deload_fraction: float = 0.0

    def __post_init__(self):
        gid = self.id
        if not gid:
            raise SystemConfigError("generator with empty id")
        # ids name the model's columns and rows, whose templates mark a
        # period with NUL characters
        if "\x00" in str(gid):
            raise SystemConfigError(
                f"generator {gid!r}: id holds a NUL character")
        _require_numbers(f"generator {gid}", self, _GEN_NUMBERS)
        if not isinstance(self.deloadable, (bool, np.bool_)):
            raise SystemConfigError(
                f"generator {gid}: deloadable must be true or false, got "
                f"{self.deloadable!r}")
        if self.technology not in TECHNOLOGIES:
            raise SystemConfigError(
                f"generator {gid}: unknown technology {self.technology!r}"
            )
        if not 0.0 <= self.p_min <= self.p_max:
            raise SystemConfigError(
                f"generator {gid}: requires 0 <= p_min <= p_max, "
                f"got p_min={self.p_min}, p_max={self.p_max}"
            )
        if self.inertia_const < 0.0:
            raise SystemConfigError(f"generator {gid}: negative inertia_const")
        if self.pfr_max < 0.0:
            raise SystemConfigError(f"generator {gid}: negative pfr_max")
        for name in ("marginal_cost", "no_load_cost", "startup_cost"):
            if getattr(self, name) < 0.0:
                raise SystemConfigError(f"generator {gid}: negative {name}")
        for name in ("min_up", "min_down"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, int)
                    or isinstance(value, float) and value.is_integer()):
                raise SystemConfigError(
                    f"generator {gid}: {name} must be a whole number, "
                    f"got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.min_up < 0 or self.min_down < 0:
            raise SystemConfigError(f"generator {gid}: negative min up/down time")
        if self.emissions_rate < 0.0:
            raise SystemConfigError(f"generator {gid}: negative emissions_rate")
        if self.technology == "wind" and (self.inertia_const > 0.0 or self.pfr_max > 0.0):
            raise SystemConfigError(
                f"generator {gid}: non-synchronous unit with inertia or response"
            )
        if not 0.0 <= self.max_deload_fraction <= 1.0:
            raise SystemConfigError(
                f"generator {gid}: max_deload_fraction outside [0, 1]"
            )
        if self.deloadable and self.max_deload_fraction <= 0.0:
            raise SystemConfigError(
                f"generator {gid}: deloadable requires max_deload_fraction > 0"
            )

    @property
    def synchronous(self) -> bool:
        return self.inertia_const > 0.0


# the fields of a GeneratorSpec that hold a number of any value; min_up and
# min_down hold whole numbers, checked on their own
_GEN_NUMBERS = ("p_max", "p_min", "inertia_const", "marginal_cost",
                "no_load_cost", "startup_cost", "pfr_max", "emissions_rate",
                "max_deload_fraction")


@dataclass(frozen=True)
class FrequencyParams:
    """Frequency-security limits plus fleet-derived largest-unit data.

    ``largest_unit_rating`` and ``largest_unit_inertia`` are always
    derived from the generator list, never read from input.
    """

    f0: float                         # Hz
    df_max: float                     # Hz, nadir limit
    df_ss_max: float                  # Hz, quasi-steady-state limit
    rocof_max: float                  # Hz/s
    t_d: float                        # s, response delivery time
    damping: float                    # 1/Hz, load damping D
    nadir_segments: tuple             # MW breakpoints of the nadir chord envelope
    largest_unit_rating: float        # MW
    largest_unit_inertia: float       # s

    def __post_init__(self):
        _require_numbers("frequency", self,
                         [f.name for f in fields(self)
                          if f.name != "nadir_segments"], ["nadir_segments"])
        segs = tuple(float(v) for v in self.nadir_segments)
        object.__setattr__(self, "nadir_segments", segs)
        for name in ("f0", "df_max", "df_ss_max", "rocof_max", "t_d",
                     "largest_unit_rating", "largest_unit_inertia"):
            if getattr(self, name) <= 0.0:
                raise SystemConfigError(f"frequency: {name} must be positive")
        if self.damping < 0.0:
            raise SystemConfigError("frequency: damping must be >= 0")
        if self.df_ss_max > self.df_max:
            raise SystemConfigError(
                "frequency: df_ss_max must not exceed df_max, or the settled "
                "deviation the response rows allow breaks the nadir limit")
        if not segs:
            raise SystemConfigError("frequency: nadir_segments is empty")
        if segs[0] <= 0.0:
            raise SystemConfigError("frequency: nadir_segments must be positive")
        if any(b <= a for a, b in zip(segs, segs[1:])):
            raise SystemConfigError(
                "frequency: nadir_segments must be strictly increasing"
            )
        if segs[-1] < self.largest_unit_rating - 1e-9:
            raise SystemConfigError(
                "frequency: nadir_segments must reach the largest unit rating "
                f"({segs[-1]} < {self.largest_unit_rating})"
            )


def largest_unit(generators) -> GeneratorSpec:
    """Largest-rated unit; ties broken by inertia_const, then id."""
    if not generators:
        raise SystemConfigError("no generators defined")
    return min(generators, key=lambda g: (-g.p_max, -g.inertia_const, g.id))


def default_segment_grid(rating: float, deload_fraction: float,
                         count: int = DEFAULT_SEGMENT_COUNT) -> tuple:
    """Uniform nadir breakpoints from the deloaded rating up to the full rating."""
    lo = rating * (1.0 - deload_fraction)
    if rating - lo < 1e-9:
        return (rating,)
    return tuple(np.linspace(lo, rating, count))


@dataclass(frozen=True)
class SystemSpec:
    generators: tuple
    demand_profile: tuple         # MW, one value per period
    wind_capacity: float          # MW installed
    period_hours: float
    frequency: FrequencyParams

    def __post_init__(self):
        _require_numbers("system", self, ("wind_capacity", "period_hours"),
                         ["demand_profile"])
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(
            self, "demand_profile",
            tuple(float(v) for v in self.demand_profile),
        )
        for name in ("wind_capacity", "period_hours"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not self.generators:
            raise SystemConfigError("system: at least one generator required")
        seen = set()
        for g in self.generators:
            if g.id in seen:
                raise SystemConfigError(f"system: duplicate generator id {g.id}")
            seen.add(g.id)
        if not self.demand_profile:
            raise SystemConfigError("system: empty demand profile")
        if any(v <= 0.0 for v in self.demand_profile):
            raise SystemConfigError("system: demand profile values must be positive")
        if self.wind_capacity < 0.0:
            raise SystemConfigError("system: negative wind capacity")
        if self.period_hours <= 0.0:
            raise SystemConfigError("system: period_hours must be positive")
        big = largest_unit(self.generators)
        if (self.frequency.largest_unit_rating != big.p_max
                or self.frequency.largest_unit_inertia != big.inertia_const):
            raise SystemConfigError(
                "frequency: largest_unit_rating/inertia must match the fleet "
                f"largest unit {big.id}"
            )

    @property
    def n_periods(self) -> int:
        return len(self.demand_profile)


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """Net demand of every quantile branch in every period of the demand
    profile: ``net`` of shape ``(T, S)``, branch ``s``'s probability
    ``probabilities[s]`` and its quantile level ``quantile_levels[s]``.

    ``net`` and ``probabilities`` are kept as read-only copies, so a window
    that reads a slice of the tree cannot write back to it.
    """

    net: np.ndarray
    probabilities: np.ndarray
    quantile_levels: tuple

    def __post_init__(self):
        net = np.array(self.net, dtype=float)
        probs = np.array(self.probabilities, dtype=float)
        if net.ndim != 2:
            raise SystemConfigError(
                "scenario tree: net demand must be a (periods, branches) table"
            )
        if not np.isfinite(net).all():
            raise SystemConfigError("scenario tree: net demand must be finite")
        net.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "net", net)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(
            self, "quantile_levels",
            tuple(float(v) for v in self.quantile_levels),
        )
        if not net.shape[1] == len(probs) == len(self.quantile_levels):
            raise SystemConfigError(
                "scenario tree: branch count must equal quantile count"
            )
        _check_levels(self.quantile_levels)
        if np.any(probs <= 0.0):
            raise SystemConfigError("scenario tree: probabilities must be > 0")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise SystemConfigError(
                f"scenario tree: probabilities sum to {total}, expected 1"
            )

    @property
    def n_periods(self) -> int:
        return len(self.net)


def _check_levels(levels) -> None:
    if len(levels) == 0:
        raise SystemConfigError("quantile levels: empty list")
    prev = 0.0
    for lv in levels:
        if not 0.0 < lv < 1.0:
            raise SystemConfigError(f"quantile levels: {lv} outside (0, 1)")
        if lv <= prev and prev > 0.0:
            raise SystemConfigError("quantile levels: must be strictly increasing")
        prev = lv


def quantile_probabilities(levels) -> np.ndarray:
    """Branch masses from the midpoint rule.

    Cell boundaries sit halfway between adjacent levels, with the outer
    boundaries pinned to 0 and 1, so the masses always sum to one.
    """
    _check_levels(levels)
    ls = np.asarray(levels, dtype=float)
    bounds = np.concatenate([[0.0], 0.5 * (ls[:-1] + ls[1:]), [1.0]])
    return np.diff(bounds)


def build_scenario_tree(levels, table) -> ScenarioTree:
    """Assemble the tree from per-period quantile values.

    ``table`` has one row per period and one column per quantile level; it
    becomes the tree's ``net``, and the midpoint rule gives the branch
    probabilities.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise SystemConfigError("scenario table: expected a 2-D period x level table")
    if arr.shape[1] != len(levels):
        raise SystemConfigError(
            f"scenario table: {arr.shape[1]} columns for {len(levels)} levels"
        )
    if np.any(np.diff(arr, axis=1) < -1e-9):
        raise SystemConfigError(
            "scenario table: rows must be non-decreasing across quantile levels"
        )
    return ScenarioTree(net=arr, probabilities=quantile_probabilities(levels),
                        quantile_levels=tuple(levels))


def load_scenario_table(path):
    """Read the tabular quantile file: header of levels, one row per period."""
    text = Path(path).read_text()
    rows = []
    header = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values = [float(tok) for tok in body.split()]
        except ValueError as exc:
            raise SystemConfigError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in values):
            raise SystemConfigError(f"{path}:{lineno}: values must be finite")
        if header is None:
            header = values
            continue
        if len(values) != len(header):
            raise SystemConfigError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(values)}"
            )
        rows.append(values)
    if header is None or not rows:
        raise SystemConfigError(f"{path}: no data rows")
    return tuple(header), np.array(rows, dtype=float)


_GEN_FIELDS = {f.name for f in fields(GeneratorSpec)}
_FREQ_INPUT_FIELDS = {"f0", "df_max", "df_ss_max", "rocof_max", "t_d",
                      "damping", "nadir_segments"}


def _section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise SystemConfigError(f"missing section {name!r}")
    sec = doc[name]
    if not isinstance(sec, dict) and name != "generators":
        raise SystemConfigError(f"section {name!r} must be a mapping")
    return sec


def system_from_dict(doc: dict) -> SystemSpec:
    """Build and validate a SystemSpec from parsed configuration data."""
    if not isinstance(doc, dict):
        raise SystemConfigError("top level must be a mapping")
    gen_sec = _section(doc, "generators")
    if not isinstance(gen_sec, list):
        raise SystemConfigError("'generators' must be a list")
    gens = []
    for entry in gen_sec:
        if not isinstance(entry, dict):
            raise SystemConfigError("generator entries must be mappings")
        unknown = set(entry) - _GEN_FIELDS
        if unknown:
            raise SystemConfigError(
                f"generator {entry.get('id', '?')}: unknown fields {sorted(unknown)}"
            )
        gens.append(GeneratorSpec(**entry))

    freq_sec = dict(_section(doc, "frequency"))
    unknown = set(freq_sec) - _FREQ_INPUT_FIELDS
    if unknown:
        raise SystemConfigError(f"frequency: unknown fields {sorted(unknown)}")
    big = largest_unit(gens)
    segments = freq_sec.pop("nadir_segments", None)
    if segments is None:
        segments = default_segment_grid(big.p_max, big.max_deload_fraction)
    try:
        freq = FrequencyParams(
            nadir_segments=segments,
            largest_unit_rating=big.p_max,
            largest_unit_inertia=big.inertia_const,
            **freq_sec,
        )
    except TypeError as exc:
        raise SystemConfigError(f"frequency: {exc}") from None

    dem_sec = _section(doc, "demand")
    if "profile" not in dem_sec:
        raise SystemConfigError("demand: missing 'profile'")
    scen_sec = _section(doc, "scenarios")
    if "wind_capacity" not in scen_sec:
        raise SystemConfigError("scenarios: missing 'wind_capacity'")

    return SystemSpec(
        generators=tuple(gens),
        demand_profile=dem_sec["profile"],
        wind_capacity=scen_sec["wind_capacity"],
        period_hours=dem_sec.get("period_hours", 1.0),
        frequency=freq,
    )


def load_system(path) -> SystemSpec:
    """Read and validate a system YAML file; every error names ``path``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemConfigError(f"{path}: {exc.strerror or exc}") from None
    try:
        return system_from_dict(yaml.safe_load(text))
    except yaml.YAMLError as exc:
        raise SystemConfigError(f"{path}: parse error: {exc}") from None
    except (TypeError, ValueError) as exc:  # a SystemConfigError included
        raise SystemConfigError(f"{path}: {exc}") from None
