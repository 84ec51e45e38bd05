"""Command-line surface: validate inputs, solve schedules, run studies,
and tabulate security-region curves.

Every command that produces files also writes ``manifest.json`` next to
them recording the command, inputs, resolved options, seed and toolkit
version; rerunning with the same inputs reproduces the outputs byte for
byte.

Exit codes: 0 success, 1 input validation failure (usage errors included),
2 solver failure, 3 security verification failure (frequency-constrained
runs only).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .freqdyn import region_curve
from .milp import SolverError, export_model
from .scheduler import (
    SchedulerError,
    UcOptions,
    emissions,
    load_factor,
    period_costs,
    solve_rolling_horizon,
    solve_uc,
    verify_solution,
    verify_trajectory,
)
from .sysmodel import (
    SystemConfigError,
    build_scenario_tree,
    largest_unit,
    load_scenario_table,
    load_system,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SOLVER = 2
EXIT_INSECURE = 3


def _write_manifest(outdir: Path, command: str, inputs: dict, options: dict,
                    seed: int) -> None:
    manifest = {
        "command": command,
        "inputs": {k: str(v) for k, v in inputs.items()},
        "options": options,
        "output_dir": str(outdir),
        "seed": seed,
        "version": __version__,
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    text = f"{value:.6f}"
    # a tiny negative solver value prints unsigned, so that its sign does
    # not change the file when the schedule does not change
    return "0.000000" if text == "-0.000000" else text


def _write_table(path: Path, header, rows) -> None:
    widths = [len(h) for h in header]
    text_rows = []
    for row in rows:
        cells = [_format_cell(c) for c in row]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        text_rows.append(cells)
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for cells in text_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    path.write_text("\n".join(lines) + "\n")


def _load_tree(path, system):
    """The scenario tree in ``path``, over ``system``'s periods unless
    ``system`` is None."""
    levels, table = load_scenario_table(path)
    try:
        tree = build_scenario_tree(levels, table)
    except SystemConfigError as exc:
        raise SystemConfigError(f"{path}: {exc}") from None
    if system is not None and tree.n_periods != system.n_periods:
        raise SystemConfigError(
            f"{path}: table covers {tree.n_periods} periods, the demand "
            f"profile {system.n_periods}"
        )
    return tree


def _load_inputs(system_path, scenario_path):
    system = load_system(system_path)
    return system, _load_tree(scenario_path, system)


# -- validate ---------------------------------------------------------------

def cmd_validate(args) -> int:
    """Check each input file; an error names its file."""
    failures = 0
    system = None
    try:
        system = load_system(args.system)
        fleet = ", ".join(g.id for g in system.generators)
        print(f"ok: {args.system} ({system.n_periods} periods; units: {fleet})")
    except (SystemConfigError, OSError) as exc:
        print(f"error: {exc}")
        failures += 1
    if args.scenarios is not None:
        try:
            tree = _load_tree(args.scenarios, system)
            print(f"ok: {args.scenarios} ({len(tree.probabilities)} branches, "
                  f"{tree.n_periods} periods)")
        except (SystemConfigError, OSError) as exc:
            print(f"error: {exc}")
            failures += 1
    if args.study is not None:
        try:
            _parse_study_config(args.study, system)
            print(f"ok: {args.study}")
        except (SystemConfigError, OSError) as exc:
            print(f"error: {exc}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_INVALID


# -- solve --------------------------------------------------------------------

def _solution_tables(outdir: Path, system, solution) -> None:
    unit_ids = [g.id for g in system.generators]
    n_periods, n_branches = solution.wind_used.shape

    rows = []
    for t in range(n_periods):
        rows.append([str(int(solution.periods[t]))]
                    + [f"{round(x)}" for x in solution.commit[t]]
                    + [f"{round(su)}" for su in solution.startup[t]])
    _write_table(outdir / "commitment.txt",
                 ["period"] + [f"x[{g}]" for g in unit_ids]
                 + [f"start[{g}]" for g in unit_ids], rows)

    header = (["period", "branch", "demand_mw", "wind_mw", "curtailed_mw"]
              + [f"p[{g}]" for g in unit_ids] + [f"r[{g}]" for g in unit_ids]
              + ["loss_mw"])
    curtailment = solution.curtailment
    rows = []
    for t in range(n_periods):
        for s in range(n_branches):
            rows.append([str(int(solution.periods[t])), str(s),
                         solution.demand[t], solution.wind_used[t, s],
                         curtailment[t, s]]
                        + list(solution.output[t, :, s])
                        + list(solution.pfr[t, :, s])
                        + [solution.loss[t, s]])
    _write_table(outdir / "dispatch.txt", header, rows)

    no_load, startup, fuel = period_costs(solution, system)
    rows = [["expected_cost", solution.expected_cost],
            ["no_load_cost", float(no_load.sum())],
            ["startup_cost", float(startup.sum())]]
    for s, branch_fuel in enumerate(fuel.sum(axis=0)):
        rows.append([f"fuel_cost[branch {s}]", branch_fuel])
        rows.append([f"probability[branch {s}]", solution.probabilities[s]])
    _write_table(outdir / "costs.txt", ["quantity", "value"], rows)


def _verification_table(outdir: Path, report, frequency_enabled: bool) -> None:
    rows = []
    for c in report.checks:
        sec = c.report
        rows.append([str(c.period), str(c.scenario), c.inertia, c.pfr, c.loss,
                     sec.rocof_margin, sec.nadir_margin, sec.qss_margin,
                     "ok" if sec.ok else "FAIL"])
    path = outdir / "verification.txt"
    _write_table(path, ["period", "branch", "inertia_mws2", "pfr_mw",
                        "loss_mw", "rocof_margin", "nadir_margin",
                        "qss_margin", "status"], rows)
    n_fail = len(report.failures())
    note = "" if frequency_enabled else \
        "  (frequency rows disabled; report is advisory)"
    with path.open("a") as fh:
        fh.write(f"\nchecks: {len(report.checks)}  failures: {n_fail}{note}\n")


def cmd_solve(args) -> int:
    system, tree = _load_inputs(args.system, args.scenarios)
    horizon = args.horizon if args.horizon is not None else system.n_periods
    options = UcOptions(
        frequency_constraints=not args.no_frequency,
        horizon=horizon,
        largest_loss_mode=args.mode,
    )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_options = {
        "frequency_constraints": options.frequency_constraints,
        "horizon": options.horizon,
        "largest_loss_mode": options.largest_loss_mode,
        "backend": args.backend,
    }

    solution, model, raw = solve_uc(system, tree, options)
    if solution is None:
        lp_path = outdir / "model.lp"
        lp_path.write_text(export_model(model))
        _write_manifest(outdir, "solve",
                        {"system": args.system, "scenarios": args.scenarios},
                        manifest_options, args.seed)
        print(f"solver returned {raw.status}; model exported to {lp_path}",
              file=sys.stderr)
        return EXIT_SOLVER

    _solution_tables(outdir, system, solution)
    report = verify_solution(solution, system)
    _verification_table(outdir, report, options.frequency_constraints)
    _write_manifest(outdir, "solve",
                    {"system": args.system, "scenarios": args.scenarios},
                    manifest_options, args.seed)
    n_fail = len(report.failures())
    print(f"solved {len(solution.periods)} periods x "
          f"{len(solution.probabilities)} branches; expected cost "
          f"{solution.expected_cost:.2f}; verification failures: {n_fail}")
    if options.frequency_constraints and n_fail > 0:
        print("security verification failed; see verification.txt",
              file=sys.stderr)
        return EXIT_INSECURE
    return EXIT_OK


# -- study --------------------------------------------------------------------

def _parse_study_config(path, system):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise SystemConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("study"), dict):
        raise SystemConfigError(f"{path}: expected a top-level 'study' mapping")
    section = doc["study"]
    known = {"wind_capacities", "modes", "periods", "horizon", "first_stage",
             "deloading_enabled"}
    unknown = set(section) - known
    if unknown:
        raise SystemConfigError(f"{path}: unknown study fields {sorted(unknown)}")
    default_span = min(system.n_periods, 168) if system is not None else None

    def count(name, default):
        value = section.get(name, default)
        if not isinstance(value, int | float) or isinstance(value, bool) or (
                isinstance(value, float) and not value.is_integer()):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        return int(value)

    def listed(name, default):
        value = section.get(name, default)
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list, got {value!r}")
        return value

    try:
        caps = listed("wind_capacities", [])
        for cap in caps:
            if not isinstance(cap, int | float) or isinstance(cap, bool):
                raise ValueError(
                    f"wind_capacities must hold numbers, got {cap!r}")
        caps = [float(cap) for cap in caps]
        modes = listed("modes", ["fixed", "optimised"])
        periods = count("periods", default_span or 0)
        horizon = count("horizon", periods)
        first_stage = count("first_stage", horizon)
    except (TypeError, ValueError) as exc:  # a value of the wrong type
        raise SystemConfigError(f"{path}: {exc}") from None
    if not caps or not all(0.0 < c < math.inf for c in caps):
        raise SystemConfigError(
            f"{path}: wind_capacities must be positive and finite")
    if not modes:
        raise SystemConfigError(f"{path}: modes must list at least one mode")
    # a cell's output files and study.txt row are named by its mode and by
    # its capacity printed with :g, so neither may repeat
    for i, mode in enumerate(modes):
        if mode not in ("fixed", "optimised"):
            raise SystemConfigError(f"{path}: unknown mode {mode!r}")
        if mode in modes[:i]:
            raise SystemConfigError(f"{path}: mode {mode!r} is listed twice")
    printed = {}
    for i, cap in enumerate(caps):
        first = printed.setdefault(f"{cap:g}", i)
        if first != i:
            raise SystemConfigError(
                f"{path}: wind_capacities {caps[first]!r} and {cap!r} both "
                f"print as {cap:g}, so their cells would share output files")
    if system is not None and not (1 <= periods <= system.n_periods):
        raise SystemConfigError(
            f"{path}: periods must lie in [1, {system.n_periods}]")
    # with no system, and neither periods nor horizon, the horizon is unknown
    if system is not None or "horizon" in section or "periods" in section:
        try:
            UcOptions(horizon=horizon, first_stage=first_stage)
        except SchedulerError as exc:
            raise SystemConfigError(f"{path}: {exc}") from None
    # accepted as true for study files that still set it; the largest
    # plant is kept at full output by mode fixed
    deloading = section.get("deloading_enabled", True)
    if deloading is not True:
        raise SystemConfigError(
            f"{path}: deloading_enabled must be true, got {deloading!r}; "
            "list modes: [fixed] to keep the largest plant at full output")
    return {
        "wind_capacities": caps,
        "modes": modes,
        "periods": periods,
        "horizon": horizon,
        "first_stage": first_stage,
    }


def _scale_wind(system, tree, capacity: float):
    """Rescale the wind component of every branch to a new capacity."""
    if system.wind_capacity <= 0.0:
        raise SystemConfigError(
            "study: system wind_capacity must be positive to scale wind levels")
    scale = capacity / system.wind_capacity
    demand = np.array(system.demand_profile)[:, None]
    return (replace(system, wind_capacity=capacity),
            replace(tree, net=demand - scale * (demand - tree.net)))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_here(fn, args) -> Future:
    future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:  # re-raised when the result is read
        future.set_exception(exc)
    return future


def _ordered_results(calls, threads: int):
    """Yield the results of ``calls``, (function, args) pairs, in order.

    Up to ``threads`` calls run at once, and the calling thread is one of
    them: while the result it needs next is not ready, it runs the earliest
    call that no pool thread has started.  Working in the calling thread
    instead of in one more pool thread saves that thread's malloc arena.
    An exception raised by a call is re-raised when its result is reached.
    Calls not started when the generator is closed never run.
    """
    pool = ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else None
    try:
        futures = [pool.submit(fn, *args) if pool else Future()
                   for fn, args in calls]
        for i in range(len(futures)):
            j = i
            while not futures[i].done() and j < len(futures):
                if futures[j].cancel():  # not started by the pool
                    futures[j] = _run_here(*calls[j])
                j += 1
            yield futures[i].result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def cmd_study(args) -> int:
    system, tree = _load_inputs(args.system, args.scenarios)
    config = _parse_study_config(args.config, system)
    if config["periods"] < system.n_periods:
        system = replace(
            system,
            demand_profile=system.demand_profile[:config["periods"]])
        tree = replace(tree, net=tree.net[:config["periods"]])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    big = largest_unit(system.generators)

    cells = []
    for capacity in config["wind_capacities"]:
        cell_system, cell_tree = _scale_wind(system, tree, capacity)
        for mode in config["modes"]:
            cells.append((capacity, mode, cell_system, cell_tree))

    # The rolling runs are independent and HiGHS releases the interpreter
    # lock while it solves, so they run concurrently.  Results are read in
    # config order: the outputs, and the failure that is reported, are
    # those of a serial run.
    calls = [(solve_rolling_horizon,
              (cell_system, cell_tree,
               UcOptions(
                   frequency_constraints=enabled,
                   horizon=config["horizon"],
                   first_stage=config["first_stage"],
                   largest_loss_mode=mode,
               )))
             for _, mode, cell_system, cell_tree in cells
             for enabled in (True, False)]
    results = []
    with closing(_ordered_results(
            calls, min(len(calls), _available_cpus()))) as in_order:
        for capacity, mode, cell_system, _ in cells:
            runs = {}
            for enabled in (True, False):
                run = next(in_order)
                if not run.ok:
                    print(f"study cell (wind {capacity:g}, {mode}, "
                          f"{'secured' if enabled else 'unsecured'}): "
                          f"{run.message}", file=sys.stderr)
                    return EXIT_SOLVER
                runs[enabled] = run
            secured = runs[True]
            report = verify_trajectory(secured.trajectory, cell_system)
            if not report.ok:
                print(f"study cell (wind {capacity:g}, {mode}): "
                      f"{len(report.failures())} verification failures",
                      file=sys.stderr)
                return EXIT_INSECURE
            path = secured.trajectory
            curtailment = path.curtailment[:, 0]
            results.append({
                "wind_capacity": capacity,
                "mode": mode,
                "cost_of_frequency_services":
                    runs[True].expected_cost - runs[False].expected_cost,
                "load_factor": load_factor(path, cell_system, big.id),
                "emissions": emissions(path, cell_system),
                "curtailed_energy":
                    float(curtailment.sum()) * cell_system.period_hours,
            })
            no_load, startup, fuel = period_costs(path, cell_system)
            rows = [[str(int(t)), path.demand[i], path.net[i, 0],
                     path.loss[i, 0], path.wind_used[i, 0], curtailment[i],
                     fuel[i, 0] + no_load[i] + startup[i]]
                    for i, t in enumerate(path.periods)]
            _write_table(
                outdir / f"trajectory_w{capacity:g}_{mode}.txt",
                ["period", "demand_mw", "net_mw", "loss_mw", "wind_mw",
                 "curtailed_mw", "cost"], rows)

    rows = [[f"{cell['wind_capacity']:g}", cell["mode"],
             cell["cost_of_frequency_services"], cell["load_factor"],
             cell["emissions"], cell["curtailed_energy"]]
            for cell in results]
    _write_table(outdir / "study.txt",
                 ["wind_capacity_mw", "mode", "cost_of_freq_services",
                  "largest_unit_load_factor", "emissions_tco2",
                  "curtailed_mwh"], rows)
    _write_manifest(outdir, "study",
                    {"system": args.system, "scenarios": args.scenarios,
                     "config": args.config},
                    {**config, "backend": args.backend}, args.seed)
    print(f"study complete: {len(results)} cells -> {outdir / 'study.txt'}")
    return EXIT_OK


# -- region -------------------------------------------------------------------

def cmd_region(args) -> int:
    if args.points < 2:
        raise SystemConfigError("region: need at least 2 grid points")
    for name, values in (("loss", args.loss),
                         ("delivery-time", [args.delivery_time]),
                         ("df-max", [args.df_max]),
                         ("damping-max", [args.damping_max])):
        if not all(0.0 < v < math.inf for v in values):
            raise SystemConfigError(
                f"region: {name} must be positive and finite")
    grid = np.linspace(0.0, args.damping_max, args.points)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for loss in args.loss:
        curve = region_curve(loss, args.delivery_time, args.df_max, grid)
        for d, exact, linear in curve:
            rows.append([f"{loss:g}", d, exact, linear])
    _write_table(outdir / "region.txt",
                 ["loss_mw", "damping_mw_per_hz", "exact_mw2s2",
                  "linear_mw2s2"], rows)
    _write_manifest(outdir, "region", {},
                    {"loss": list(args.loss),
                     "delivery_time": args.delivery_time,
                     "df_max": args.df_max, "damping_max": args.damping_max,
                     "points": args.points}, args.seed)
    print(f"wrote {len(rows)} rows -> {outdir / 'region.txt'}")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with ``EXIT_INVALID``.

    argparse exits with 2 by default, which this command reserves for
    solver failures.  Subcommand parsers inherit the class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frequc",
        description="Frequency-secured unit commitment toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check input files and invariants")
    q.add_argument("system", help="system YAML file")
    q.add_argument("scenarios", nargs="?", help="net-demand quantile table")
    q.add_argument("--study", help="study configuration YAML")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("solve", help="solve one scheduling window")
    q.add_argument("system")
    q.add_argument("scenarios")
    q.add_argument("-o", "--out", required=True, help="output directory")
    q.add_argument("--horizon", type=int, default=None,
                   help="window length in periods (default: whole profile)")
    q.add_argument("--mode", choices=("fixed", "optimised"),
                   default="optimised", help="largest-loss operating mode")
    q.add_argument("--no-frequency", action="store_true",
                   help="drop the frequency-security rows")
    q.add_argument("--backend", default="highs", choices=("highs",),
                   help="mixed-integer solver (HiGHS is the only one)")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_solve)

    q = sub.add_parser("study", help="wind level x loss mode metric sweep")
    q.add_argument("system")
    q.add_argument("scenarios")
    q.add_argument("config", help="study configuration YAML")
    q.add_argument("-o", "--out", required=True)
    q.add_argument("--backend", default="highs", choices=("highs",),
                   help="mixed-integer solver (HiGHS is the only one)")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_study)

    q = sub.add_parser("region", help="tabulate security-region boundaries")
    q.add_argument("--loss", type=float, action="append", required=True,
                   help="power-infeed loss in MW (repeatable)")
    q.add_argument("--delivery-time", type=float, required=True,
                   dest="delivery_time", help="response delivery time in s")
    q.add_argument("--df-max", type=float, required=True, dest="df_max",
                   help="nadir limit in Hz")
    q.add_argument("--damping-max", type=float, default=1000.0,
                   dest="damping_max", help="largest damping product, MW/Hz")
    q.add_argument("--points", type=int, default=25)
    q.add_argument("-o", "--out", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(func=cmd_region)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemConfigError, SchedulerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
