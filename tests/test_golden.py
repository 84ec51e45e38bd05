"""Golden outputs: ``frequc study`` and ``frequc solve`` on the bundled data
write, byte for byte, the files kept under ``tests/golden/``.

The study is cut short (3 wind capacities x 2 modes, 8 periods, horizon
4) and the solve is one 4-period window, so both run in a few seconds.
The rolling study is the whole bundled day at 3000 MW in optimised mode
with a horizon of 2: its 12 windows and 12 re-dispatches of each run
share a few layouts, so it reads what one window of a run hands the
next (a layout, a solver's starting basis).
``manifest.json`` names the output directory, so it is left out.  After an
intended change of the outputs, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import shutil
import tempfile
from pathlib import Path

from frequc.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

STUDY_CONFIG = """\
study:
  wind_capacities: [700.0, 1850.0, 3000.0]
  modes: [fixed, optimised]
  periods: 8
  horizon: 4
"""

ROLLING_CONFIG = """\
study:
  wind_capacities: [3000.0]
  modes: [optimised]
  periods: 24
  horizon: 2
"""


def run_study(out: Path, work: Path, text: str = STUDY_CONFIG) -> None:
    config = work / "golden_study.yaml"
    config.write_text(text)
    assert main(["study", str(DATA / "toy_system.yaml"),
                 str(DATA / "toy_scenarios.txt"), str(config),
                 "-o", str(out)]) == 0


def run_solve(out: Path, work: Path) -> None:
    assert main(["solve", str(DATA / "toy_system.yaml"),
                 str(DATA / "toy_scenarios.txt"), "--horizon", "4",
                 "-o", str(out)]) == 0


def run_rolling(out: Path, work: Path) -> None:
    run_study(out, work, ROLLING_CONFIG)


RUNS = {"study": run_study, "solve": run_solve, "rolling": run_rolling}


def outputs(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())
            if path.name != "manifest.json"}


def assert_matches_golden(name: str, tmp_path: Path) -> None:
    out = tmp_path / name
    RUNS[name](out, tmp_path)
    got, want = outputs(out), outputs(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for file_name, text in want.items():
        assert got[file_name] == text, file_name


def test_study_matches_golden(tmp_path):
    assert_matches_golden("study", tmp_path)


def test_solve_matches_golden(tmp_path):
    assert_matches_golden("solve", tmp_path)


def test_rolling_study_matches_golden(tmp_path):
    assert_matches_golden("rolling", tmp_path)


if __name__ == "__main__":
    for name, run in RUNS.items():
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as work:
            run(target, Path(work))
        (target / "manifest.json").unlink()
        print(f"wrote {target}")
