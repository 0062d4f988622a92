"""The figure table in ``scripts/figures.py``: valid sweeps, end-to-end runs, pass-through."""

import importlib.util
from pathlib import Path

import pytest

from kicked_ising.sweep import parse_config

from conftest import read_result_csv

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "figures.py"
_SPEC = importlib.util.spec_from_file_location("figures", _PATH)
figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(figures)


@pytest.mark.parametrize("figure", sorted(figures.FIGURES))
def test_every_sweep_parses(figure, tmp_path):
    """Each table entry is a valid configuration, checked without running it."""
    for argv in figures.sweeps(figure, tmp_path):
        config = parse_config(argv)
        assert Path(config.out).parent == tmp_path


def test_dynamics_runs_end_to_end(tmp_path):
    assert figures.main(["dynamics", "--out-dir", str(tmp_path), "-L", "4", "--periods", "8"]) == 0
    header, rows = read_result_csv(tmp_path / "dynamics.csv")
    assert header["config"]["lengths"] == [4]  # the pass-through flags won
    assert header["config"]["n_periods"] == 8
    assert [row["series_file"] for row in rows] == [
        f"dynamics_series_{index:03d}.csv" for index in range(3)]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "dynamics.csv", *(row["series_file"] for row in rows)]


def test_bad_pass_through_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        figures.main(["dynamics", "--out-dir", str(tmp_path), "--frequency", "3"])
    assert excinfo.value.code == 2
    assert not (tmp_path / "dynamics.csv").exists()
