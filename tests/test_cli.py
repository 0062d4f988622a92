"""Command-line behaviour: exit codes, flag plumbing, and the entry point."""

import csv
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import kicked_ising
from kicked_ising import sweep
from kicked_ising.cli import main

from conftest import read_result_csv


def test_success_returns_zero(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
         "--epsilon-over-pi", "0.1", "--periods", "600", "--out", str(out)]
    )
    assert code == 0
    assert "wrote 1 row(s)" in capsys.readouterr().out
    header, rows = read_result_csv(out)
    assert rows[0]["n_star"] == "255"


def test_config_error_returns_two(tmp_path, capsys):
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
         "--epsilon-over-pi", "0.1", "--threshold", "2.0",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_capacity_error_returns_three(tmp_path, capsys):
    code = main(
        ["spectrum", "-L", "30", "--jt-over-pi", "1.0",
         "--epsilon-over-pi", "0.1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_io_error_returns_four(tmp_path, capsys):
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
         "--epsilon-over-pi", "0.1", "--periods", "40",
         "--out", str(tmp_path / "missing" / "x.csv")]
    )
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    """A write that fails mid-file leaves neither the target nor its temp file."""

    def failing_writer(handle, **kwargs):
        real = csv.writer(handle, **kwargs)

        class Writer:
            calls = 0

            def writerow(self, row):
                self.calls += 1
                if self.calls > 1:  # the column header goes out, the first row fails
                    raise OSError("No space left on device")
                real.writerow(row)
        return Writer()

    monkeypatch.setattr(sweep, "csv", SimpleNamespace(writer=failing_writer))
    out = tmp_path / "scan.csv"
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
         "--epsilon-over-pi", "0.1", "--periods", "40", "--out", str(out)]
    )
    assert code == 4
    assert "No space left" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_summary_write_removes_aux_files(tmp_path, monkeypatch, capsys):
    """The aux files of a run whose summary could not be written are removed again."""
    real_write = sweep._write_csv

    def failing_write(path, columns, rows, header=None):
        if header is not None:  # only the summary carries a header
            raise OSError("No space left on device")
        real_write(path, columns, rows, header)

    monkeypatch.setattr(sweep, "_write_csv", failing_write)
    code = main(
        ["evolve", "-L", "3", "--jt-over-pi", "0.9,1.0", "--epsilon-over-pi", "0.1",
         "--periods", "8", "--out", str(tmp_path / "e.csv")]
    )
    assert code == 4
    assert "No space left" in capsys.readouterr().err
    assert list(tmp_path.glob("e_series_*.csv")) == []
    assert list(tmp_path.iterdir()) == []


_TEST_PID = os.getpid()


def _die_in_worker(params, config):
    if os.getpid() == _TEST_PID:  # never take the test run down with it
        raise RuntimeError("expected to run in a pool worker")
    os._exit(1)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched mode table reaches pool workers only by fork")
def test_crashed_worker_returns_five(tmp_path, monkeypatch, capsys):
    """A pool worker that dies gives exit 5, a one-line message and no CSV."""
    row = sweep._MODES["lifetime-scan"]
    monkeypatch.setitem(sweep._MODES, "lifetime-scan", row._replace(point=_die_in_worker))
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9,1.0", "--epsilon-over-pi", "0.1",
         "--periods", "40", "--jobs", "2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["evolve", "--frequency", "3"])
    assert excinfo.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_config_file_flow(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(
        json.dumps(
            {
                "length": 4,
                "jt-over-pi": 1.0,
                "epsilon-over-pi": 0.05,
                "periods": 64,
                "out": str(tmp_path / "fft.csv"),
            }
        )
    )
    assert main(["fourier", "--config", str(config_file), "--periods", "32"]) == 0
    header, rows = read_result_csv(tmp_path / "fft.csv")
    assert header["config"]["n_periods"] == 32  # flag overrode the file
    assert rows[0]["peak_bin"] == "16"


@pytest.mark.skipif(
    shutil.which("kicked-ising") is None,
    reason="kicked-ising console script is not installed on PATH",
)
def test_console_script_entry_point(tmp_path):
    """The installed script must work outside this interpreter."""
    out = tmp_path / "spec.csv"
    completed = subprocess.run(
        ["kicked-ising", "spectrum", "-L", "4", "--jt-over-pi", "1.0",
         "--epsilon-over-pi", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    _, rows = read_result_csv(out)
    assert rows[0]["n_zero"] == "4"


def test_module_invocation(tmp_path):
    # The child imports the package this test imported, installed or not.
    package_root = str(Path(kicked_ising.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    completed = subprocess.run(
        [sys.executable, "-m", "kicked_ising.cli", "evolve", "-L", "3",
         "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1", "--periods", "8",
         "--out", str(tmp_path / "e.csv")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "e_series_000.csv").exists()
