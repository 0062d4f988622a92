"""Command-line behaviour: exit codes, flag plumbing, and the entry point."""

import csv
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import kicked_ising
from kicked_ising import cli, sweep
from kicked_ising.cli import main

from conftest import file_without_provenance, read_result_csv


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
    # only spectrum takes the switch: a config file giving it to another mode is refused
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"dump-spectra": True}))
    code = main(["evolve", "-L", "3", "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1",
                 "--config", str(config_file), "--out", str(tmp_path / "e.csv")])
    assert code == 2
    assert "dump_spectra: only spectrum dumps spectra, not evolve" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config_file]


def test_capacity_error_returns_three(tmp_path, capsys):
    code = main(
        ["spectrum", "-L", "30", "--jt-over-pi", "1.0",
         "--epsilon-over-pi", "0.1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "capacity" in capsys.readouterr().err


@pytest.mark.parametrize("mode", sweep.MODES)
def test_a_huge_chain_is_refused_at_once(tmp_path, capsys, mode):
    """The estimates build no 2**L array or integer, so any L is refused in milliseconds."""
    started = time.perf_counter()
    code = main([mode, "-L", "1000000000000", "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.1",
                 "--out", str(tmp_path / "x.csv")])
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert "L=1000000000000: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, L, periods", [("fourier", "4", "16777217"),
                                              ("evolve", "16", "2097153")])
def test_a_long_horizon_is_refused_at_once(tmp_path, capsys, mode, L, periods):
    """A series over the budget exits 3 before any point runs, and writes nothing."""
    started = time.perf_counter()
    code = main([mode, "-L", L, "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.1",
                 "--periods", periods, "--out", str(tmp_path / "x.csv")])
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert f"of {periods} periods needs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, L, periods", [("fourier", "4", "16777217"),
                                              ("evolve", "16", "2097153")])
def test_a_request_just_over_the_budget_prints_both_byte_counts(tmp_path, capsys, mode, L, periods):
    """One period past the horizon: rounded to MiB the request reads 256 like the budget, so
    the message also prints both in bytes, and those differ."""
    code = main([mode, "-L", L, "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.1",
                 "--periods", periods, "--out", str(tmp_path / "x.csv")])
    assert code == 3
    needs, budget = re.search(r"\((\d+) > (\d+) bytes\)", capsys.readouterr().err).groups()
    assert needs != budget
    assert int(budget) == kicked_ising.MAX_ARRAY_BYTES


def test_io_error_returns_four(tmp_path, capsys):
    code = main(
        ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
         "--epsilon-over-pi", "0.1", "--periods", "40",
         "--out", str(tmp_path / "missing" / "x.csv")]
    )
    assert code == 4
    assert "cannot write" in capsys.readouterr().err


def test_unexpected_error_propagates_and_leaves_no_file(tmp_path, monkeypatch):
    """An exception with no exit code of its own leaves ``main``: Python prints the
    traceback and exits 1.  The evolve run had written its series file; none is left."""

    def broken_echo(config):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(sweep, "_config_echo", broken_echo)
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["evolve", "-L", "4", "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1",
              "--periods", "8", "--out", str(tmp_path / "x.csv")])
    assert list(tmp_path.iterdir()) == []


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
    monkeypatch.setattr(sweep, "_TASK_WORK", 0)  # a task per point, so two workers start
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


def _child_env() -> dict:
    """The environment of a child that imports the package this test imported, installed or not."""
    package_root = str(Path(kicked_ising.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_module_invocation(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-m", "kicked_ising.cli", "evolve", "-L", "3",
         "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1", "--periods", "8",
         "--out", str(tmp_path / "e.csv")],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert completed.returncode == 0, completed.stderr
    assert (tmp_path / "e_series_000.csv").exists()


#: Every mode at four sites, then the dense oracle of the levels, with scipy unimportable.
_WITHOUT_SCIPY = """
import sys
sys.modules['scipy'] = None
from pathlib import Path
from kicked_ising import FloquetParams, build_dense_propagator, quasi_energies, sweep
from kicked_ising.cli import main
sweep._TASK_WORK = 0  # a task per point, so phase-diagram's two points start two workers
drive = ['-L', '4', '--jt-over-pi', '0.9,1.0', '--epsilon-over-pi', '0.1']
for mode, extra in (('evolve', ['--periods', '8']), ('lifetime-scan', ['--periods', '200']),
                    ('phase-diagram', ['--periods', '40', '--window', '20', '--jobs', '2']),
                    ('fourier', ['--periods', '64']), ('spectrum', ['--dump-spectra'])):
    assert main([mode, *drive, *extra, '--out', str(Path(sys.argv[1]) / f'{mode}.csv')]) == 0, mode
assert quasi_energies(build_dense_propagator(FloquetParams(4, 0.9, 0.1)).matrix).dim == 16
"""


def test_every_mode_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: no mode, the process pool and the dense oracle included,
    imports it."""
    completed = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                               capture_output=True, text=True, timeout=120, env=_child_env())
    assert completed.returncode == 0, completed.stderr
    for mode in ("evolve", "lifetime-scan", "phase-diagram", "fourier", "spectrum"):
        header, rows = read_result_csv(tmp_path / f"{mode}.csv")
        assert len(rows) == 2 and all(row["error"] == "" for row in rows), mode
        assert header["provenance"]["workers"] == (2 if mode == "phase-diagram" else 0), mode


#: One period of an 18-site evolve: ``_threads`` then reads the BLAS thread count.
_EVOLVE_18 = ("from kicked_ising import FloquetParams, evolve_stroboscopic, polarized_state; "
              "evolve_stroboscopic(polarized_state(18), FloquetParams(18, 0.9, 0.1), 1); ")


@pytest.mark.parametrize("script", ["", _EVOLVE_18], ids=["launch", "evolve-18"])
def test_cli_import_leaves_scipy_and_multiprocessing_out(script):
    """Neither a launch nor an evolve split over two BLAS threads imports scipy (only the tests
    need it) or the process pool (only ``--jobs`` > 1 runs one)."""
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, kicked_ising.cli; " + script +
                               "print(sorted({'scipy', 'multiprocessing'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env={**_child_env(), "OPENBLAS_NUM_THREADS": "2"},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_evolve_data_do_not_depend_on_the_blas_threads(tmp_path):
    """An 18-site evolve, whose loop is split over two BLAS threads or runs on one, writes the
    same CSV data sections under either count: sz comes from the pass-2 blocks, whose
    geometry follows L alone."""
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / threads / "e.csv"
        out.parent.mkdir()
        completed = subprocess.run(
            [sys.executable, "-m", "kicked_ising.cli", "evolve", "-L", "18", "--jt-over-pi", "0.9",
             "--epsilon-over-pi", "0.1", "--periods", "4", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": threads},
        )
        assert completed.returncode == 0, completed.stderr
        written[threads] = {path.name: file_without_provenance(path)
                            for path in sorted(out.parent.iterdir())}
    assert sorted(written["1"]) == ["e.csv", "e_series_000.csv"]
    assert written["1"] == written["2"]


def test_other_runtime_errors_propagate(monkeypatch):
    """Only a broken pool exits 5; any other RuntimeError leaves ``main`` as it was raised."""
    def fail(config):
        raise RuntimeError("not a pool")

    monkeypatch.setattr(cli, "run_sweep", fail)
    with pytest.raises(RuntimeError, match="not a pool"):
        main(["evolve", "-L", "3", "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1",
              "--periods", "4"])
