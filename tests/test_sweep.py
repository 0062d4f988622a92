"""Configuration parsing, sweep runners, and the CSV output format."""

import ctypes
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy

from kicked_ising import (
    CapacityError,
    ConfigError,
    FloquetParams,
    SweepConfig,
    average_return,
    check_time_reflection,
    evolve_stroboscopic,
    gap_statistics,
    parse_config,
    polarized_state,
    propagator_spectrum,
    run_sweep,
)

from kicked_ising import blas, cli, spectral, sweep

from conftest import file_without_provenance, read_result_csv


def make_config(**overrides) -> SweepConfig:
    base = dict(
        mode="lifetime-scan",
        lengths=(4,),
        jt_over_pi=(0.9,),
        epsilon_over_pi=(0.1,),
        n_periods=600,
        out="out.csv",
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestParseConfig:
    def test_grid_syntaxes(self, tmp_path):
        config = parse_config(
            [
                "lifetime-scan",
                "-L", "4:8:2",
                "--jt-over-pi", "0.5:1.5:3",
                "--epsilon-over-pi", "0.05,0.1",
                "--out", str(tmp_path / "scan.csv"),
            ]
        )
        assert config.lengths == (4, 6, 8)
        assert config.jt_over_pi == (0.5, 1.0, 1.5)
        assert config.epsilon_over_pi == (0.05, 0.1)
        assert config.n_periods == 100_000  # lifetime-scan default horizon

    def test_mode_dependent_period_default(self, tmp_path):
        config = parse_config(
            ["evolve", "-L", "4", "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.1",
             "--out", str(tmp_path / "e.csv")]
        )
        assert config.n_periods == 2000
        assert config.threshold == 0.05
        assert config.window == 1000
        assert config.jobs == 1

    def test_config_file_with_flag_override(self, tmp_path):
        config_file = tmp_path / "run.json"
        config_file.write_text(
            json.dumps(
                {
                    "length": "4,6",
                    "jt-over-pi": 0.9,
                    "epsilon-over-pi": [0.05, 0.1],
                    "periods": 1234,
                    "out": str(tmp_path / "file.csv"),
                }
            )
        )
        config = parse_config(
            ["lifetime-scan", "--config", str(config_file), "--periods", "777"]
        )
        assert config.lengths == (4, 6)
        assert config.epsilon_over_pi == (0.05, 0.1)
        assert config.n_periods == 777  # explicit flag wins over the file
        assert config.out == str(tmp_path / "file.csv")

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_dump_spectra_takes_only_a_json_boolean(self, tmp_path, value):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({"dump_spectra": value}))
        argv = ["spectrum", "-L", "4", "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.1",
                "--config", str(config_file), "--out", str(tmp_path / "s.csv")]
        with pytest.raises(ConfigError, match="dump_spectra: expected true or false"):
            parse_config(argv)
        assert cli.main(argv) == 2
        assert not (tmp_path / "s.csv").exists()
        config_file.write_text(json.dumps({"dump_spectra": False}))
        assert parse_config(argv).dump_spectra is False

    @pytest.mark.parametrize("key, value, expected", [
        ("periods", True, "an integer"), ("periods", 40.0, "an integer"),
        ("window", "12", "an integer"), ("jobs", 2.7, "an integer"),
        ("threshold", "0.3", "a number"), ("threshold", False, "a number"),
        ("out", 5, "a string"),
    ])
    def test_scalar_keys_take_only_their_json_type(self, tmp_path, key, value, expected):
        config_file = tmp_path / "run.json"
        values = {"length": 4, "jt_over_pi": 0.9, "epsilon_over_pi": 0.1, "periods": 40,
                  "out": str(tmp_path / "x.csv"), key: value}
        config_file.write_text(json.dumps(values))
        argv = ["lifetime-scan", "--config", str(config_file)]
        with pytest.raises(ConfigError, match=f"{key}: expected {expected}, got"):
            parse_config(argv)
        assert cli.main(argv) == 2
        assert list(tmp_path.iterdir()) == [config_file]

    @pytest.mark.parametrize("mode", sweep.MODES)
    def test_config_file_and_flags_give_the_same_config(self, tmp_path, mode):
        """Every key the mode has a flag for, once from a config file and once as flags."""
        out = str(tmp_path / "x.csv")
        values = {"mode": mode, "length": [4], "jt-over-pi": "0.5:1.5:3",
                  "epsilon_over_pi": [0.1, 0.2], "periods": 400, "threshold": 0.3,
                  "window": 100, "out": out, "jobs": 2}
        flags = ["-L", "4", "--jt-over-pi", "0.5,1.0,1.5", "--epsilon-over-pi", "0.1,0.2",
                 "--periods", "400", "--threshold", "0.3", "--window", "100", "--out", out,
                 "--jobs", "2"]
        if mode == "spectrum":
            values["dump_spectra"] = True
            flags.append("--dump-spectra")
        assert {key.replace("-", "_") for key in values} - {"mode"} == (
            set(sweep._SETTINGS) - ({"dump_spectra"} if mode != "spectrum" else set()))
        expected = SweepConfig(mode=mode, lengths=(4,), jt_over_pi=(0.5, 1.0, 1.5),
                               epsilon_over_pi=(0.1, 0.2), n_periods=400, threshold=0.3,
                               window=100, out=out, jobs=2, dump_spectra=mode == "spectrum")
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps(values))
        assert parse_config([mode, "--config", str(config_file)]) == expected
        assert parse_config([mode, *flags]) == expected

    def test_unknown_config_key_rejected(self, tmp_path):
        config_file = tmp_path / "run.json"
        config_file.write_text(json.dumps({"lengths": [4]}))  # should be "length"
        with pytest.raises(ConfigError, match="unknown config keys: lengths"):
            parse_config(["evolve", "--config", str(config_file)])

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(["evolve", "--config", str(tmp_path / "nope.json")])

    def test_problems_are_aggregated(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(
                ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9",
                 "--epsilon-over-pi", "0.1", "--threshold", "1.5", "--jobs", "0",
                 "--out", "x.csv"]
            )
        message = str(excinfo.value)
        assert "threshold" in message and "jobs" in message

    def test_empty_grid_is_an_error(self):
        with pytest.raises(ConfigError, match="jt-over-pi"):
            parse_config(["evolve", "-L", "4", "--epsilon-over-pi", "0.1", "--out", "x.csv"])

    def test_capacity_is_a_distinct_error(self):
        with pytest.raises(CapacityError, match="14-site cap"):
            parse_config(
                ["spectrum", "-L", "30", "--jt-over-pi", "1.0",
                 "--epsilon-over-pi", "0.1", "--out", "x.csv"]
            )

    def test_bad_grid_string(self):
        with pytest.raises(ConfigError, match="--length"):
            parse_config(["evolve", "-L", "4:x", "--jt-over-pi", "1.0",
                          "--epsilon-over-pi", "0.1", "--out", "x.csv"])


class TestSweepConfigValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "0:inf:3"])
    def test_non_finite_drive_parameters_exit_two(self, tmp_path, value):
        for flag in ("--jt-over-pi", "--epsilon-over-pi"):
            argv = ["evolve", "-L", "4", "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1",
                    "--periods", "4", "--out", str(tmp_path / "e.csv")]
            argv[argv.index(flag) + 1] = value
            with pytest.raises(ConfigError, match="drive parameters must be finite"):
                parse_config(argv)
            assert cli.main(argv) == 2
        assert list(tmp_path.iterdir()) == []

    def test_phase_diagram_needs_one_length(self):
        config = make_config(mode="phase-diagram", lengths=(4, 6), window=100, n_periods=400)
        with pytest.raises(ConfigError, match="single chain length"):
            config.validate()

    def test_phase_diagram_needs_enough_periods(self):
        config = make_config(mode="phase-diagram", window=400, n_periods=400)
        with pytest.raises(ConfigError, match="2\\*window"):
            config.validate()

    def test_fourier_needs_two_periods(self, tmp_path):
        """One sample has no DFT: refused up front, not written as an error row."""
        argv = ["fourier", "-L", "4", "--jt-over-pi", "1.0", "--epsilon-over-pi", "0.05",
                "--periods", "1", "--out", str(tmp_path / "f.csv")]
        with pytest.raises(ConfigError, match="fourier needs at least 2 periods"):
            parse_config(argv)
        assert cli.main(argv) == 2
        assert list(tmp_path.iterdir()) == []
        argv[argv.index("--periods") + 1] = "2"
        assert cli.main(argv) == 0
        assert read_result_csv(tmp_path / "f.csv")[1][0]["error"] == ""

    def test_grid_order_is_row_major(self):
        config = make_config(lengths=(4, 6), jt_over_pi=(0.5, 1.0), epsilon_over_pi=(0.1,))
        assert config.grid() == [(4, 0.5, 0.1), (4, 1.0, 0.1), (6, 0.5, 0.1), (6, 1.0, 0.1)]

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            run_sweep(make_config(mode="anneal"))


class TestLifetimeScan:
    def test_rows_and_roundtrip(self, tmp_path):
        out = tmp_path / "scan.csv"
        config = make_config(
            lengths=(4,), jt_over_pi=(0.9, 1.0), epsilon_over_pi=(0.1,),
            n_periods=600, out=str(out),
        )
        result = run_sweep(config)
        assert [row["jt_over_pi"] for row in result.rows] == [0.9, 1.0]

        decaying, frozen = result.rows
        assert decaying["n_star"] == 255 and decaying["censored"] is False
        assert frozen["n_star"] is None and frozen["censored"] is True
        assert frozen["n_max_pairs"] == 300

        header, rows = read_result_csv(out)
        assert header["config"]["mode"] == "lifetime-scan"
        assert header["provenance"]["tool"] == "kicked-ising"
        assert rows[0]["n_star"] == "255"
        assert rows[1]["n_star"] == ""            # None -> empty cell
        assert rows[1]["censored"] == "true"      # bool -> true/false
        assert float(rows[0]["jt_over_pi"]) == 0.9  # repr round-trips exactly
        assert rows[0]["error"] == ""

        # One period holds no even period: zero pairs, censored, and no error.
        run_sweep(make_config(n_periods=1, out=str(out)))
        _, rows = read_result_csv(out)
        assert (rows[0]["n_max_pairs"], rows[0]["n_star"], rows[0]["censored"],
                rows[0]["error"]) == ("0", "", "true", "")

    # Lifetimes below were measured with the iterative engine (acceptance criteria 05-07).
    def test_frozen_lifetimes_by_length(self, tmp_path):
        config = make_config(lengths=tuple(range(6, 12)), n_periods=60_000,
                             out=str(tmp_path / "scan.csv"))
        rows = run_sweep(config).rows
        assert [row["n_star"] for row in rows] == [1676, 3615, 11705, 26671, None, None]
        assert [row["error"] for row in rows] == [None] * 6

    def test_frozen_lifetimes_by_interaction_phase(self, tmp_path):
        config = make_config(lengths=(11,), jt_over_pi=(0.75, 0.85, 0.95, 1.0, 1.05, 1.25),
                             n_periods=100_000, out=str(tmp_path / "scan.csv"))
        rows = run_sweep(config).rows
        assert [row["n_star"] for row in rows] == [16760, None, None, None, None, 16760]
        assert [row["censored"] for row in rows] == [False, True, True, True, True, False]

    def test_frozen_lifetimes_at_ten_and_eleven_sites(self, tmp_path):
        """Horizons too long to iterate here; a Schur decomposition of the translation- and
        reflection-symmetric sector gave the same n*."""
        config = make_config(lengths=(10, 11), n_periods=400_000, out=str(tmp_path / "scan.csv"))
        rows = run_sweep(config).rows
        assert [row["n_star"] for row in rows] == [80265, 191478]


#: case -> (mode, config fields, engine of each grid point); one engine per mode.
JOBS_CASES = {
    "evolve": ("evolve", dict(lengths=(3, 4), jt_over_pi=(0.9, 1.0), n_periods=16, window=4),
               ["iterative"] * 4),
    "lifetime-scan": ("lifetime-scan", dict(lengths=(4, 12), jt_over_pi=(0.9, 1.0),
                                            n_periods=400), ["free-fermion"] * 4),
    "phase-diagram": ("phase-diagram", dict(lengths=(4,), jt_over_pi=(0.5, 1.0),
                                            n_periods=80, window=40), ["free-fermion"] * 2),
    "phase-diagram-iterative": ("phase-diagram", dict(lengths=(4,), jt_over_pi=(0.5, 1.0),
                                                      n_periods=4, window=2), ["free-fermion"] * 2),
    "spectrum": ("spectrum", dict(lengths=(4, 6), jt_over_pi=(1.0,), dump_spectra=True),
                 ["momentum"] * 2),
    "fourier": ("fourier", dict(lengths=(4, 10), jt_over_pi=(1.0, 0.9), epsilon_over_pi=(0.05,),
                                n_periods=64), ["free-fermion"] * 4),
}


def test_pool_never_asks_for_more_workers_than_points(monkeypatch, tmp_path):
    """``--jobs 64`` on a two-point grid asks the pool for two workers (mapped serially here)."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, worker, tasks):
            return map(worker, tasks)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    argv = ["lifetime-scan", "-L", "4", "--jt-over-pi", "0.9", "--epsilon-over-pi", "0.1,0.2",
            "--periods", "10", "--jobs", "64", "--out", str(tmp_path / "scan.csv")]
    assert cli.main(argv) == 0
    assert asked == [2]


@pytest.mark.parametrize("case", list(JOBS_CASES))
def test_jobs_do_not_change_the_bytes(case, tmp_path):
    mode, fields, paths = JOBS_CASES[case]
    written = {}
    for jobs in (1, 2):
        (tmp_path / f"jobs{jobs}").mkdir()
        config = make_config(mode=mode, out=str(tmp_path / f"jobs{jobs}" / "out.csv"),
                             jobs=jobs, **fields)
        result = run_sweep(config)
        assert read_result_csv(result.path)[0]["provenance"]["paths"] == paths
        written[jobs] = {path.name: file_without_provenance(path)
                         for path in [result.path, *result.aux_files]}
    if mode not in ("lifetime-scan", "phase-diagram"):
        assert len(written[1]) > 1  # the aux curves are compared too
    assert written[1] == written[2]


def _cli_files_by_jobs(tmp_path, argv) -> dict:
    """Every file one CLI run writes, provenance removed, at ``--jobs`` 1 and 2."""
    written = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}" / "e.csv"
        out.parent.mkdir()
        assert cli.main([*argv, "--jobs", str(jobs), "--out", str(out)]) == 0
        written[jobs] = {path.name: file_without_provenance(path)
                         for path in sorted(out.parent.iterdir())}
    return written


def test_jobs_do_not_change_the_bytes_at_sixteen_sites(tmp_path):
    """A parent on the default OpenBLAS threads against one-thread pool workers.

    At 2**16 amplitudes the kick's matrix products are large enough for BLAS
    to thread them, so the summary and both series files pin that the result
    does not depend on the thread count.
    """
    written = _cli_files_by_jobs(tmp_path, ["evolve", "-L", "16", "--jt-over-pi", "0.9,1.0",
                                            "--epsilon-over-pi", "0.1", "--periods", "8"])
    assert sorted(written[1]) == ["e.csv", "e_series_000.csv", "e_series_001.csv"]
    assert written[1] == written[2]


def test_jobs_do_not_change_the_spectrum_bytes(tmp_path):
    """LAPACK's eigenvalues depend on the OpenBLAS thread count; the blocks run on one.

    The parent process at ``--jobs 1`` has the default threads, pool workers one.
    """
    written = _cli_files_by_jobs(tmp_path, ["spectrum", "-L", "8:10:2", "--jt-over-pi", "0.5,1.0",
                                            "--epsilon-over-pi", "0.1,0.2341", "--dump-spectra"])
    assert len(written[1]) == 9
    assert written[1] == written[2]


def test_jobs_do_not_change_the_sector_bytes(tmp_path):
    """The polarized-start stream gives the same bytes in the parent and in pool workers."""
    written = _cli_files_by_jobs(tmp_path, ["phase-diagram", "-L", "10",
                                            "--jt-over-pi", "0.5,0.9,1.0",
                                            "--epsilon-over-pi", "0.1,0.2341",
                                            "--window", "500", "--periods", "1000"])
    assert sorted(written[1]) == ["e.csv"]
    assert written[1] == written[2]


def _blas_threads(_task=None) -> list[int]:
    """OpenBLAS thread counts of this process, one per numpy/scipy wheel library."""
    counts = []
    for package in (np, scipy):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in libs.glob("*openblas*"):
            library = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads"):
                if hasattr(library, name):
                    counts.append(getattr(library, name)())
                    break
    return counts


def test_pool_workers_run_one_blas_thread():
    parent = _blas_threads()
    if not parent:
        pytest.skip("no OpenBLAS in the numpy or scipy wheel directories")
    assert sweep._run_points(_blas_threads, [0, 1], 2) == [[1] * len(parent)] * 2
    assert _blas_threads() == parent
    with blas.one_thread():
        assert _blas_threads() == [1] * len(parent)
    assert _blas_threads() == parent


class TestEvolve:
    def test_series_files_match_library(self, tmp_path):
        out = tmp_path / "evolve.csv"
        config = make_config(
            mode="evolve", lengths=(3,), jt_over_pi=(0.9,), epsilon_over_pi=(0.1,),
            n_periods=8, window=4, out=str(out),
        )
        result = run_sweep(config)
        row = result.rows[0]
        assert row["series_file"] == "evolve_series_000.csv"
        assert row["window_used"] == 4
        series_path = tmp_path / row["series_file"]
        header, series_rows = read_result_csv(series_path)
        assert header is None
        assert len(series_rows) == 8
        assert list(series_rows[0]) == ["n", "t", "return_probability", "sz_0", "sz_1", "sz_2"]

        params = FloquetParams.from_dimensionless(3, 0.9, 0.1)
        reference = evolve_stroboscopic(polarized_state(3), params, 8, ("return_probability", "sz"))
        for k, series_row in enumerate(series_rows):
            assert int(series_row["n"]) == k + 1
            assert float(series_row["return_probability"]) == reference.return_probability[k]
            assert float(series_row["sz_1"]) == reference.sz[k, 1]

        assert row["average_return"] == pytest.approx(
            average_return(reference.return_probability[1::2], 4)
        )


class TestPhaseDiagram:
    def test_cell_values(self, tmp_path):
        config = make_config(
            mode="phase-diagram", lengths=(4,), jt_over_pi=(0.5, 1.0),
            epsilon_over_pi=(0.1,), n_periods=80, window=40,
            out=str(tmp_path / "map.csv"),
        )
        result = run_sweep(config)
        assert len(result.rows) == 2
        params = FloquetParams.from_dimensionless(4, 0.5, 0.1)
        even = evolve_stroboscopic(polarized_state(4), params, 80).return_probability[1::2]
        assert result.rows[0]["average_return"] == pytest.approx(average_return(even, 40))
        # The frozen drive holds the polarized state far better than the melted one.
        assert result.rows[1]["average_return"] > 0.85
        assert result.rows[0]["average_return"] < 0.35


class TestSpectrumReport:
    def test_counts_and_dump(self, tmp_path):
        out = tmp_path / "spec.csv"
        config = make_config(
            mode="spectrum", lengths=(4, 6), jt_over_pi=(1.0,), epsilon_over_pi=(0.1,),
            out=str(out), dump_spectra=True,
        )
        result = run_sweep(config)
        four, six = result.rows
        assert (four["n_zero"], four["n_pi"]) == (4, 6)
        assert four["reflection_residual"] < 1e-12
        # At L = 6 every level is anchored, so the rank pairing is exact; at
        # L = 4 the six unanchored levels keep the ratio O(1).
        assert (six["n_zero"], six["n_pi"]) == (12, 12)
        assert six["ratio"] < 1e-10
        assert four["ratio"] > 0.1
        _, dumped = read_result_csv(tmp_path / four["spectrum_file"])
        assert len(dumped) == 16
        energies = np.array([float(r["quasi_energy"]) for r in dumped])
        assert np.all(np.diff(energies) >= 0)

    def test_no_dense_build_per_point(self, tmp_path, monkeypatch):
        """Neither the block spectrum nor the factored reflection check builds a dense U."""
        built = []
        build = spectral.build_dense_propagator

        def counted(params):
            built.append(params.L)
            return build(params)

        monkeypatch.setattr(spectral, "build_dense_propagator", counted)
        config = make_config(mode="spectrum", lengths=(4, 6), jt_over_pi=(1.0, 0.5),
                             epsilon_over_pi=(0.2341,), out=str(tmp_path / "spec.csv"))
        rows = run_sweep(config).rows
        assert built == []
        monkeypatch.undo()
        for row in rows:
            params = FloquetParams.from_dimensionless(row["L"], row["jt_over_pi"], 0.2341)
            assert row["reflection_residual"] == check_time_reflection(params)
            assert row["ratio"] == gap_statistics(propagator_spectrum(params)).ratio


class TestFourier:
    def test_subharmonic_peak_and_files(self, tmp_path):
        out = tmp_path / "fft.csv"
        config = make_config(
            mode="fourier", lengths=(4,), jt_over_pi=(1.0,), epsilon_over_pi=(0.05,),
            n_periods=64, out=str(out),
        )
        result = run_sweep(config)
        row = result.rows[0]
        assert row["peak_bin"] == 32
        assert row["peak_frequency"] == pytest.approx(0.5)
        assert row["subharmonic_magnitude"] == row["peak_magnitude"]
        _, dumped = read_result_csv(tmp_path / row["spectrum_file"])
        assert len(dumped) == 64

    def test_worker_error_is_recorded_not_raised(self, tmp_path, monkeypatch):
        def refuse(samples):
            raise ValueError("the DFT refuses")

        monkeypatch.setattr(sweep, "fourier_spectrum", refuse)
        config = make_config(
            mode="fourier", lengths=(4,), jt_over_pi=(1.0,), epsilon_over_pi=(0.05,),
            n_periods=64, out=str(tmp_path / "fft.csv"),
        )
        result = run_sweep(config)
        row = result.rows[0]
        assert row["error"].startswith("ValueError")
        assert row["peak_bin"] is None
        _, rows = read_result_csv(tmp_path / "fft.csv")
        assert len(rows) == 1 and rows[0]["error"] != ""


def test_benchmark_tracer_bindings_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists on the package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, attr, _ in (*tracer.WRAPPED, tracer.STREAMED):
        assert hasattr(importlib.import_module(f"kicked_ising.{short}"), attr), f"{short}.{attr}"
