"""Command-line entry point: subcommands, outputs, exit codes."""

import pytest

from hydrodisc import confined
from hydrodisc.cli import EXIT_INTERNAL, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from hydrodisc.fd_eigensolver import oracle_energy
from hydrodisc.free_atom import StateLabel
from hydrodisc.specfun import ConvergenceError
from hydrodisc.sweep import CSV_HEADER, parse_csv, table1_text


def test_table1_to_stdout(capsys):
    assert main(["table1"]) == EXIT_OK
    assert capsys.readouterr().out == table1_text()


def test_table1_to_file(tmp_path, capsys):
    target = tmp_path / "table1.csv"
    assert main(["table1", "--out", str(target)]) == EXIT_OK
    assert target.read_text() == table1_text()
    assert str(target) in capsys.readouterr().out


def test_sweep_writes_expected_files(tmp_path, capsys):
    code = main(
        [
            "sweep",
            "--states", "1,0;2,1",
            "--r0-min", "1.0",
            "--r0-max", "4.0",
            "--points", "2",
            "--plot-data",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    rows = parse_csv(str(tmp_path / "sweep.csv"))
    assert len(rows) == 4
    assert all(row.error is None for row in rows)

    echo = (tmp_path / "sweep_config.txt").read_text()
    assert "states=1,0;2,1\n" in echo
    assert "points=2\n" in echo
    assert "jobs=1\n" in echo

    dats = sorted(p.name for p in (tmp_path / "plot_data").iterdir())
    assert len(dats) == 12
    assert "sweep: 4 rows (0 failed)" in capsys.readouterr().out


def test_tight_walls_of_n4_and_n5_states_build(tmp_path, capsys):
    """4s, 5s and 5p tables build down to the smallest supported wall."""
    code = main(
        [
            "sweep",
            "--states", "4,0;5,0;5,1",
            "--r0-min", "0.05",
            "--r0-max", "1",
            "--points", "2",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    rows = parse_csv(str(tmp_path / "sweep.csv"))
    assert len(rows) == 6
    assert all(row.error is None for row in rows)
    assert "sweep: 6 rows (0 failed)" in capsys.readouterr().out


def test_sweep_flags_override_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("points=3\nr0_min=1.0\nr0_max=4.0\nstates=1,0\n")
    out = tmp_path / "run"
    code = main(
        ["sweep", "--config", str(cfg), "--points", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    rows = parse_csv(str(out / "sweep.csv"))
    assert [row.r0 for row in rows] == [1.0, 4.0]
    assert (out / "sweep_config.txt").read_text().count("points=2") == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["scan"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(capsys):
    code = main(["sweep", "--points", "1", "--out", "/tmp/unused-hydrodisc"])
    assert code == EXIT_USAGE
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    code = main(["sweep", "--jobs", jobs, "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert "usage error: --jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_state_string_is_usage_error(capsys):
    assert main(["sweep", "--states", "5"]) == EXIT_USAGE
    assert "bad state" in capsys.readouterr().err


def test_empty_state_list_is_usage_error(tmp_path, capsys):
    """An empty --states is refused, as in a config file, not read as the default states."""
    code = main(["sweep", "--states", "", "--points", "2", "--r0-min", "1",
                 "--r0-max", "2", "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert "states list must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("points=2\nr0_min=1.0\nr0_max=2.0\nstates=\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == EXIT_USAGE
    assert "states list must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_repeated_state_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--states", "1,0;1,0", "--points", "2", "--r0-min", "1",
                 "--r0-max", "2", "--out", str(tmp_path / "run")])
    assert code == EXIT_USAGE
    assert "repeats" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_infinite_wall_radius_is_usage_error(tmp_path, capsys, source):
    out = tmp_path / "run"
    if source == "flag":
        argv = ["sweep", "--r0-max", "inf", "--out", str(out)]
    else:
        cfg = tmp_path / "inf.cfg"
        cfg.write_text(f"r0_max=inf\noutput_path={out}\n")
        argv = ["sweep", "--config", str(cfg)]
    assert main(argv) == EXIT_USAGE
    assert "r0_max < inf" in capsys.readouterr().err
    assert not out.exists()


def test_wide_wall_failure_is_isolated(tmp_path, capsys, monkeypatch):
    """A scan cut to reach alpha = 1 misses the 1s optimum at r0 = 50 and 100; both rows stay."""
    monkeypatch.setattr(confined, "_SCAN_REACH", 0.5)
    out = tmp_path / "run"
    code = main(["sweep", "--states", "1,0", "--r0-min", "50", "--r0-max", "100",
                 "--points", "2", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    rows = parse_csv(str(out / "sweep.csv"))
    assert [row.r0 for row in rows] == [50.0, 100.0]
    assert all(row.error.startswith("solve:") and "scan edge" in row.error for row in rows)


def test_bad_spacing_reads_the_same_from_flag_and_config(tmp_path, capsys):
    """--spacing and the spacing config key fail the one SweepConfig check alike."""
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text("spacing=cubic\n")
    errors = []
    for argv in (["sweep", "--spacing", "cubic", "--out", str(tmp_path / "a")],
                 ["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]):
        assert main(argv) == EXIT_USAGE
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0] == "usage error: spacing must be 'log' or 'linear', got 'cubic'\n"
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_config_key_given_twice_is_usage_error(tmp_path, capsys):
    """A repeated key is refused before any output directory is made."""
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("points=40\npoints=3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert f"{cfg}:2: config key 'points' given twice" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_is_io_error(capsys):
    code = main(["sweep", "--config", "/nonexistent/sweep.cfg"])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "i/o failure" in err and "/nonexistent/sweep.cfg" in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_csv_header_contract(tmp_path):
    out = tmp_path / "run"
    main(
        ["sweep", "--states", "1,0", "--r0-min", "2.0", "--r0-max", "3.0",
         "--points", "2", "--out", str(out)]
    )
    first = (out / "sweep.csv").read_text().splitlines()[0]
    assert first == CSV_HEADER


def test_numerical_value_error_is_not_a_usage_error(tmp_path, monkeypatch, capsys):
    """A ValueError raised inside the numerics is an internal error; bad flags still exit 1."""

    def broken_solve(*args, **kwargs):
        raise ValueError("inside the solver")

    monkeypatch.setattr("hydrodisc.sweep.solve", broken_solve)
    argv = ["sweep", "--states", "1,0", "--r0-min", "1.0", "--r0-max", "2.0",
            "--points", "2", "--out", str(tmp_path)]
    assert main(argv) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "ValueError: inside the solver" in err
    assert "usage error" not in err
    assert main(argv[:-3] + ["1", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "points" in capsys.readouterr().err


def test_verify_names_a_failed_grid_point(monkeypatch, capsys):
    """A default-grid point that does not converge ends verify with exit 2, naming it."""

    def stuck_solve(state, r0, **kwargs):
        raise ConvergenceError("alpha bracket did not settle")

    monkeypatch.setattr("hydrodisc.sweep.solve", stuck_solve)
    assert main(["verify"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: 1s r0=0.5 solve: alpha bracket did not settle" in err


@pytest.mark.parametrize(
    "target, value",
    [("hydrodisc.specfun._ROOT_MAXITER", 2),
     ("hydrodisc.fd_eigensolver._nodes", lambda m, r0, energy: 5)],
)
def test_unsettled_oracle_search_in_verify_exits_2(monkeypatch, capsys, target, value):
    """An exact level that Brent's search or the node-count bracket cannot settle exits 2."""
    monkeypatch.setattr(target, value)
    monkeypatch.setattr(
        "hydrodisc.acceptance.run_all",
        lambda verbose: [("oracle", oracle_energy(StateLabel(1, 0), 2.0) < 0.0, "")],
    )
    assert main(["verify"]) == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_verify_summarizes_failed_criteria(monkeypatch, capsys):
    results = [("first", True, "criterion 1 ..."), ("second", False, "criterion 2 ...")]
    monkeypatch.setattr("hydrodisc.acceptance.run_all", lambda verbose: results)
    assert main(["verify"]) == EXIT_NUMERICAL
    assert "1 of 2 criteria FAILED: second" in capsys.readouterr().out
    monkeypatch.setattr("hydrodisc.acceptance.run_all", lambda verbose: results[:1])
    assert main(["verify"]) == EXIT_OK
    assert "all 1 acceptance criteria passed" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--r0-min", "--points"])
def test_non_numeric_flag_is_usage_error(flag, capsys):
    assert main(["sweep", flag, "banana"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flag, key, value",
    [("--p-tail-tolerance", "p_tail_tolerance", "1e-7"),
     ("--quadrature-order", "quadrature_order", "300")],
)
def test_accuracy_knobs_are_not_options(tmp_path, capsys, flag, key, value):
    """The per-point accuracy is fixed: neither a flag nor a config key sets it."""
    assert main(["sweep", flag, value, "--out", str(tmp_path / "a")]) == EXIT_USAGE
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"{key}={value}\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_USAGE
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_rerun_from_the_echo_is_byte_identical(tmp_path):
    first = tmp_path / "a#1"
    argv = ["sweep", "--states", "1,0;2,1", "--r0-min", "1.5", "--r0-max", "3.0",
            "--points", "2", "--spacing", "linear", "--jobs", "2", "--out", str(first)]
    assert main(argv) == EXIT_OK
    echo = first / "sweep_config.txt"
    assert f"output_path={first}\n" in echo.read_text()
    second = tmp_path / "b"
    assert main(["sweep", "--config", str(echo), "--out", str(second)]) == EXIT_OK
    assert (second / "sweep.csv").read_bytes() == (first / "sweep.csv").read_bytes()
    rerun_echo = (second / "sweep_config.txt").read_text()
    assert rerun_echo == echo.read_text().replace(str(first), str(second)).replace(
        "# jobs=2", "# jobs=1"
    )
