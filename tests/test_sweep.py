"""Sweep orchestration, CSV/plot-file formats, and config merging."""

import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest

from hydrodisc import measures, sweep
from hydrodisc.sweep import (
    CSV_HEADER,
    DEFAULT_STATES,
    SETTINGS,
    SweepConfig,
    SweepRow,
    config_echo,
    config_from,
    emit_csv,
    emit_plot_data,
    evaluate_point,
    parse_csv,
    parse_states,
    radii,
    read_config_file,
    run_sweep,
    table1_text,
)

TINY = SweepConfig(states=((1, 0), (2, 1)), r0_min=1.0, r0_max=4.0, points=2)


@pytest.fixture(scope="module")
def tiny_rows():
    return run_sweep(TINY)


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "n,m,r0,alpha_opt,energy,v_pos,f_pos,cr_pos,"
        "v_mom,f_mom,cr_mom,pos_norm_residual,mom_norm_residual"
    )


def test_default_states():
    assert DEFAULT_STATES == ((1, 0), (2, 0), (2, 1), (3, 2))


def test_radii_log_hits_both_endpoints():
    r = radii(SweepConfig(points=7))
    assert r[0] == 0.5 and r[-1] == 40.0
    ratios = r[1:] / r[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)


def test_radii_linear():
    r = radii(SweepConfig(points=5, spacing="linear", r0_min=1.0, r0_max=3.0))
    assert np.allclose(r, [1.0, 1.5, 2.0, 2.5, 3.0])


def test_sweep_rows_sorted_and_complete(tiny_rows):
    assert [(row.n, row.m, row.r0) for row in tiny_rows] == [
        (1, 0, 1.0),
        (1, 0, 4.0),
        (2, 1, 1.0),
        (2, 1, 4.0),
    ]
    for row in tiny_rows:
        assert row.error is None
        assert row.cr_pos == pytest.approx(row.v_pos * row.f_pos, rel=1e-12)
        assert row.cr_mom == pytest.approx(row.v_mom * row.f_mom, rel=1e-12)
        assert abs(row.pos_norm_residual) < 1e-10
        assert abs(row.mom_norm_residual) < 1e-4


def test_ground_state_sweep_energy_monotone():
    """Twenty log-spaced 1s points: energy never rises as the wall recedes."""
    cfg = SweepConfig(states=((1, 0),), points=20)
    rows = run_sweep(cfg)
    assert len(rows) == 20
    energies = [row.energy for row in rows]
    assert all(e is not None for e in energies)
    assert all(a >= b for a, b in zip(energies, energies[1:]))


def test_csv_round_trip(tiny_rows, tmp_path):
    bad = SweepRow(n=3, m=0, r0=0.75, error="solve: it broke; badly")
    rows = list(tiny_rows) + [bad]
    path = tmp_path / "sweep.csv"
    emit_csv(rows, str(path))
    back = parse_csv(str(path))
    key = attrgetter("n", "m", "r0")
    assert sorted(back, key=key) == sorted(rows, key=key)


def test_csv_failed_row_has_trailing_marker(tmp_path):
    bad = SweepRow(n=2, m=0, r0=0.6, error="momentum: tail tolerance unreachable")
    path = tmp_path / "sweep.csv"
    emit_csv([bad], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    parts = lines[1].split(",")
    assert len(parts) == len(CSV_HEADER.split(",")) + 1
    assert parts[3:-1] == ["nan"] * 10
    assert parts[-1] == "momentum: tail tolerance unreachable"


def test_identical_configs_give_identical_bytes(tiny_rows, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(tiny_rows, str(a))
    emit_csv(run_sweep(TINY), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_parallel_matches_serial(tiny_rows):
    rows = run_sweep(TINY, jobs=2)
    assert rows == list(tiny_rows)


def test_run_sweep_keeps_state_then_radius_order(monkeypatch):
    """Rows come back in (n, m, r0) order with no sort after the map."""
    monkeypatch.setattr(
        sweep, "evaluate_point", lambda n, m, r0: SweepRow(n=n, m=m, r0=r0)
    )
    cfg = SweepConfig(states=((3, 2), (1, 0), (2, 1), (2, 0)), r0_min=1.0, r0_max=4.0, points=3)
    rows = run_sweep(cfg)
    keys = [(row.n, row.m, row.r0) for row in rows]
    assert keys == [(n, m, r0) for n, m in sorted(cfg.states) for r0 in radii(cfg)]


@pytest.mark.parametrize("jobs, pools", [(500, [4]), (3, [3]), (1, [])])
def test_worker_pool_never_exceeds_the_point_count(monkeypatch, jobs, pools):
    """The pool gets min(jobs, points) workers; a single worker runs serially, with no pool."""
    sizes = []

    class InlinePool:
        """Records max_workers and maps in this process, so no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sweep, "evaluate_point", lambda n, m, r0: SweepRow(n=n, m=m, r0=r0))
    rows = run_sweep(TINY, jobs=jobs)
    assert sizes == pools
    assert [(row.n, row.m, row.r0) for row in rows] == [
        (n, m, r0) for n, m in TINY.states for r0 in radii(TINY)
    ]


def test_evaluate_point_isolates_accuracy_failure(monkeypatch):
    # a nan toroidal function makes <p>, and so the momentum variance, nan:
    # momentum_measures raises AccuracyError on a variance that is not positive
    monkeypatch.setattr(measures, "toroidal_q", lambda k, d: np.full_like(d, np.nan))
    row = evaluate_point(1, 0, 2.0)
    assert row.error is not None and row.error.startswith("momentum:")
    assert "," not in row.error and "\n" not in row.error
    # the stages that did succeed keep their numbers
    assert row.energy is not None and row.v_pos is not None
    assert row.v_mom is None


def test_evaluate_point_isolates_position_failure(monkeypatch, tmp_path):
    """A position failure keeps alpha_opt and energy; its CSV row reads nan from v_pos on."""
    rule = measures.radial_rule

    def half_weights(r0):
        r, w = rule(r0)
        return r, 0.5 * w

    monkeypatch.setattr(measures, "radial_rule", half_weights)
    row = evaluate_point(2, 0, 3.0)
    assert row.error == "position: position norm residual 5.000e-01 exceeds 1e-04"
    assert row.alpha_opt is not None and row.energy is not None
    path = tmp_path / "x.csv"
    emit_csv([row], str(path))
    cells = path.read_text().splitlines()[1].split(",")
    n_cols = len(CSV_HEADER.split(","))
    assert "nan" not in cells[:5]
    assert cells[5:n_cols] == ["nan"] * (n_cols - 5)
    assert cells[n_cols:] == [row.error]


def test_emit_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_csv([], str(tmp_path / "x.csv"))


def test_emit_plot_data_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_plot_data([], str(tmp_path / "plots"))
    assert not (tmp_path / "plots").exists()


def test_parse_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("n,m,r0\n1,0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        parse_csv(str(path))


def test_parse_csv_rejects_ragged_row(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(CSV_HEADER + "\n1,0,2.0\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_csv(str(path))


def test_table1_text_exact():
    assert table1_text() == (
        "state,v_pos,v_mom,f_pos,f_mom,cr_pos,cr_mom\n"
        "1s,0.1250,1.5326,16.0000,1.5000,2.0000,2.2989\n"
        "2s,2.3750,0.2902,1.7778,58.5000,4.2222,16.9786\n"
        "2p,2.2500,0.0975,0.5926,18.0000,1.3333,1.7544\n"
        "3d,9.3750,0.0245,0.1280,62.5000,1.2000,1.5289\n"
    )


def test_plot_data_files(tiny_rows, tmp_path):
    plot_dir = tmp_path / "plots"
    emit_plot_data(list(tiny_rows), str(plot_dir))
    names = sorted(p.name for p in plot_dir.iterdir())
    assert len(names) == 12  # 6 quantities x 2 states
    assert "fig1_E_n1m0.dat" in names and "fig6_FF_n2m1.dat" in names
    body = (plot_dir / "fig6_FF_n1m0.dat").read_text().splitlines()
    assert body[0].startswith("#")
    r0, value = map(float, body[1].split())
    row = tiny_rows[0]
    assert r0 == row.r0
    assert value == pytest.approx(row.f_pos * row.f_mom, rel=1e-15)


def test_plot_data_skips_failed_rows(tmp_path):
    good = dataclasses.replace(
        SweepRow(n=1, m=0, r0=2.0),
        alpha_opt=1.0,
        energy=-1.0,
        v_pos=0.2,
        f_pos=10.0,
        cr_pos=2.0,
        v_mom=1.0,
        f_mom=2.0,
        cr_mom=2.0,
        pos_norm_residual=0.0,
        mom_norm_residual=0.0,
    )
    # a momentum failure keeps the solve and position numbers
    momentum_failed = dataclasses.replace(
        good, r0=3.0, v_mom=None, f_mom=None, cr_mom=None, mom_norm_residual=None,
        error="momentum: tail tolerance unreachable",
    )
    rows = [SweepRow(n=1, m=0, r0=1.0, error="solve: nope"), good, momentum_failed]
    emit_plot_data(rows, str(tmp_path))

    def plotted_radii(stem):
        body = (tmp_path / f"{stem}_n1m0.dat").read_text().splitlines()
        return [float(line.split()[0]) for line in body[1:]]

    for stem in ("fig1_E", "fig2_Vpos", "fig4_CRpos"):
        assert plotted_radii(stem) == [2.0, 3.0]
    for stem in ("fig3_Vmom", "fig5_CRmom", "fig6_FF"):
        assert plotted_radii(stem) == [2.0]


def test_read_config_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# a comment line\n"
        "   # an indented comment line\n"
        "\n"
        "points = 5   # trailing comment\n"
        "spacing=linear\n"
    )
    # a # after the value is part of it
    assert read_config_file(str(path)) == {
        "points": "5   # trailing comment",
        "spacing": "linear",
    }


def test_read_config_file_reports_line(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("points=5\nthis is not a pair\n")
    with pytest.raises(ValueError, match=r"sweep\.cfg:2"):
        read_config_file(str(path))


def test_parse_states():
    assert parse_states("1,0;2,1") == ((1, 0), (2, 1))
    assert parse_states(" 3,2 ; ") == ((3, 2),)
    with pytest.raises(ValueError):
        parse_states("1;2")
    assert parse_states(";") == ()
    with pytest.raises(ValueError, match="states list must not be empty"):
        config_from({"states": ";"}, {})


def test_config_from_flags_beat_file():
    cfg = config_from(
        {"points": "9", "spacing": "linear", "emit_plot_data": "yes"},
        {"points": 11, "r0_max": 20.0, "spacing": None},
    )
    assert cfg.points == 11  # flag wins
    assert cfg.spacing == "linear"  # file value survives an unset flag
    assert cfg.r0_max == 20.0
    assert cfg.emit_plot_data is True


def test_config_from_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from({"n_points": "9"}, {})


def test_config_validation():
    with pytest.raises(ValueError, match="states"):
        SweepConfig(states=())
    with pytest.raises(ValueError, match="violates"):
        SweepConfig(states=((2, 2),))
    with pytest.raises(ValueError, match="repeats"):
        SweepConfig(states=((1, 0), (2, 1), (1, 0)))
    with pytest.raises(ValueError, match="r0_min"):
        SweepConfig(r0_min=5.0, r0_max=2.0)
    for lo, hi in ((1.0, math.inf), (math.inf, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError, match="< inf"):
            SweepConfig(r0_min=lo, r0_max=hi)
    with pytest.raises(ValueError, match="supported maximum"):
        SweepConfig(r0_max=150.0)
    with pytest.raises(ValueError, match="points"):
        SweepConfig(points=1)
    with pytest.raises(ValueError, match="spacing"):
        SweepConfig(spacing="cubic")


def test_config_echo_round_trips_through_parser(tmp_path):
    assert list(SETTINGS) == [f.name for f in dataclasses.fields(SweepConfig)]
    for output_path in ("/x/a#b", "/x/a #b"):
        # every field differs from its default
        cfg = SweepConfig(
            states=((2, 1), (1, 0)),
            r0_min=0.75,
            r0_max=12.5,
            points=7,
            spacing="linear",
            output_path=output_path,
            emit_plot_data=True,
        )
        assert all(
            getattr(cfg, f.name) != f.default for f in dataclasses.fields(SweepConfig)
        )
        path = tmp_path / "echo.cfg"
        text = config_echo(cfg, jobs=3)
        path.write_text(text)
        # jobs does not change the output, so the echo keeps it as a comment
        assert "# jobs=3\n" in text
        assert config_from(read_config_file(str(path)), {}) == cfg
