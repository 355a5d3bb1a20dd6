"""Command-line interface: subcommands, exit codes, CSV contract."""

import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from fiberdd.cli import main
from fiberdd.config import SimulationConfig, load_config_file, resolve, \
    resolved_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line
            else:
                rows.append(line.split(","))
    return comments, header, rows


def column(rows, index):
    return np.array([float(row[index]) for row in rows])


def test_simulate_writes_csv_with_resolved_comments(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--length-max", "4", "--grid-points", "8",
        "--out", str(out))
    assert code == 0

    comments, header, rows = read_csv(out)
    assert header == "L,f_L,gamma,concurrence"
    assert len(rows) == 8
    lengths = column(rows, 0)
    assert np.all(np.diff(lengths) > 0.0)
    assert lengths[0] > 0.0 and lengths[-1] == 4.0
    gammas = column(rows, 2)
    assert np.all((0.0 < gammas) & (gammas <= 1.0))

    # stdout carries the same resolved-config lines that head the CSV
    stdout_lines = [l for l in stdout.splitlines() if l.startswith("#")]
    assert stdout_lines == comments
    assert "# length_max = 4.0" in comments
    assert "# sequence = 'free'" in comments
    assert "esd_length = none; final_concurrence = " in stdout
    assert f"csv = {out}" in stdout


def test_simulate_zero_noise_keeps_concurrence_constant(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--noise-amp", "0", "--length-max", "5",
        "--grid-points", "6", "--out", str(out))
    assert code == 0
    _, _, rows = read_csv(out)
    conc = column(rows, 3)
    assert np.all(conc == conc[0])
    assert conc[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_denser_cpmg_keeps_more_concurrence(tmp_path, capsys):
    results = {}
    for dens in ("1", "2"):
        out = tmp_path / f"d{dens}.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--sequence", "cpmg", "--density", dens,
            "--noise-amp", "0.2", "--length-max", "8", "--grid-points", "8",
            "--out", str(out))
        assert code == 0
        _, _, rows = read_csv(out)
        results[dens] = column(rows, 3)
    assert np.all(results["2"] >= results["1"] - 1e-12)


def test_simulate_reports_io_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "run.csv"
    code, _, stderr = run_cli(
        capsys, "simulate", "--length-max", "2", "--grid-points", "2",
        "--out", str(out))
    assert code == 4
    assert "i/o error" in stderr


SHORT_SIMULATE = ("simulate", "--length-max", "4", "--grid-points", "8")
STALE = b"stale,bytes\n" * 10_000


def bytes_without_out_line(path):
    """A CSV's lines, empty last one included, less the '# out = ' line
    that names the path."""
    return [line for line in path.read_bytes().split(b"\n")
            if not line.startswith(b"# out = ")]


def test_simulate_rewrites_a_longer_file_to_its_new_bytes(tmp_path, capsys):
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_bytes(STALE)
    assert run_cli(capsys, *SHORT_SIMULATE, "--out", str(fresh))[0] == 0
    assert run_cli(capsys, *SHORT_SIMULATE, "--out", str(old))[0] == 0
    assert bytes_without_out_line(old) == bytes_without_out_line(fresh)
    assert old.stat().st_size < len(STALE)
    # a new file gets the mode open(path, "w") gives it
    plain = tmp_path / "plain.csv"
    plain.open("w").close()
    assert fresh.stat().st_mode == plain.stat().st_mode


def test_figure_rewrites_a_longer_file_to_its_new_bytes(tmp_path, capsys):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    old.mkdir()
    (old / "fig2b.csv").write_bytes(STALE)
    argv = ("figure", "fig2b", "--length-max", "20", "--grid-points", "10")
    assert run_cli(capsys, *argv, "--out", str(fresh))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(old))[0] == 0
    assert bytes_without_out_line(old / "fig2b.csv") == \
        bytes_without_out_line(fresh / "fig2b.csv")


def test_symlinked_out_stays_a_link_to_the_new_bytes(tmp_path, capsys):
    fresh, target, link = (tmp_path / name
                           for name in ("fresh.csv", "target.csv", "link.csv"))
    target.write_bytes(STALE)
    link.symlink_to(target)
    assert run_cli(capsys, *SHORT_SIMULATE, "--out", str(fresh))[0] == 0
    assert run_cli(capsys, *SHORT_SIMULATE, "--out", str(link))[0] == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert bytes_without_out_line(target) == bytes_without_out_line(fresh)


def test_rewritten_file_keeps_its_mode_inode_and_hard_links(tmp_path, capsys):
    out, twin = tmp_path / "run.csv", tmp_path / "twin.csv"
    out.write_bytes(STALE)
    out.chmod(0o640)
    os.link(out, twin)
    before = out.stat()
    assert run_cli(capsys, *SHORT_SIMULATE, "--out", str(out))[0] == 0
    after = out.stat()
    assert (after.st_ino, after.st_nlink) == (before.st_ino, 2)
    assert after.st_mode & 0o777 == 0o640
    assert twin.read_bytes() == out.read_bytes()
    assert after.st_size < len(STALE)


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_simulate_writes_to_dev_null(capsys):
    code, stdout, _ = run_cli(capsys, *SHORT_SIMULATE, "--out", "/dev/null")
    assert code == 0
    assert "csv = /dev/null" in stdout


def test_out_naming_a_directory_is_an_io_error(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, *SHORT_SIMULATE, "--out", str(tmp_path))
    assert code == 4
    assert "i/o error" in stderr


def test_figure_fig2b_series(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "figure", "fig2b", "--length-max", "20",
        "--grid-points", "10", "--out", str(tmp_path))
    assert code == 0
    comments, header, rows = read_csv(tmp_path / "fig2b.csv")
    assert header == "series,L,f_L,gamma,concurrence"
    assert "# preset = 'fig2b'" in comments

    labels = [row[0] for row in rows]
    assert labels == ["free"] * 10 + ["se"] * 10
    free = column(rows[:10], 4)
    echo = column(rows[10:], 4)
    assert np.all(echo >= free - 1e-12)
    assert f"csv = {tmp_path / 'fig2b.csv'}" in stdout


def test_figure_fig3_structure(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "figure", "fig3", "--uv-cutoff", "100",
        "--out", str(tmp_path))
    assert code == 0
    comments, _, rows = read_csv(tmp_path / "fig3.csv")
    assert "# fig3_length = 50.0" in comments
    assert "# fig3_max_pulses = 64" in comments
    assert [row[0] for row in rows] == [f"N={n}" for n in range(65)]
    assert np.all(column(rows, 1) == 50.0)
    conc = column(rows, 4)
    assert conc[-1] > conc[0]  # decoupling beats free evolution


def test_simulate_gamma_underflow_is_complete_dephasing(tmp_path, capsys):
    # exp(-w0^2 f) underflows to 0 along most of this sweep
    out = tmp_path / "strong.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--sigma", "0", "--noise-amp", "50",
        "--out", str(out))
    assert code == 0, err
    _, _, rows = read_csv(out)
    assert float(rows[-1][2]) == 0.0
    assert float(rows[-1][3]) == 0.0


def test_simulate_overflowing_bulge_is_complete_dephasing(tmp_path, capsys):
    # sigma^2 f and w0^2 f both overflow to inf along the sweep
    out = tmp_path / "huge.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--omega0", "1e154", "--sigma", "1e154",
        "--out", str(out))
    assert code == 0, err
    _, _, rows = read_csv(out)
    assert float(rows[-1][3]) == 0.0


def test_simulate_unconverged_death_length_probe_exits_3(tmp_path, capsys,
                                                        monkeypatch):
    import fiberdd.evolution as evolution
    from fiberdd.quadrature import QuadratureError

    def run(name):
        out = tmp_path / name
        code, stdout, stderr = run_cli(capsys, "simulate", "--length-max",
                                       "20", "--grid-points", "16",
                                       "--out", str(out))
        return code, stdout.replace(str(out), "OUT"), stderr, read_csv(out)

    clean = run("clean.csv")
    assert clean[0] == 0 and clean[2] == ""
    assert "esd_length = 9.92" in clean[1]

    overlap = evolution.overlap_from_positions
    failed = []

    def flaky(positions, spectrum, length, **kwargs):
        # the first death-length probe keeps its value but is flagged
        value = overlap(positions, spectrum, length, **kwargs)
        if not failed:
            failed.append(length)
            raise QuadratureError("forced", value, 0.0, 1)
        return value

    monkeypatch.setattr(evolution, "overlap_from_positions", flaky)
    code, stdout, stderr, csv = run("flaky.csv")
    assert failed and code == 3
    assert "death length" in stderr and "unconverged" in stderr
    assert stdout == clean[1]
    assert csv[1:] == clean[3][1:]


@pytest.mark.parametrize("weight", ["0.2", "0.3333333333333333"])
def test_simulate_separable_state_is_a_config_error(tmp_path, capsys,
                                                    weight):
    # concurrence 0 from the start: there is no death length to report
    out = tmp_path / "separable.csv"
    code, stdout, stderr = run_cli(capsys, "simulate", "--state",
                                   f"werner:{weight}", "--out", str(out))
    assert code == 2
    assert stderr == ("config error:\n"
                      "state: initial state is separable; "
                      "no death length exists\n")
    assert "esd_length" not in stdout
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    # the first grid length underflows to 0
    (("--length-max", "5e-324"),
     "length_max: length_max / grid_points = 0.0 is below the smallest "
     "normal float"),
    # subnormal lengths round the 20 pulse positions together
    (("--sequence", "cpmg", "--pulses", "20", "--length-max", "1e-322",
      "--grid-points", "2"),
     "length_max: length_max / grid_points = 5e-323 is below the smallest "
     "normal float"),
    # the low band would start below X_MIN, the overlap's length floor
    (("--ir-cutoff", "1e-300"),
     "length_max: ir_cutoff * length_max / grid_points = 2.5e-301 is below "),
], ids=["underflow", "collapsed-train", "tiny-ir"])
def test_too_short_grid_is_a_config_error(tmp_path, capsys, argv, message):
    out = tmp_path / "curve.csv"
    code, stdout, stderr = run_cli(capsys, "simulate", *argv, "--out",
                                   str(out))
    assert code == 2
    assert stderr.startswith("config error:\n" + message)
    assert stdout == "" and not out.exists()


def test_too_long_grid_is_a_config_error(tmp_path, capsys):
    # length_max^2 overflows at alpha = 1 past 1.34e154; 1e150 stays valid
    out = tmp_path / "curve.csv"
    code, stdout, stderr = run_cli(capsys, "simulate", "--length-max",
                                   "1e300", "--out", str(out))
    assert code == 2
    assert stderr == ("config error:\nlength_max: 1e+300 is above "
                      "1.3407807929929188e+154, where uv_cutoff * length_max "
                      "or length_max^(1+alpha) overflows\n")
    assert stdout == "" and not out.exists()
    code, _, stderr = run_cli(capsys, "simulate", "--length-max", "1e150",
                              "--grid-points", "4", "--out", str(out))
    assert code == 0 and stderr == ""


def test_extreme_valid_length_raises_no_overflow_warning(tmp_path, capsys):
    # K at x = uv L d past 1.3e151 once squared x beyond the largest
    # float; the warning is an error here, and the run still exits 0
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, "simulate", "--length-max",
                                       "1.3e154", "--grid-points", "4",
                                       "--out", str(out))
    assert code == 0 and stderr == ""
    assert np.isfinite(column(read_csv(out)[2], 1)).all()


def test_death_length_walk_floor_stays_in_the_overlap_domain(tmp_path,
                                                           capsys):
    # the whole curve is dead, so the walk goes down to its floor, and
    # 1e-9 * (X_MIN / 1e-9) rounds one ulp below X_MIN: the floor must be
    # the first length whose ir_cutoff * length reaches X_MIN
    from fiberdd.dephasing import X_MIN
    code, stdout, stderr = run_cli(
        capsys, "simulate", "--noise-amp", "1e300", "--ir-cutoff", "1e-9",
        "--alpha", "1.5", "--out", str(tmp_path / "run.csv"))
    assert code == 0, stderr
    assert 1e-9 * (X_MIN / 1e-9) < X_MIN
    esd = float(stdout.split("esd_length = ")[1].split(";")[0])
    assert esd == pytest.approx(4.318084277547222e-69, rel=1e-12)
    assert 1e-9 * (2.0 * esd) >= X_MIN


def test_overflowing_overlap_is_complete_dephasing(tmp_path, capsys):
    # f overflows to +inf along this curve: Gamma and C are 0 there, and
    # no RuntimeWarning is raised on the way (warnings are errors here)
    out = tmp_path / "run.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(
            capsys, "simulate", "--noise-amp", "1e300", "--ir-cutoff",
            "1e-9", "--alpha", "2", "--out", str(out))
    assert code == 0 and stderr == ""
    assert "esd_length = 4.318" in stdout
    rows = read_csv(out)[2]
    overflowed = np.isposinf(column(rows, 1))
    assert overflowed.any() and not overflowed.all()
    assert not column(rows, 2)[overflowed].any()
    assert not column(rows, 3).any()


def test_mc_check_without_pulses_names_cli_options(capsys):
    code, stdout, stderr = run_cli(capsys, "mc-check", "--sequence", "cpmg",
                                   "--density", "0.01")
    assert code == 2 and stdout == ""
    assert stderr == (
        "config error:\nsequence: density 0.01 places no pulse at length "
        "2.0; use --sequence free, or a --density above 0.25 "
        "(0.5 / --length-max)\n")
    assert "Free()" not in stderr
    code, _, stderr = run_cli(capsys, "mc-check", "--sequence", "cpmg",
                              "--density", "0.26", "--trials", "50")
    assert code in (0, 5) and "config error" not in stderr


def test_csv_row_template_formats_cells_as_fmt():
    # every CSV row is one '%.17g' template: the bytes _fmt gave per cell
    from fiberdd.cli import _CURVE_ROW, _fmt
    for value in (0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, 1e22,
                  1.7976931348623157e308, np.inf, -np.inf, np.nan,
                  np.float64(2.5)):
        row = (value,) * 4
        assert _CURVE_ROW % row == ",".join(map(_fmt, row)) + "\n"


SHORT_FIGURE = ("--length-max", "20", "--grid-points", "6",
                "--uv-cutoff", "100")


@pytest.mark.parametrize("preset, spectra", [("fig2a", 1), ("fig2b", 1),
                                             ("fig3", 1), ("fig4", 5)])
def test_figure_makes_one_overlap_call_per_noise_spectrum(
        tmp_path, capsys, monkeypatch, preset, spectra):
    import fiberdd.evolution as evolution
    from fiberdd.dephasing import train_overlaps
    seen = []

    def counted(pulses, spectrum, lengths):
        seen.append(spectrum)
        return train_overlaps(pulses, spectrum, lengths)

    monkeypatch.setattr(evolution, "train_overlaps", counted)
    code, _, _ = run_cli(capsys, "figure", preset, *SHORT_FIGURE, "--out",
                         str(tmp_path))
    assert code == 0
    assert len(seen) == len(set(seen)) == spectra


@pytest.mark.parametrize("preset", ["fig2a", "fig4"])
def test_figure_rows_are_each_series_lone_curve(tmp_path, capsys, preset):
    # one batch per spectrum gives every row the bits of its series' own
    # decoherence_curve, as '%.17g' writes them
    import dataclasses

    from fiberdd import cli
    from fiberdd import config as cfg
    from fiberdd.evolution import decoherence_curve
    from fiberdd.sequences import CpmgDensity, Free
    code, _, _ = run_cli(capsys, "figure", preset, *SHORT_FIGURE, "--out",
                         str(tmp_path))
    assert code == 0
    rows = read_csv(tmp_path / f"{preset}.csv")[2]
    config = cfg.SimulationConfig(length_max=20.0, grid_points=6,
                                  uv_cutoff=100.0)
    _, spectrum, profile, state = cfg.build_runtime(config)
    grid = cfg.length_grid(config)
    if preset == "fig2a":
        series = [("free", Free(), spectrum)] + [
            (f"density={n:g}", CpmgDensity(n), spectrum)
            for n in cli.FIG2A_DENSITIES]
    else:
        series = [(f"alpha={alpha:g}", CpmgDensity(cli.FIG4_DENSITY),
                   dataclasses.replace(spectrum, exponent=alpha))
                  for alpha in cli.FIG4_ALPHAS]
    assert len(rows) == len(series) * grid.size
    for k, (label, seq, spec) in enumerate(series):
        curve = decoherence_curve(seq, spec, profile, state, grid)
        mine = rows[k * grid.size:(k + 1) * grid.size]
        assert [row[0] for row in mine] == [label] * grid.size
        for i, name in enumerate(("lengths", "overlap", "gamma",
                                  "concurrence"), start=1):
            assert column(mine, i).tolist() == \
                getattr(curve, name).tolist()


def test_figure_creates_out_directory(tmp_path, capsys):
    target = tmp_path / "nested" / "figs"
    code, _, _ = run_cli(
        capsys, "figure", "fig2b", "--length-max", "4", "--grid-points", "2",
        "--out", str(target))
    assert code == 0
    assert (target / "fig2b.csv").exists()


def test_figure_rejects_unknown_preset(capsys):
    code, _, _ = run_cli(capsys, "figure", "fig9")
    assert code == 2


def test_mc_check_reports_and_is_reproducible(capsys):
    argv = ("mc-check", "--trials", "400", "--seed", "7")
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    for key in ("analytic_gamma = ", "mc_estimate = ", "mc_std_error = ",
                "z = ", "imag_mean = ", "imag_std_error = ", "trials = 400"):
        assert key in first
    # narrowed-band defaults are visible in the resolved lines
    assert "# ir_cutoff = 0.05" in first
    assert "# uv_cutoff = 50.0" in first
    assert "# length_max = 2.0" in first
    assert "# mc_resolution = 32" in first

    code, second, _ = run_cli(capsys, *argv)
    assert code == 0
    assert second == first


def test_mc_check_zero_noise_is_exact(capsys):
    code, stdout, _ = run_cli(
        capsys, "mc-check", "--noise-amp", "0", "--trials", "50")
    assert code == 0
    assert "analytic_gamma = 1\n" in stdout
    assert "mc_estimate = 1\n" in stdout
    assert "z = 0\n" in stdout


def test_mc_check_flag_overrides_narrowed_length(capsys):
    code, stdout, _ = run_cli(
        capsys, "mc-check", "--trials", "50", "--length-max", "1.0")
    assert code == 0
    assert "# length_max = 1.0" in stdout
    assert "# mc_length = 1.0" in stdout


def test_mc_check_guardrails_reject_wide_band(capsys):
    code, _, stderr = run_cli(
        capsys, "mc-check", "--ir-cutoff", "1e-3", "--uv-cutoff", "1000")
    assert code == 2
    assert "mc:" in stderr
    assert "spectral edge" in stderr


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--omega0", "1e200"), "omega0"),
    (("simulate", "--sigma", "1e200"), "sigma"),
    (("mc-check", "--omega0", "1e200"), "omega0"),
])
def test_overflowing_profile_is_a_config_error(capsys, argv, name):
    code, _, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert "config error:" in stderr
    assert f"optical profile: {name} = 1e+200" in stderr


def test_validate_config_ok(capsys):
    code, stdout, _ = run_cli(
        capsys, "validate-config", "--sequence", "cpmg", "--pulses", "4")
    assert code == 0
    assert "# sequence = 'cpmg'" in stdout
    assert "# pulses = 4" in stdout
    assert "configuration ok" in stdout


def test_validate_config_collects_all_errors(capsys):
    code, _, stderr = run_cli(
        capsys, "validate-config", "--sequence", "cpmg",
        "--omega0", "0", "--state", "mystery")
    assert code == 2
    assert "config error:" in stderr
    assert "sequence:" in stderr
    assert "optical profile:" in stderr
    assert "state:" in stderr


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\nsigma = 0.3\n")

    code, stdout, _ = run_cli(
        capsys, "validate-config", "--config", str(cfg))
    assert code == 0
    assert "# alpha = 1.5" in stdout
    assert "# sigma = 0.3" in stdout

    code, stdout, _ = run_cli(
        capsys, "validate-config", "--config", str(cfg), "--alpha", "0.5")
    assert code == 0
    assert "# alpha = 0.5" in stdout   # flag wins
    assert "# sigma = 0.3" in stdout   # file survives where flag unset


def test_bad_config_file_reports_lines(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = fast\n")
    code, _, stderr = run_cli(capsys, "validate-config", "--config", str(cfg))
    assert code == 2
    assert "cannot parse 'fast' for alpha" in stderr


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--bogus", "1")
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 2


def test_state_file_accepted(tmp_path, capsys):
    state = tmp_path / "state.txt"
    state.write_text(
        "# custom Bell-like state\n"
        "d1 = 0.5\n"
        "d4 = 0.5\n"
        "rho14 = 0.3+0.2j\n")
    out = tmp_path / "custom.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--state", f"file:{state}",
        "--length-max", "2", "--grid-points", "2", "--out", str(out))
    assert code == 0
    assert f"# state = 'file:{state}'" in stdout
    _, _, rows = read_csv(out)
    assert column(rows, 3)[0] == pytest.approx(
        2.0 * abs(0.3 + 0.2j) * float(column(rows, 2)[0]), rel=1e-12)


def test_state_file_rejected_with_location(tmp_path, capsys):
    state = tmp_path / "broken.txt"
    state.write_text("d1 = 1.5\nd4 = 0.5\n")
    code, _, stderr = run_cli(
        capsys, "simulate", "--state", f"file:{state}",
        "--length-max", "2", "--grid-points", "2")
    assert code == 2
    assert "state:" in stderr
    assert "trace differs from 1" in stderr


@pytest.mark.parametrize("command", [["validate-config"], ["simulate"],
                                     ["figure", "fig2b"]])
@pytest.mark.parametrize("line", ["d1 = nan", "rho23 = nan"])
def test_non_finite_state_entry_is_a_config_error(tmp_path, capsys, command,
                                                  line):
    state = tmp_path / "nan.txt"
    state.write_text(f"d1 = 0.3\nd2 = 0.2\nd3 = 0.25\nd4 = 0.25\n{line}\n")
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, *command, "--state", f"file:{state}", "--length-max", "2",
        "--grid-points", "2", "--out", str(out))
    assert code == 2
    assert "configuration ok" not in stdout
    assert f"state: {state}: invalid density matrix: " in stderr
    assert "is not finite" in stderr
    assert not out.exists()


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberdd", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: fiberdd" in proc.stdout
    for name in ("simulate", "figure", "mc-check", "validate-config"):
        assert name in proc.stdout


def _separate_process(argv, env):
    return subprocess.run([sys.executable, "-m", "fiberdd", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=env)


def test_reused_parser_matches_separate_processes(tmp_path, capsys,
                                                  monkeypatch):
    # main builds its parser once per process; runs with other flags and
    # a usage error in between must not leak into later runs
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "COLUMNS": "80"}
    out = str(tmp_path / "run.csv")
    runs = [
        ["simulate", "--length-max", "12", "--grid-points", "6",
         "--out", out],
        ["simulate", "--sequence", "cpmg", "--density", "0.3", "--alpha",
         "1.4", "--length-max", "20", "--grid-points", "7", "--out", out],
        ["simulate", "--grid-points", "many"],
        ["simulate", "--length-max", "12", "--grid-points", "6",
         "--out", out],
        ["simulate", "--help"],
    ]
    codes = []
    for argv in runs:
        proc = _separate_process(argv, env)
        codes.append(proc.returncode)
        expected_csv = open(out, encoding="utf-8").read() \
            if proc.returncode == 0 and "--help" not in argv else None
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout, stderr) == (proc.returncode, proc.stdout,
                                          proc.stderr)
        if expected_csv is not None:
            assert open(out, encoding="utf-8").read() == expected_csv
    assert codes == [0, 0, 2, 0, 0]


@pytest.mark.parametrize("argv", [
    ["simulate", "--alpha", "1.2", "--length-max", "12", "--out", "x.csv"],
    ["simulate", "--alp", "1.2", "--grid-points", "7"],  # abbreviation
    ["simulate", "--alpha=1.2", "--alpha", "0.8", "--state", "werner:0.9"],
    ["figure", "fig3", "--noise-amp", "0.01"],
    ["figure", "--out", "d", "fig2b"],
    ["mc-check", "--trials", "50", "--seed", "3"],
    ["validate-config", "--sequence", "cpmg", "--pulses", "4"],
    ["simulate", "--", "--alpha"],
    # usage errors, help and argv that reach the top-level parser
    ["simulate", "--grid-points", "many"],
    ["simulate", "--bogus", "3", "--alpha", "1"],
    ["simulate", "stray"],
    ["figure"],
    ["figure", "fig9"],
    ["simulate", "--help"],
    ["--help"],
    ["simulat", "--alpha", "1"],
    ["--alpha", "1", "simulate"],
    [],
])
def test_subcommand_parse_matches_the_full_parser(argv, capsys):
    # the subcommand's parser run directly gives the namespace, output
    # and exit of the whole parser
    from fiberdd.cli import _build_parser, _parse_args
    results = []
    for parse in (_parse_args, _build_parser()[0].parse_args):
        try:
            result = sorted(vars(parse(list(argv))).items(),
                            key=lambda item: item[0])
        except SystemExit as exc:
            result = ("exit", exc.code)
        results.append((result, capsys.readouterr()))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--sequence", "cpmg", "--density", "1e308"),
     "sequence: density * length = inf is above 2**50"),
    (("simulate", "--sequence", "cpmg", "--pulses", "100000000000000000000"),
     "sequence: n_pulses must be an integer from 1 to 2**50, got "
     "100000000000000000000"),
    (("simulate", "--sequence", "cpmg", "--density", "1e20",
      "--grid-points", "2"),
     "sequence: density * length = 3e+21 is above 2**50"),
    (("figure", "fig4", "--length-max", "1e150", "--grid-points", "2"),
     "fig4: density * length = 1e+149 is above 2**50"),
    # fig3 runs at L = 50 whatever --length-max is
    (("figure", "fig3", "--length-max", "10", "--uv-cutoff", "1e307"),
     "fig3: length 50.0 is outside [8.636168555094445e-75, "
     "17.97693134860518]"),
    (("figure", "fig3", "--length-max", "1e10", "--grid-points", "2",
      "--ir-cutoff", "1e-86"),
     "fig3: length 50.0 is outside [863616855.5094444, "),
], ids=["density-inf", "pulses-past-int64", "density-count-past-int64",
        "fig4-count", "fig3-above-max-length", "fig3-below-min-length"])
def test_count_or_length_a_run_cannot_evaluate_is_a_config_error(
        tmp_path, capsys, argv, message):
    code, stdout, stderr = run_cli(capsys, *argv, "--out",
                                   str(tmp_path / "out"))
    assert code == 2
    assert stderr.startswith("config error:\n" + message)
    assert stdout == "" and not (tmp_path / "out").exists()


SETTING_TEXT = {str: "werner:0.9", int: "7", float: "2.5e-3"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(
    SimulationConfig)])
def test_flag_and_config_line_resolve_alike(tmp_path, name):
    from fiberdd.cli import _parse_args, _resolve
    setting = {f.name: f for f in dataclasses.fields(SimulationConfig)}[name]
    text = "cpmg" if name == "sequence" else SETTING_TEXT[
        setting.metadata["parse"]]
    path = tmp_path / "one.cfg"
    path.write_text(f"{name} = {text}\n")
    from_file = resolve(load_config_file(path))
    from_flag = _resolve(_parse_args(
        ["simulate", "--" + name.replace("_", "-"), text]))
    assert getattr(from_flag, name) != getattr(SimulationConfig(), name)
    # the resolved lines tell 7 from 7.0 and '7' from 7
    assert resolved_lines(from_flag) == resolved_lines(from_file)


def test_simulate_options_are_the_settings_config_and_help():
    from fiberdd.cli import _build_parser
    parser = _build_parser()[1]["simulate"]
    options = {option for action in parser._actions
               for option in action.option_strings if option[1] == "-"}
    assert options == {"--config", "--help"} | {
        "--" + f.name.replace("_", "-")
        for f in dataclasses.fields(SimulationConfig)}
