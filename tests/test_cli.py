"""Command-line interface: subcommands, exit codes, CSV contract."""

import subprocess
import sys

import numpy as np
import pytest

from fiberdd.cli import main


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


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "fiberdd", "--help"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "usage: fiberdd" in proc.stdout
    for name in ("simulate", "figure", "mc-check", "validate-config"):
        assert name in proc.stdout
