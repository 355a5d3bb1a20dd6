"""Command-line front end.

Subcommands: ``simulate`` (one decoherence curve to CSV plus a summary
line), ``figure`` (multi-series preset sweeps), ``mc-check`` (Monte
Carlo vs analytic coherence factor), and ``validate-config``.  Every run
prints the fully resolved configuration as '# key = value' lines, and
the same lines head each CSV file, so any result is reproducible from
its log or output alone.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
non-convergence, 4 I/O error, 5 Monte Carlo z-score failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import stat
import sys

import numpy as np

from . import config as cfg
from .dephasing import coherence_factor, max_length, min_length, \
    overlap_from_positions
from .evolution import DEATH_LENGTH_RTOL, BestEstimate, \
    SeparableStateError, curve_death_length, decoherence_curve, \
    pulse_count_curve
from .montecarlo import McSettings, auto_resolution, mc_coherence, \
    validate_settings, z_score
from .quadrature import QuadratureError
from .sequences import CpmgCount, CpmgDensity, Free, \
    SequenceDegenerateError, SpinEcho

FIG2A_DENSITIES = (0.1, 0.2, 0.4)
FIG3_LENGTH = 50.0
FIG3_MAX_PULSES = 64
FIG4_ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5)
FIG4_DENSITY = FIG2A_DENSITIES[1]  # fig2a middle density

# One curve row of a CSV file: L, f_L, gamma, concurrence, each float
# with 17 significant digits ('%.17g' formats a float as _fmt does).
_CURVE_ROW = "%.17g,%.17g,%.17g,%.17g\n"


def _fmt(value) -> str:
    """One float of a summary line: '.'-decimal, 17 significant digits."""
    return format(float(value), ".17g")


def _open_in_place(path: str, flags: int) -> int:
    """``open``'s own flags and mode, less O_TRUNC: a file that exists is
    written over from its start, keeping its inode, links and mode."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_csv(path: str, comments: list[str], header: str, rows,
               template: str) -> None:
    """The comment lines, the header and one line per row, each row
    formatted by ``template`` in one pass.

    A regular file is rewritten in place and then cut to the length
    written, which costs far less than truncating it to zero first (on
    ext4 that starts a writeback at close).  Until the cut, and after a
    failed write, it may end in the old file's tail.  Devices and FIFOs
    are written as ``open(path, "w")`` writes them.  Nothing is fsynced.
    """
    with open(path, "w", encoding="utf-8", newline="",
              opener=_open_in_place) as fh:
        fh.write("".join(line + "\n" for line in [*comments, header]))
        fh.write("".join(template % tuple(row) for row in rows))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def _resolve(args, overrides: dict | None = None) -> cfg.SimulationConfig:
    file_values = cfg.load_config_file(args.config) if args.config else None
    flag_values = {f.name: getattr(args, f.name)
                   for f in dataclasses.fields(cfg.SimulationConfig)}
    return cfg.resolve(overrides, file_values, flag_values)


def _curve_rows(curve) -> list:
    """The curve's (L, f_L, gamma, concurrence) rows, tuples of Python
    floats."""
    return list(zip(curve.lengths.tolist(), curve.overlap.tolist(),
                    curve.gamma.tolist(), curve.concurrence.tolist()))


def _cmd_simulate(args) -> int:
    config = _resolve(args)
    seq, spectrum, profile, state = cfg.build_runtime(config)
    lines = cfg.resolved_lines(config)
    print("\n".join(lines))

    curve = decoherence_curve(seq, spectrum, profile, state,
                              cfg.length_grid(config))
    try:
        esd = curve_death_length(seq, spectrum, profile, state, curve,
                                 tol=DEATH_LENGTH_RTOL * config.length_max)
    except SeparableStateError as exc:
        raise cfg.ConfigError(f"state: {exc}") from exc
    out = config.out or "simulate.csv"
    _write_csv(out, lines, "L,f_L,gamma,concurrence", _curve_rows(curve),
               _CURVE_ROW)
    print(f"esd_length = {'none' if esd is None else _fmt(esd)}; "
          f"final_concurrence = {_fmt(curve.concurrence[-1])}; "
          f"csv = {out}")
    code = 0
    if not curve.converged.all():
        print(f"warning: {int((~curve.converged).sum())} unconverged "
              "quadrature points (best estimates written)", file=sys.stderr)
        code = 3
    if isinstance(esd, BestEstimate):
        print("warning: death length refined with unconverged quadrature "
              "probes (best estimate printed)", file=sys.stderr)
        code = 3
    return code


def _figure_batches(preset: str, config: cfg.SimulationConfig, spectrum):
    """Yield the (spectrum, row labels, pulse counts, lengths) batches of
    a preset, one per noise spectrum, each drawn by one
    ``pulse_count_curve`` call.  Each (label, sequence) series of a batch
    runs over the preset's lengths with the pulse counts that
    ``decoherence_curve`` gives it, series back to back."""
    grid = cfg.length_grid(config).tolist()
    if preset == "fig3":  # one row per pulse count at one length
        grid = [FIG3_LENGTH]
        batches = [(spectrum, [(f"N={n}", CpmgCount(n) if n else Free())
                               for n in range(FIG3_MAX_PULSES + 1)])]
    elif preset == "fig4":
        batches = [(dataclasses.replace(spectrum, exponent=alpha),
                    [(f"alpha={alpha:g}", CpmgDensity(FIG4_DENSITY))])
                   for alpha in FIG4_ALPHAS]
    elif preset == "fig2a":
        batches = [(spectrum, [("free", Free())] + [
            (f"density={n:g}", CpmgDensity(n)) for n in FIG2A_DENSITIES])]
    else:  # fig2b
        batches = [(spectrum, [("free", Free()), ("se", SpinEcho())])]
    for spec, series in batches:
        lo, hi = min_length(spec), max_length(spec)
        if not lo <= grid[0] <= grid[-1] <= hi:
            raise cfg.ConfigError(
                f"{preset}: length {grid[0] if grid[0] < lo else grid[-1]} "
                f"is outside [{lo}, {hi}], the overlap's length domain at "
                f"the cutoffs and alpha = {spec.exponent:g}")
        try:
            rows = [(label, seq.pulse_count(length), length)
                    for label, seq in series for length in grid]
        except ValueError as exc:  # a count above sequences.MAX_PULSES
            raise cfg.ConfigError(f"{preset}: {exc}") from exc
        yield (spec, *zip(*rows))


def _cmd_figure(args) -> int:
    config = _resolve(args)
    _, spectrum, profile, state = cfg.build_runtime(config)
    batches = list(_figure_batches(args.preset, config, spectrum))

    extras = {"preset": args.preset}
    if args.preset == "fig3":
        extras["fig3_length"] = FIG3_LENGTH
        extras["fig3_max_pulses"] = FIG3_MAX_PULSES
    if args.preset == "fig4":
        extras["fig4_sequence"] = f"cpmg density={FIG4_DENSITY:g}"
    lines = cfg.resolved_lines(config, **extras)
    print("\n".join(lines))

    out_dir = config.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.preset}.csv")

    rows = []
    all_converged = True
    for spec, labels, pulses, lengths in batches:
        curve = pulse_count_curve(pulses, spec, profile, state,
                                  np.array(lengths))
        all_converged &= bool(curve.converged.all())
        rows += [[label, *row] for label, row in zip(labels,
                                                      _curve_rows(curve))]
    _write_csv(path, lines, "series,L,f_L,gamma,concurrence", rows,
               "%s," + _CURVE_ROW)
    print(f"csv = {path}")
    if not all_converged:
        print("warning: unconverged quadrature points present",
              file=sys.stderr)
        return 3
    return 0


def _cmd_mc_check(args) -> int:
    config = _resolve(args, overrides=dict(cfg.MC_CHECK_OVERRIDES))
    seq, spectrum, profile, state = cfg.build_runtime(config)
    length = config.length_max
    try:
        positions = seq.positions(length)
    except SequenceDegenerateError as exc:
        # round(density * length) is 0 up to density * length = 0.5
        raise cfg.ConfigError(
            f"sequence: density {seq.density} places no pulse at length "
            f"{length}; use --sequence free, or a --density above "
            f"{0.5 / length:g} (0.5 / --length-max)") from exc

    settings = McSettings(trials=config.trials, seed=config.seed,
                          resolution=auto_resolution(positions, length,
                                                     spectrum))
    problems = validate_settings(positions, length, spectrum, settings)
    if problems:
        raise cfg.ConfigError("\n".join("mc: " + p for p in problems))

    lines = cfg.resolved_lines(config, mc_length=length,
                               mc_resolution=settings.resolution,
                               mc_frequency_modes=settings.frequency_modes)
    print("\n".join(lines))

    analytic = coherence_factor(
        overlap_from_positions(positions, spectrum, length), profile)
    result = mc_coherence(seq, spectrum, profile, length, settings)
    z = z_score(result, analytic)

    print(f"analytic_gamma = {_fmt(analytic)}")
    print(f"mc_estimate = {_fmt(result.estimate)}")
    print(f"mc_std_error = {_fmt(result.std_error)}")
    print(f"z = {_fmt(z)}")
    print(f"imag_mean = {_fmt(result.imag_mean)}")
    print(f"imag_std_error = {_fmt(result.imag_std_error)}")
    print(f"trials = {result.trials}")
    return 5 if abs(z) > 4.0 else 0


def _cmd_validate_config(args) -> int:
    config = _resolve(args)
    cfg.build_runtime(config)
    print("\n".join(cfg.resolved_lines(config)))
    print("configuration ok")
    return 0


# What a setting's flag has beyond its SimulationConfig field
_FLAG_ONLY = {"sequence": {"choices": ("free", "se", "cpmg")},
              "pulses": {"metavar": "N"}, "density": {"metavar": "X"},
              "state": {"metavar": "SEL"}, "out": {"metavar": "PATH"}}


@functools.cache
def _build_parser():
    """The argument parser and its subcommands' parsers by name, built
    once per process: parsing leaves them unchanged, so every ``main``
    call can reuse them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value config file; flags override it")
    for f in dataclasses.fields(cfg.SimulationConfig):
        common.add_argument("--" + f.name.replace("_", "-"),
                            type=f.metadata["parse"], help=f.metadata["help"],
                            **_FLAG_ONLY.get(f.name, {}))

    parser = argparse.ArgumentParser(
        prog="fiberdd",
        description="Entanglement decay and dynamical decoupling of "
                    "photon pairs in a noisy birefringent fiber.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
            ("simulate", _cmd_simulate,
             "decoherence curve for one configuration"),
            ("figure", _cmd_figure, "multi-series preset sweeps"),
            ("mc-check", _cmd_mc_check,
             "Monte Carlo vs analytic coherence factor"),
            ("validate-config", _cmd_validate_config,
             "resolve and validate, then exit")):
        sub.add_parser(name, parents=[common],
                       help=text).set_defaults(handler=handler)
    sub.choices["figure"].add_argument(
        "preset", choices=("fig2a", "fig2b", "fig3", "fig4"))
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """``parse_args(argv)`` of the parser, without the top-level pass.

    The top-level parser hands every argument after the subcommand's
    name to that subcommand's parser and adds ``command``, so that
    parser runs on them directly.  Arguments it leaves over, and an
    argv that does not start with a subcommand's name, go through the
    top-level parser, whose messages and exits they get."""
    parser, subcommands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in subcommands:
        args, extras = subcommands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except cfg.ConfigError as exc:
        print(f"config error:\n{exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
