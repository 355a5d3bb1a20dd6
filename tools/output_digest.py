"""Print SHA-256 digests of fiberdd's user-visible outputs.

Run from anywhere as ``python3 tools/output_digest.py``; it takes no
flags.  Each of its 12 lines names one output group and the SHA-256 of
its bytes:

- ``sweep``: the 960 ``simulate`` requests of the benchmark's ``sweep``
  workload (bench seeds 0-9, rounds 0-7, built by ``bench/tasks.py`` and
  run in-process through ``fiberdd.cli.main``), each hashed as exit
  code, stdout, stderr and CSV;
- ``partial band``: three ``simulate`` requests whose lengths clip the
  low band's panels (``PARTIAL_BAND``), each hashed as the sweep tasks
  are;
- ``figure <preset>``: CSV and stdout of ``figure fig2a|fig2b|fig3|fig4``;
- ``mc-check``: its stdout;
- ``demo <name>``: the stdout of each script in ``demos/``.

Everything runs in a fresh temporary directory with relative ``--out``
paths, so two checkouts of the package print the same digests exactly
when their outputs agree byte for byte.  ``collect`` gathers the outputs
of any checkout; ``tools/output_compare.py`` uses it to compare two
checkouts number by number.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import checkout

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(10)
SWEEP_ROUNDS = 8
FIGURES = ("fig2a", "fig2b", "fig3", "fig4")
# simulate requests with lengths whose band [ir L, uv L] cuts the low
# band's panels [x0, top] (uv L <= top, or ir L past x0), which no sweep
# task, figure or demo reaches
PARTIAL_BAND = (
    ["--sequence", "cpmg", "--pulses", "16", "--uv-cutoff", "10",
     "--noise-amp", "0.5", "--length-max", "20"],
    ["--sequence", "cpmg", "--pulses", "64", "--uv-cutoff", "10",
     "--length-max", "5"],
    ["--sequence", "se", "--ir-cutoff", "2", "--length-max", "30"],
)


def _read(path: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        return "<no file>"


def _simulate_record(cli, label: str, argv: list[str]) -> tuple:
    """(label, parts) of one ``simulate`` request writing ``sweep.csv``."""
    with contextlib.suppress(FileNotFoundError):
        os.remove("sweep.csv")
    code, out, err = checkout.run_quiet(cli, argv)
    return label, {"exit": code, "stdout": out, "stderr": err,
                   "csv": _read("sweep.csv")}


def sweep_records(cli, tasks) -> list:
    return [_simulate_record(cli, f"seed {seed} task {i}",
                             tasks.sweep_argv(task, "sweep.csv"))
            for seed in SWEEP_SEEDS
            for i, task in enumerate(tasks.task_list("sweep", seed,
                                                     SWEEP_ROUNDS))]


def partial_band_records(cli) -> list:
    return [_simulate_record(cli, " ".join(flags),
                             ["simulate", *flags, "--out", "sweep.csv"])
            for flags in PARTIAL_BAND]


def figure_records(cli, preset: str) -> list:
    _, out, _ = checkout.run_quiet(cli, ["figure", preset, "--out", "figures"])
    return [(preset, {"csv": _read(os.path.join("figures", f"{preset}.csv")),
                      "stdout": out})]


def demo_records(root: Path, script: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, check=False)
    return [(script.name, {"stdout": result.stdout.decode("utf-8")})]


def collect(root: Path = ROOT):
    """Yield (group, records) for every output group of the checkout at
    ``root``, whose ``src/fiberdd`` and ``bench/tasks.py`` it loads.

    Each record is a (label, parts) pair, ``parts`` mapping a part name
    (exit, stdout, stderr, csv) to its text or exit code in the order
    they are hashed.  Runs in a fresh temporary directory.
    """
    fiberdd, tasks = checkout.load(root, "digest_fiberdd")
    cli = fiberdd.cli
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield "sweep", sweep_records(cli, tasks)
            yield "partial band", partial_band_records(cli)
            for preset in FIGURES:
                yield f"figure {preset}", figure_records(cli, preset)
            yield "mc-check", [("mc-check", {
                "stdout": checkout.run_quiet(cli, ["mc-check"])[1]})]
            for script in sorted((root / "demos").glob("*.py")):
                yield f"demo {script.name}", demo_records(root, script)
        finally:
            os.chdir(root)


def digest(records: list) -> str:
    """SHA-256 of a group's one output, or of all its parts in order,
    each length-prefixed so that no two different part lists hash
    alike."""
    parts = [str(part).encode() for _, record in records
             for part in record.values()]
    if len(parts) == 1:
        return hashlib.sha256(parts[0]).hexdigest()
    h = hashlib.sha256()
    for data in parts:
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if argv:
        checkout.usage_exit(__doc__, "usage: python3 tools/output_digest.py "
                            "(it takes no arguments)")
    for group, records in collect():
        print(f"{group} {digest(records)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
