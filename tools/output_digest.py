"""Print SHA-256 digests of fiberdd's user-visible outputs.

Run from anywhere as ``python3 tools/output_digest.py``; it takes no
flags.  Each line names one output group and the SHA-256 of its bytes:

- ``sweep``: the 960 ``simulate`` requests of the benchmark's ``sweep``
  workload (bench seeds 0-9, rounds 0-7, built by ``bench/tasks.py`` and
  run in-process through ``fiberdd.cli.main``), each hashed as exit
  code, stdout, stderr and CSV;
- ``figure <preset>``: CSV and stdout of ``figure fig2a|fig2b|fig3|fig4``;
- ``mc-check``: its stdout;
- ``demo <name>``: the stdout of each script in ``demos/``.

Everything runs in a fresh temporary directory with relative ``--out``
paths, so two checkouts of the package print the same digests exactly
when their outputs agree byte for byte.  Copy the script into another
checkout to compare it with this one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SEEDS = range(10)
SWEEP_ROUNDS = 8
FIGURES = ("fig2a", "fig2b", "fig3", "fig4")


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    from fiberdd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        return b"<no file>"


def _update(digest, *parts) -> None:
    # Length-prefixed so that no two different part lists hash alike.
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        digest.update(len(data).to_bytes(8, "little") + data)


def sweep_digest() -> str:
    import tasks

    digest = hashlib.sha256()
    for seed in SWEEP_SEEDS:
        for task in tasks.task_list("sweep", seed, SWEEP_ROUNDS):
            with contextlib.suppress(FileNotFoundError):
                os.remove("sweep.csv")
            code, out, err = _run_cli(tasks.sweep_argv(task, "sweep.csv"))
            _update(digest, code, out, err, _read("sweep.csv"))
    return digest.hexdigest()


def figure_digest(preset: str) -> str:
    digest = hashlib.sha256()
    _, out, _ = _run_cli(["figure", preset, "--out", "figures"])
    _update(digest, _read(os.path.join("figures", f"{preset}.csv")), out)
    return digest.hexdigest()


def mc_check_digest() -> str:
    return hashlib.sha256(_run_cli(["mc-check"])[1].encode()).hexdigest()


def demo_digest(script: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, check=False)
    return hashlib.sha256(result.stdout).hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        print(f"sweep {sweep_digest()}", flush=True)
        for preset in FIGURES:
            print(f"figure {preset} {figure_digest(preset)}", flush=True)
        print(f"mc-check {mc_check_digest()}", flush=True)
        for script in sorted((ROOT / "demos").glob("*.py")):
            print(f"demo {script.name} {demo_digest(script)}", flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
