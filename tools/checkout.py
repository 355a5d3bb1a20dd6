"""How the scripts in tools/ take and load a checkout: each checkout is
loaded under module names of its own, so two checkouts (or one given
twice) live side by side in one process and no tool touches
``sys.path``."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path


def usage_exit(doc: str, *lines: str):
    """Print the first line of ``doc`` and ``lines`` on stderr; exit 2."""
    print(doc.strip().splitlines()[0], *lines, sep="\n", file=sys.stderr)
    raise SystemExit(2)


def roots(args: list[str], doc: str, usage: str, who: str,
          valid: bool = True, tasks: bool = True) -> list[Path]:
    """The resolved checkouts ``args``, when there are any, ``valid``
    holds and each holds ``src/fiberdd`` (and ``bench/tasks.py`` when
    ``tasks``); otherwise the usage exit, ``who`` naming the arguments."""
    need = "src/fiberdd and bench/tasks.py" if tasks else "src/fiberdd"
    if not (valid and args and all(
            (Path(arg) / "src" / "fiberdd").is_dir()
            and (not tasks or (Path(arg) / "bench" / "tasks.py").is_file())
            for arg in args)):
        usage_exit(doc, f"usage: python3 tools/{usage}",
                   f"{who} must hold {need}")
    return [Path(arg).resolve() for arg in args]


def _import(name: str, path: Path, **kwargs):
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load(root: Path, name: str):
    """The checkout's ``fiberdd`` package, imported as ``name`` with its
    ``cli`` module, and its ``bench/tasks.py``, imported as
    ``name_tasks``."""
    package = root / "src" / "fiberdd"
    fiberdd = _import(name, package / "__init__.py",
                      submodule_search_locations=[str(package)])
    importlib.import_module(f"{name}.cli")
    return fiberdd, _import(f"{name}_tasks", root / "bench" / "tasks.py")


def run_quiet(cli, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()
