"""Shared pytest hooks: make src importable by subprocesses, echo the
acceptance-criteria report lines."""

import os
import sys


def pytest_configure(config):
    """Export src on PYTHONPATH for subprocesses (``python -m fiberdd``);
    the ``pythonpath`` setting in pyproject.toml covers only this process."""
    src = str(config.rootpath / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if src not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *paths])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
