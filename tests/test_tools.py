"""The analysis scripts in tools/ still run against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name, *args):
    return subprocess.run([sys.executable, str(TOOLS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_work_census_binds_every_name():
    # a renamed private that the census wraps would silently count 0
    run = run_tool("work_census.py", str(ROOT), "5")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "not bound = none"


@pytest.mark.parametrize("name", ["task_ab.py", "overlap_replay.py",
                                  "output_compare.py", "work_census.py"])
def test_tool_without_arguments_prints_its_usage(name):
    run = run_tool(name)
    assert run.returncode == 2
    assert f"usage: python3 tools/{name} " in run.stderr
    assert run.stdout == ""


@pytest.mark.parametrize("name, args", [
    ("output_digest.py", ["--help"]),
    ("work_census.py", ["/nonexistent"]),
    ("task_ab.py", ["/nonexistent", "/nonexistent"]),
    ("overlap_replay.py", ["/nonexistent"]),
])
def test_tool_with_bad_arguments_prints_its_usage(name, args):
    # a CHECKOUT must hold src/fiberdd and bench/tasks.py, and the digest
    # takes no arguments: nothing runs, nothing reaches stdout
    run = run_tool(name, *args)
    assert run.returncode == 2
    assert f"usage: python3 tools/{name}" in run.stderr
    assert run.stdout == ""
