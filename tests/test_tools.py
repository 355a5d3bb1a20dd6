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


def test_task_ab_of_one_checkout_twice_agrees_everywhere():
    run = run_tool("task_ab.py", str(ROOT), str(ROOT), "5")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-6].endswith("agree on 96 of 96 tasks")
    assert lines[-5] == "figure presets, best of 5 each:"
    assert all(line.endswith("outputs agree") for line in lines[-4:])


def test_overlap_replay_of_one_checkout_twice_prints_both_sides():
    run = run_tool("overlap_replay.py", str(ROOT), str(ROOT))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith("178 overlap calls ")
    assert lines.count(f"checkout {ROOT}") == 2
    assert sum(line.startswith("  probe: 82 calls, ") for line in lines) == 2
    assert lines[-1].startswith(f"total / first checkout's: {ROOT}: ")


def test_overlap_replay_keeps_rounds_passes_for_each_side(monkeypatch):
    # one checkout given twice is two sides, each with its own passes,
    # not one side with twice as many
    monkeypatch.syspath_prepend(str(TOOLS))
    import checkout
    import overlap_replay

    loaded = [checkout.load(ROOT, f"replay_test_fiberdd_{i}")
              for i in range(2)]
    calls = overlap_replay.record(*loaded[0])
    assert len(calls) == 178
    runs = overlap_replay.replay([fiberdd for fiberdd, _ in loaded],
                                 calls[:8])
    assert [run.shape for run in runs] == [(overlap_replay.ROUNDS, 8)] * 2
