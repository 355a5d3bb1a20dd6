"""Compare fiberdd's user-visible outputs with another checkout's, as numbers.

Usage, from anywhere::

    python3 tools/output_compare.py OTHER_CHECKOUT

The outputs are the 12 groups of ``tools/output_digest.py`` (960
``sweep`` tasks, three partial-band ``simulate`` requests, four figures,
``mc-check``, five demos), gathered by its
``collect`` for each checkout in a subprocess of its own that imports
that checkout's ``src`` and ``bench``.  For each group one line says
``identical`` or how many places differ, followed by:

- exit codes and non-numeric text that differ (they must agree
  exactly), the first few of each with where they occur;
- for each CSV column and each ``key = value`` field that differs, the
  largest absolute and the largest relative difference, each with where
  it occurs and both values, and how many entries are zero on one side
  only.

Numbers in text are found by pattern; a number is named by the CSV
column it sits in, or else by the last word before it on its line.
Relative differences are |a - b| / max(|a|, |b|).  Exits 0 when every
group is identical and 1 otherwise.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = Path(__file__).resolve().parent
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
WORD = re.compile(r"[A-Za-z_][\w]*")
SHOWN = 3  # text mismatches listed per group


def _collect(root: Path, out: Path) -> None:
    """Run in a subprocess: dump ``collect(root)`` as JSON to ``out``."""
    sys.path[:0] = [str(root / "src"), str(root / "bench"), str(TOOLS)]
    import output_digest

    groups = [[group, records]
              for group, records in output_digest.collect(root)]
    out.write_text(json.dumps(groups), encoding="utf-8")


def _gather(root: Path, out: Path) -> list:
    subprocess.run([sys.executable, str(Path(__file__).resolve()),
                    "--collect", str(root), str(out)], check=True)
    return json.loads(out.read_text(encoding="utf-8"))


class Report:
    """Differences of one output group."""

    def __init__(self):
        self.text = []      # (where, ours, theirs)
        self.fields = {}    # name -> [abs, where, rel, where, zero-only]

    def number(self, name, where, ours, theirs):
        if ours == theirs:
            return
        gap = abs(ours - theirs)
        rel = gap / max(abs(ours), abs(theirs))
        entry = self.fields.setdefault(name, [0.0, "", 0.0, "", 0])
        shown = f"{where} ({ours!r} vs {theirs!r})"
        if gap > entry[0]:
            entry[0], entry[1] = gap, shown
        if rel > entry[2]:
            entry[2], entry[3] = rel, shown
        entry[4] += (ours == 0.0) != (theirs == 0.0)

    def lines(self, group):
        count = len(self.text) + len(self.fields)
        if not count:
            return [f"{group}: identical"]
        out = [f"{group}: {len(self.text)} text mismatches, "
               f"{len(self.fields)} numeric fields differ"]
        for where, ours, theirs in self.text[:SHOWN]:
            out.append(f"  text at {where}: {ours!r} vs {theirs!r}")
        if len(self.text) > SHOWN:
            out.append(f"  ... {len(self.text) - SHOWN} more text mismatches")
        for name, (gap, at_gap, rel, at_rel, zero) in self.fields.items():
            out.append(f"  {name}: max abs {gap:.3g} at {at_gap}; "
                       f"max rel {rel:.3g} at {at_rel}; "
                       f"zero on one side only: {zero}")
        return out


def _numbers(line):
    """(skeleton, [(name, value)]) of a text line."""
    found = []
    for m in NUMBER.finditer(line):
        words = WORD.findall(line[:m.start()])
        found.append((words[-1] if words else "value", float(m.group())))
    return NUMBER.sub("#", line), found


def _compare_text(report, part, where, ours, theirs):
    a, b = ours.splitlines(), theirs.splitlines()
    if len(a) != len(b):
        report.text.append((f"{where} {part}", f"{len(a)} lines",
                            f"{len(b)} lines"))
        return
    for lineno, (la, lb) in enumerate(zip(a, b), start=1):
        if la == lb:
            continue
        (sa, na), (sb, nb) = _numbers(la), _numbers(lb)
        if sa != sb:
            report.text.append((f"{where} {part} line {lineno}", la, lb))
            continue
        for (name, x), (_, y) in zip(na, nb):
            report.number(f"{part} {name}", f"{where} {part} line {lineno}",
                          x, y)


def _compare_csv(report, where, ours, theirs):
    a, b = ours.splitlines(), theirs.splitlines()
    head = [i for i, line in enumerate(a) if not line.startswith("#")]
    if len(a) != len(b) or not head or a[:head[0] + 1] != b[:head[0] + 1]:
        # comment lines, header or row count differ: compare as text
        _compare_text(report, "csv", where, ours, theirs)
        return
    columns = a[head[0]].split(",")
    for lineno in range(head[0] + 1, len(a)):
        ca, cb = a[lineno].split(","), b[lineno].split(",")
        if ca == cb:
            continue
        if len(ca) != len(cb):
            report.text.append((f"{where} csv line {lineno + 1}", a[lineno],
                                b[lineno]))
            continue
        for name, x, y in zip(columns, ca, cb):
            try:
                x, y = float(x), float(y)
            except ValueError:
                if x != y:
                    report.text.append(
                        (f"{where} csv line {lineno + 1} {name}", x, y))
                continue
            report.number(f"csv {name}", f"{where} csv line {lineno + 1}",
                          x, y)


def compare(ours: list, theirs: list) -> tuple[list[str], bool]:
    """Report lines for two ``collect`` results, and whether all agree."""
    lines, same = [], True
    theirs = dict(theirs)
    for group, records in ours:
        report = Report()
        other = theirs.pop(group, None)
        if other is None or len(other) != len(records):
            report.text.append((group, f"{len(records)} records",
                                "missing" if other is None
                                else f"{len(other)} records"))
            other = []
        for (where, parts), (_, other_parts) in zip(records, other):
            for part, value in parts.items():
                theirs_value = other_parts.get(part)
                if part == "exit" or not isinstance(value, str) \
                        or not isinstance(theirs_value, str):
                    if value != theirs_value:
                        report.text.append((f"{where} {part}", value,
                                            theirs_value))
                elif part == "csv":
                    _compare_csv(report, where, value, theirs_value)
                else:
                    _compare_text(report, part, where, value, theirs_value)
        same &= not (report.text or report.fields)
        lines += report.lines(group)
    for group in theirs:
        lines.append(f"{group}: only in the other checkout")
        same = False
    return lines, same


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--collect":
        _collect(Path(argv[1]).resolve(), Path(argv[2]))
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "fiberdd").is_dir():
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/output_compare.py OTHER_CHECKOUT",
              file=sys.stderr)
        print("OTHER_CHECKOUT must hold src/fiberdd", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        ours = pool.submit(_gather, ROOT, Path(tmp, "ours.json"))
        theirs = pool.submit(_gather, other, Path(tmp, "theirs.json"))
        ours, theirs = ours.result(), theirs.result()
    print(f"ours: {ROOT}\ntheirs: {other}")
    lines, same = compare(ours, theirs)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
