#!/usr/bin/env python3
"""Docs-numbers gate: EXPERIMENTS.md tables must quote the committed baselines.

A table opts in with an HTML comment right above it that names the BENCH
file it prints and, in a shadow table of the same shape as the table's
body, the value behind each checked cell:

  <!-- doc-numbers: BENCH_table2.json
  | - | [trap.cycles] | [rpc32.cycles] | [rpc32.cycles] / [trap.cycles] |
  -->
  | Metric | Trap | RPC | Ratio |
  |---|---|---|---|
  | Cycles | 895 | 4098.6 | 4.58 |

`[key]` is that key's "measured" value in the BENCH file; a cell may combine
keys with + - * / and parentheses. `-` leaves a cell unchecked. A checked
cell must equal its value at the precision printed: 4098.6 matches any value
within 0.05 of it. A leading `~`, thousands separators and a trailing `x` or
`%` are ignored.

Usage:
  tools/doc_numbers.py [DOC ...]      (default: EXPERIMENTS.md)

Exit status: 0 when every checked cell matches, 1 otherwise (each mismatch
printed as file:line).
"""

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MARKER = re.compile(r"<!--\s*doc-numbers:\s*(\S+)\s*$")
KEY = re.compile(r"\[([^\]]+)\]")
NUMBER = re.compile(r"^~?(-?[\d,]*\.?\d+)\s*[x%]?$")


def cells(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def evaluate(spec, bench, where):
    def value(match):
        key = match.group(1)
        if key not in bench:
            raise SystemExit(f"{where}: no key {key!r} in the BENCH file")
        return repr(float(bench[key]["measured"]))

    expr = KEY.sub(value, spec)
    if not re.fullmatch(r"[\d.eE+\-*/() ]+", expr):
        raise SystemExit(f"{where}: cannot evaluate {spec!r}")
    return eval(expr)  # arithmetic on numbers only, checked above


def check(doc):
    lines = doc.read_text().splitlines()
    errors = []
    checked = 0
    i = 0
    while i < len(lines):
        marker = MARKER.match(lines[i].strip())
        if marker is None:
            i += 1
            continue
        bench = json.loads((REPO_ROOT / marker.group(1)).read_text())
        shadow = []
        i += 1
        while lines[i].strip() != "-->":
            shadow.append(cells(lines[i]))
            i += 1
        i += 3  # the closing "-->", the table header and its separator row
        for row in shadow:
            where = f"{doc.name}:{i + 1}"
            printed = cells(lines[i])
            if len(printed) != len(row):
                errors.append(f"{where}: table row does not match its doc-numbers row")
            for spec, text in zip(row, printed):
                if spec == "-":
                    continue
                number = NUMBER.match(text)
                if number is None:
                    errors.append(f"{where}: {text!r} is not a number")
                    continue
                digits = number.group(1).replace(",", "")
                decimals = len(digits.split(".")[1]) if "." in digits else 0
                want = evaluate(spec, bench, where)
                checked += 1
                if abs(want - float(digits)) > 0.5 * 10**-decimals + 1e-9:
                    errors.append(
                        f"{where}: prints {text}, {marker.group(1)} gives "
                        f"{want:.{decimals}f} ({spec})"
                    )
            i += 1
    return errors, checked


def main():
    docs = [Path(a) for a in sys.argv[1:]] or [REPO_ROOT / "EXPERIMENTS.md"]
    failed = False
    for doc in docs:
        errors, checked = check(doc)
        for e in errors:
            print(e)
        failed |= bool(errors)
        print(f"{doc.name}: {checked} numbers checked, {len(errors)} mismatched", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
