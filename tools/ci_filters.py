#!/usr/bin/env python3
"""Fails when a test filter in the CI workflow selects no test.

The CI workflow runs some test binaries on named tests, as
`./build/tests/<bin> --gtest_filter='A.*:B.C'`. A pattern whose test was
deleted or renamed selects nothing, and the step would still pass. For every
such command in .github/workflows/ci.yml (following `\\` line
continuations), this runs `BUILD_DIR/tests/<bin> --gtest_list_tests` on each
`:`-separated positive pattern of its filter, and names each pattern that
lists no test, and each binary that is missing.

  python3 tools/ci_filters.py build

Exit status is the number of patterns and binaries that failed (0 = every
pattern selects a test).
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
FILTER_RE = re.compile(r"\./build/tests/(\w+)\b[^\n']*?--gtest_filter='([^']*)'")


def filters(text: str):
    """Yields (line, binary, pattern) for every positive filter pattern."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        start = i
        command = lines[i]
        while command.rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            command = command.rstrip()[:-1] + " " + lines[i].strip()
        i += 1
        for match in FILTER_RE.finditer(command):
            positive = match.group(2).split("-", 1)[0]
            for pattern in positive.split(":"):
                if pattern:
                    yield start + 1, match.group(1), pattern


def selects_a_test(binary: Path, pattern: str) -> bool:
    listing = subprocess.run(
        [str(binary), "--gtest_list_tests", f"--gtest_filter={pattern}"],
        capture_output=True,
        text=True,
        check=False,
    )
    # Test names are indented under their suite's line.
    return listing.returncode == 0 and any(
        line.startswith("  ") for line in listing.stdout.splitlines()
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", type=Path, help="a build directory with tests/ built")
    args = parser.parse_args()
    failures = 0
    checked = 0
    missing = set()
    for line, name, pattern in filters(WORKFLOW.read_text(encoding="utf-8")):
        binary = args.build_dir / "tests" / name
        if not binary.is_file():
            if name not in missing:
                missing.add(name)
                failures += 1
                print(f"ci.yml:{line}: {binary} does not exist")
            continue
        checked += 1
        if not selects_a_test(binary, pattern):
            failures += 1
            print(f"ci.yml:{line}: {name} --gtest_filter pattern '{pattern}' selects no test")
    print(f"ci_filters: {checked} patterns checked, {failures} failed")
    return failures


if __name__ == "__main__":
    sys.exit(main())
