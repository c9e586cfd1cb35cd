#!/usr/bin/env python3
"""Dead-code gate: every out-of-line function under src/ must be linked
into some executable, and every src/ translation unit into some program.

Builds the main tree (tests, benches, examples) and the stand-alone
perfbench program in Debug (-O0, so nothing is inlined away) with
-ffunction-sections -fdata-sections and links with -Wl,--gc-sections. The
linker then drops every function no executable reaches. Two rules:

  1. A `T`/`t` symbol defined under src/ that appears in no executable, a
     test included, is code nothing runs: delete it, or give it a caller
     and a test.
  2. A src/ translation unit none of whose functions is linked into a
     program (a bench, an example or perfbench; tests do not count) is a
     component only its tests use: delete it with its tests, or give it a
     role in a program. The one exemption is src/mk/analysis/, the
     checkers that tests exist to run.

Functions are matched by mangled name, so a static function that shares
its name with one in another translation unit counts as linked when
either is.

-fdata-sections matters: without it a switch jump table in an object's
shared .rodata section references its function and keeps it linked even
when nothing calls the function.

Inline functions and template instances are weak (`W`) symbols and are not
checked; only functions defined out of line in a .cc file are.

Usage:
  tools/dead_code.py [--build-dir DIR] [--jobs N]

DIR (default .dead_code_build at the repo root) gets two CMake build
trees, main/ and perfbench/; an existing tree is rebuilt incrementally.
Exit status: 0 when both rules hold, 1 when either fails (each dead
function printed demangled, then each unreached translation unit, one a
line), 2 on a build failure.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
# Translation units rule 2 does not apply to.
PROGRAM_EXEMPT = (Path("src") / "mk" / "analysis",)


def build(source, build_dir, jobs):
    for cmd in (
        ["cmake", "-S", str(source), "-B", str(build_dir), *FLAGS],
        ["cmake", "--build", str(build_dir), f"-j{jobs}"],
    ):
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(2)


def text_symbols(path):
    """Mangled names of the functions `path` defines (nm types T and t)."""
    out = subprocess.run(
        ["nm", "--defined-only", str(path)], capture_output=True, text=True, check=True
    ).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] in ("T", "t"):
            names.add(fields[2])
    return names


def unit_functions(build_dir):
    """Maps each src/ translation unit to the functions its object defines.

    CMake puts the object of src/<lib>/<path>.cc at
    <build_dir>/src/<lib>/CMakeFiles/wpos_<lib>.dir/<path>.cc.o.
    """
    units = {}
    for obj in sorted((build_dir / "src").rglob("*.o")):
        parts = obj.relative_to(build_dir / "src").parts
        cut = parts.index("CMakeFiles")
        unit = Path("src", *parts[:cut], *parts[cut + 2 :]).with_suffix("")
        units[unit] = text_symbols(obj)
    return units


def executables(build_dir):
    for root, dirs, files in os.walk(build_dir):
        dirs[:] = [d for d in dirs if d != "CMakeFiles"]
        for name in files:
            path = Path(root) / name
            if os.access(path, os.X_OK):
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        yield path


def demangle(names):
    out = subprocess.run(
        ["c++filt"], input="\n".join(names), capture_output=True, text=True, check=True
    ).stdout
    return out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--build-dir", default=str(REPO_ROOT / ".dead_code_build"))
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    build_dir = Path(args.build_dir).resolve()
    main_dir = build_dir / "main"
    bench_dir = build_dir / "perfbench"
    build(REPO_ROOT, main_dir, args.jobs)
    build(REPO_ROOT / "perfbench", bench_dir, args.jobs)

    units = unit_functions(main_dir)
    linked = set()
    in_programs = set()
    for exe in [*executables(main_dir), *executables(bench_dir)]:
        symbols = text_symbols(exe)
        linked |= symbols
        if not exe.is_relative_to(main_dir / "tests"):
            in_programs |= symbols

    dead = sorted(set().union(*units.values()) - linked)
    for name in sorted(demangle(dead)):
        print(name)
    unreached = [
        unit
        for unit, functions in sorted(units.items())
        if functions
        and not functions & in_programs
        and not any(unit.is_relative_to(exempt) for exempt in PROGRAM_EXEMPT)
    ]
    for unit in unreached:
        print(f"{unit}: no function linked into a bench, example or perfbench")
    if dead:
        print(f"{len(dead)} src/ function(s) linked into no executable", file=sys.stderr)
    if unreached:
        print(f"{len(unreached)} src/ translation unit(s) reached by no program", file=sys.stderr)
    if dead or unreached:
        return 1
    print(
        "every src/ function is linked into some executable and every src/ translation unit "
        "into some program",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
