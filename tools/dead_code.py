#!/usr/bin/env python3
"""Dead-code gate: every out-of-line function under src/ must be linked
into some program.

Builds the main tree (tests, benches, examples) and the stand-alone
perfbench program in Debug (-O0, so nothing is inlined away) with
-ffunction-sections -fdata-sections and links with -Wl,--gc-sections. The
linker then drops every function no program reaches. A `T`/`t` symbol
defined in a libwpos_*.a archive that appears in no executable is code
nothing runs: delete it, or give it a caller and a test.

-fdata-sections matters: without it a switch jump table in an object's
shared .rodata section references its function and keeps it linked even
when nothing calls the function.

Inline functions and template instances are weak (`W`) symbols and are not
checked; only functions defined out of line in a .cc file are.

Usage:
  tools/dead_code.py [--build-dir DIR] [--jobs N]

DIR (default .dead_code_build at the repo root) gets two CMake build
trees, main/ and perfbench/; an existing tree is rebuilt incrementally.
Exit status: 0 when every library function is linked somewhere, 1 when
any is not (each printed, demangled, one a line), 2 on a build failure.
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

    defined = set()
    for lib in sorted((main_dir / "src").rglob("libwpos_*.a")):
        defined |= text_symbols(lib)
    linked = set()
    for exe in [*executables(main_dir), *executables(bench_dir)]:
        linked |= text_symbols(exe)

    dead = sorted(defined - linked)
    for name in sorted(demangle(dead)):
        print(name)
    if dead:
        print(f"{len(dead)} src/ function(s) linked into no program", file=sys.stderr)
        return 1
    print("every src/ function is linked into some program", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
