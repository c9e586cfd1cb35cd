#!/usr/bin/env python3
"""Dead-code gate: every out-of-line function under src/ must be linked
into some executable, every src/ translation unit into some program, and
every function a test links into a program too, or carry a written reason.

Builds the main tree (tests, benches, examples) and the stand-alone
perfbench program in Debug (-O0, so nothing is inlined away) with
-ffunction-sections -fdata-sections and links with -Wl,--gc-sections. The
linker then drops every function no executable reaches. Three rules:

  1. A `T`/`t` symbol defined under src/ that appears in no executable, a
     test included, is code nothing runs: delete it, or give it a caller
     and a test.
  2. A src/ translation unit none of whose functions is linked into a
     program (a bench, an example or perfbench; tests do not count) is a
     component only its tests use: delete it with its tests, or give it a
     role in a program. The one exemption is src/mk/analysis/, the
     checkers that tests exist to run.
  3. An out-of-line src/ function outside src/mk/analysis/ that a test
     links must also be linked into a program, or its demangled name must
     contain an entry of TEST_ONLY below, each kept for a written reason.
     The lambdas and local template instances inside a listed function
     match through that function's name. An entry that matches no
     test-only function fails too, so the table cannot go stale.

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
Exit status: 0 when all three rules hold, 1 when any fails (each dead
function printed demangled, then each unreached translation unit, then
each unlisted test-only function and each stale TEST_ONLY entry, one a
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
# Translation units rules 2 and 3 do not apply to.
PROGRAM_EXEMPT = (Path("src") / "mk" / "analysis",)

# Rule 3: the functions only tests link that stay, grouped by the reason
# they stay. An entry matches every function whose demangled name
# contains it.
TEST_ONLY = {
    "instruments that tests read the model through": (
        # The per-region cycle profile; also the base of a per-image rollup.
        "mk::trace::Tracer::FlatProfile",
        "base::ScopedLogCapture",
        "hw::PhysMem::IsAllocated",
        "hw::PhysMem::ReadU8",
        "hw::PhysMem::WriteU8",
        "hw::PhysMem::WriteU32",
        "hw::Cache::Flush",
        "hw::CodeLayout::NameOf",
        "hw::Machine::FindDevice",
        "hw::InterruptController::Enable",
        "hw::InterruptController::IsPending",
        "mks::RestartManager::restarts",
        "mks::RestartManager::watchdog_kills",
        # Builds the DOS programs the MVM tests run.
        "pers::Vm86Assembler",
    ),
    "the file-client API that the robust transport and whole-workload runs build on": (
        # The robust constructor; the plain ones are in programs.
        "svc::FsClient::FsClient",
        "svc::FsClient::Rename",
        "svc::FsClient::Lock",
        "svc::FsClient::Unlock",
        "svc::FsClient::ReadV",
        "svc::FsClient::WriteV",
        "svc::FsClient::SetSize",
        "svc::FsClient::GetAttr",
        "svc::FsClient::SetEa",
        "svc::FsClient::GetEa",
        "svc::FsCache::InvalidateHandle",
    ),
    "the mapped-file write path, a candidate for a tuned File Intensive 2, and its recovery": (
        "mk::Kernel::VmMsync",
        "mk::Kernel::VmObjectMarkClean",
        # Kernel::PagerWriteback and its code region.
        "PagerWriteback",
        "mk::Kernel::AdoptPagerBacking",
        "pers::UnixProcess::Mmap",
        "pers::UnixProcess::Munmap",
        "pers::UnixProcess::Msync",
    ),
    "recovery and degradation": (
        "mks::RestartManager::ResetBudget",
        "pers::UnixErrnoOf",
    ),
    "the other half of an API that programs use": (
        # A semaphore's kernel heap comes back here.
        "mk::Kernel::SemDestroy",
        "pers::Os2Memory::FreeMem",
        "pers::Os2Memory::SubFree",
        "pers::Os2Memory::QueryMemSize",
        "drv::ResourceManager::Yield",
        "drv::ResourceManager::OwnerOf",
        "mks::NameClient::SetAttr",
        "mks::NameClient::GetAttr",
        # The OS/2 system semaphores, which a workload harness needs.
        "pers::Os2Process::DosCreateSem",
        "pers::Os2Process::DosRequestSem",
        "pers::Os2Process::DosReleaseSem",
    ),
}


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
    checked = {
        unit: functions
        for unit, functions in units.items()
        if not any(unit.is_relative_to(exempt) for exempt in PROGRAM_EXEMPT)
    }
    unreached = [
        unit
        for unit, functions in sorted(checked.items())
        if functions and not functions & in_programs
    ]
    for unit in unreached:
        print(f"{unit}: no function linked into a bench, example or perfbench")
    test_only = demangle(sorted((set().union(*checked.values()) & linked) - in_programs))
    entries = [entry for group in TEST_ONLY.values() for entry in group]
    unlisted = sorted(name for name in test_only if not any(e in name for e in entries))
    stale = [e for e in entries if not any(e in name for name in test_only)]
    for name in unlisted:
        print(f"{name}: linked only into tests and not in TEST_ONLY")
    for entry in stale:
        print(f"TEST_ONLY entry {entry!r} matches no test-only function")
    if dead:
        print(f"{len(dead)} src/ function(s) linked into no executable", file=sys.stderr)
    if unreached:
        print(f"{len(unreached)} src/ translation unit(s) reached by no program", file=sys.stderr)
    if unlisted:
        print(f"{len(unlisted)} src/ function(s) linked only into tests", file=sys.stderr)
    if stale:
        print(f"{len(stale)} stale TEST_ONLY entr(ies)", file=sys.stderr)
    if dead or unreached or unlisted or stale:
        return 1
    print(
        "every src/ function is linked into some executable, every src/ translation unit into "
        "some program, and every test-only function is listed with its reason",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
