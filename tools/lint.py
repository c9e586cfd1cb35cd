#!/usr/bin/env python3
"""Repository lint checks, run in CI before the build.

Checks, over every header and source file under src/, tests/ and bench/
(rule 13 reads examples/ too):

  1. Headers carry an include guard derived from the repo-relative path
     (src/mk/kernel.h -> SRC_MK_KERNEL_H_) with matching #ifndef/#define
     at the top and a trailing #endif comment.
  2. No `using namespace` at file scope in headers: it leaks into every
     includer and has caused real ODR-adjacent confusion in stub code.
  3. Modelled cost constants live only in src/mk/costs.h. Scattering
     `struct Costs` members across files makes the calibration knobs of
     the reproduction impossible to audit against the paper's tables.
  4. Trace events come from the central registry: every EventType:: /
     SpanKind:: reference must name a member of the enums declared in
     src/mk/trace/events.h, and emit sites (Emit, BeginSpan, MarkPhase,
     MarkQueued, EndSpan, ScopedSpan) must not smuggle in ad-hoc string
     literals as event names. Keeping the event vocabulary in one header is what lets
     the exporters classify events with static tables.
     The registry must also be live: every EventType/SpanKind member
     except kCount must be referenced somewhere outside events.h and the
     tracer implementation (src/mk/trace). A registered-but-never-emitted
     event documents observability the traces do not actually have.
  5. Fault points come from the central registry: every FaultPoint:: /
     FaultMode:: reference must name a member of the enums declared in
     src/mk/fault/points.h. A fault campaign is replayed from a seed plus
     the visit sequence of named points; an unregistered point would be
     invisible to campaign tooling and to the replay documentation.
     The registry must also be live: every FaultPoint/FaultMode member
     except kNone/kCount must be referenced somewhere outside points.h.
     A registered-but-never-armed-or-fired point documents coverage the
     campaign does not actually have.
  6. Determinism (src/mk, src/svc, and src/pers): the simulation must
     replay bit-identically — that is what makes schedule traces from
     the explorer reproducible. Banned: rand()/srand(),
     std::random_device, wall-clock reads (std::chrono::system_clock etc.,
     time(), gettimeofday, clock_gettime), and range-for iteration over
     std::unordered_map/set (iteration order is unspecified and varies
     between libc++/libstdc++ and across runs with pointer keys). An
     unordered loop whose order provably does not escape may carry an
     `unordered-ok:` comment on the loop line or the line above.
  7. One server runtime (src/ only): `RpcReceive(` and
     `RpcReplyAndReceive(` may appear only in the kernel
     (src/mk/kernel*.h, src/mk/kernel*.cc) and in mk::ServerLoop
     (src/mk/server_loop.h). Every server runs on ServerLoop, which owns
     the receive loop, kTooLarge recovery, heartbeats, the server-op span
     and the kServerHandlerEntry fault point; a hand-rolled loop would
     silently drop all of those. tests/ and bench/ keep raw loops because
     they measure the kernel path itself.
  8. One file client (src/ only): `FsOp::` may appear only in the file
     server's protocol and implementation (src/svc/fs/protocol.h,
     src/svc/fs/file_server.h, src/svc/fs/file_server.cc). svc::FsClient
     marshals every file-server request once, over the plain or the robust
     transport; a second hand-marshalled copy elsewhere drifts from it
     (a read that skips the kFsMaxIo cap, a missing ReadV). tests/ and
     bench/ may still build raw requests, which the hostile-input tests
     need.
  9. Replies go through the server runtime (src/ only; src/mk/kernel*
     exempt): `RpcReply(rpc.token` and `RpcReply(req.token` are flagged.
     A dispatch answers its own request with mk::ServerLoop::Reply, which
     the loop sends together with its next receive in one
     RpcReplyAndReceive trap; a direct RpcReply costs the server a second
     trap per request. Only a deferred reply, by a token the server stored
     (NIC and OS/2 waiters), calls Kernel::RpcReply.
 10. One driver per device (src/ only): `hw::<Device>::kReg…` may appear
     only in src/hw/ and src/drv/. The monolithic comparator runs the
     user-level driver's code (drv::DiskEngine) with the kernel's hooks; a
     second copy of a register sequence outside drv/ drifts from it.
 11. One reply per server loop (src/ outside src/mk/): a file calls
     `->Reply(` exactly as often as it constructs an mk::ServerLoop
     (`make_unique<mk::ServerLoop>`). Each dispatch computes one status and
     answers from one place, as drv::DiskDriver::Serve does; a Reply in
     every error branch is a second copy of the answer that drifts (a
     failed op that still sends its payload). A deferred reply by a stored
     token goes through Kernel::RpcReply and does not count.
 12. The aborting kernel-heap allocation is rationed (src/ only): a file
     calls `heap_->Allocate(` or `heap().Allocate(` no more often than
     HEAP_ALLOCATE_ALLOWED says (files not listed: never).
     KernelHeap::Allocate aborts the host once the heap, which never
     frees, is full. A site that a client, an interrupt or a crash loop
     can reach takes TryAllocate instead, and answers kResourceShortage or
     drops its notification. The list holds CreateTask and objects made
     once at construction; CreateThread aborts through TryCreateThread.
 13. One file-service assembly: outside src/svc/fs/, no file constructs a
     BlockCache or a physical file system (an InodeFs, of any PfsKind).
     A file server builds its volumes with FileServer::AddVolume, and the
     monolithic comparator holds one svc::Volume. One place builds a file
     server's state, so a change to how a server generation gets its cache
     and file systems (ROADMAP item 13: mount from the disk) changes one
     place. Exempt are the unit tests of those classes (PFS_UNIT_TESTS).

Exit status is the number of files with violations (0 = clean).
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "bench")
# Rule 13 alone also reads the example programs.
ASSEMBLY_SCAN_DIRS = SCAN_DIRS + ("examples",)
COSTS_HEADER = Path("src") / "mk" / "costs.h"
TRACE_EVENTS_HEADER = Path("src") / "mk" / "trace" / "events.h"
FAULT_POINTS_HEADER = Path("src") / "mk" / "fault" / "points.h"

DETERMINISM_SCOPES = (Path("src") / "mk", Path("src") / "svc", Path("src") / "pers")
BANNED_NONDETERMINISM = (
    (re.compile(r"\b(?:s?rand)\s*\("), "rand()/srand() — seedless PRNG"),
    (re.compile(r"std::random_device"), "std::random_device — hardware entropy"),
    (
        re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
        "host clock read — simulated time comes from hw::Cpu cycles",
    ),
    (
        re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)|\b(?:gettimeofday|clock_gettime)\b"),
        "wall-clock read — simulated time comes from hw::Cpu cycles",
    ),
)
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set)<[^;{}()]*?>&?\s+(\w+)\s*[;={(]")
UNORDERED_ACCESSOR_RE = re.compile(r"std::unordered_(?:map|set)<[^;{}]*?>&\s+(\w+)\s*\(")
RANGE_FOR_RE = re.compile(r"^[^\S\n]*for\s*\([^;{}\n]*?:\s*([^){\n]+)\)", re.MULTILINE)
UNORDERED_OK_MARK = "unordered-ok"
INTROSPECT_HEADER = Path("src") / "mk" / "analysis" / "introspect.h"

GUARD_RE = re.compile(r"^#ifndef\s+([A-Z0-9_]+)\s*$", re.MULTILINE)
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;", re.MULTILINE)
COSTS_DEF_RE = re.compile(r"^\s*struct\s+Costs\b(?!\s*;)", re.MULTILINE)
TRACE_ENUM_REF_RE = re.compile(r"\b(EventType|SpanKind)::(\w+)")
FAULT_ENUM_REF_RE = re.compile(r"\b(FaultPoint|FaultMode)::(\w+)")
RAW_RECEIVE_RE = re.compile(r"\b(RpcReceive|RpcReplyAndReceive)\s*\(")
SERVER_LOOP_HEADER = Path("src") / "mk" / "server_loop.h"
DIRECT_REPLY_RE = re.compile(r"\bRpcReply\s*\(\s*(?:rpc|req)\.token\b")
FS_OP_RE = re.compile(r"\bFsOp::")
SERVER_LOOP_NEW_RE = re.compile(r"\bmake_unique<\s*(?:mk::)?ServerLoop\s*>\s*\(")
LOOP_REPLY_RE = re.compile(r"->Reply\s*\(")
DEVICE_REG_RE = re.compile(r"\bhw::\w+::kReg\w*")
HEAP_ALLOCATE_RE = re.compile(r"\bheap(?:_->|\(\)\.)Allocate\s*\(")
HEAP_ALLOCATE_ALLOWED = {
    Path("src") / "mk" / "kernel.cc": 2,  # CreateTask
    Path("src") / "mks" / "naming" / "lite_name_server.cc": 1,
    Path("src") / "drv" / "oo" / "fine_grained.h": 2,
    Path("src") / "drv" / "oo" / "ooddm.h": 1,
    Path("src") / "mk" / "analysis" / "explore" / "selftest.h": 1,
}
DEVICE_REG_DIRS = (Path("src") / "hw", Path("src") / "drv")
FS_PROTOCOL_FILES = {
    Path("src") / "svc" / "fs" / name for name in ("protocol.h", "file_server.h", "file_server.cc")
}
FS_DIR = Path("src") / "svc" / "fs"
PFS_UNIT_TESTS = {
    Path("tests") / "svc" / "fs_test.cc",
    Path("tests") / "props" / "pfs_contract_test.cc",
    Path("tests") / "props" / "block_cache_runs_props_test.cc",
    # A one-sector cache over the disk driver's store.
    Path("tests") / "drv" / "drivers_test.cc",
}
# A cache or file system made by make_unique<T>(...), T name(...), T(...)
# or T{...}; a T&, a T* or a unique_ptr<T> member constructs nothing.
FS_CONSTRUCT_RE = re.compile(
    r"\b(BlockCache|InodeFs)\b(?:\s*>\s*\(|\s*[({]|\s+\w+\s*[({])"
)
TRACE_EMIT_CALL_RE = re.compile(
    r"\b(Emit|BeginSpan|MarkPhase|MarkQueued|EndSpan|ScopedSpan)\s*\("
)


def load_enum_registry(header: Path, enum_names: tuple) -> dict:
    """Parses `enum class` member lists out of a registry header."""
    path = REPO_ROOT / header
    if not path.is_file():
        return {}
    text = path.read_text(encoding="utf-8", errors="replace")
    registry = {}
    for enum_name in enum_names:
        match = re.search(
            rf"enum\s+class\s+{enum_name}\b[^{{]*{{(.*?)}};", text, re.DOTALL
        )
        if match:
            # Comments inside the body routinely mention other members
            # ("supports kCrashTask, ..."), so strip them before harvesting.
            body = re.sub(r"//[^\n]*", "", match.group(1))
            registry[enum_name] = set(re.findall(r"\bk\w+", body))
    return registry


def call_argument_span(text: str, open_paren: int, limit: int = 2000) -> str:
    """Returns the text of a balanced argument list starting at `open_paren`."""
    depth = 0
    end = min(len(text), open_paren + limit)
    for i in range(open_paren, end):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren : i + 1]
    return text[open_paren:end]


def check_trace_events(
    rel_path: Path, text: str, errors: list, registry: dict, used: dict
) -> None:
    if rel_path == TRACE_EVENTS_HEADER or not registry:
        return
    in_trace_impl = rel_path.parts[:3] == ("src", "mk", "trace")
    for match in TRACE_ENUM_REF_RE.finditer(text):
        enum_name, member = match.groups()
        if member not in registry.get(enum_name, set()):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: {enum_name}::{member} is not declared in "
                f"{TRACE_EVENTS_HEADER}"
            )
        elif not in_trace_impl:
            # Liveness is judged outside the tracer machinery: exporters
            # classifying an event does not mean anything ever emits it.
            used.setdefault(enum_name, set()).add(member)
    for match in TRACE_EMIT_CALL_RE.finditer(text):
        # The tracer's own implementation may mention these names in
        # declarations and comments; emit *sites* live outside src/mk/trace.
        if in_trace_impl:
            continue
        args = call_argument_span(text, match.end() - 1)
        if '"' in args:
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: string literal in {match.group(1)}() — trace "
                f"event names come from {TRACE_EVENTS_HEADER}, not ad-hoc strings"
            )


def check_fault_points(
    rel_path: Path, text: str, errors: list, registry: dict, used: dict
) -> None:
    if rel_path == FAULT_POINTS_HEADER or not registry:
        return
    for match in FAULT_ENUM_REF_RE.finditer(text):
        enum_name, member = match.groups()
        if member not in registry.get(enum_name, set()):
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{rel_path}:{line}: {enum_name}::{member} is not declared in "
                f"{FAULT_POINTS_HEADER}"
            )
        else:
            used.setdefault(enum_name, set()).add(member)


FAULT_REGISTRY_SENTINELS = {"kNone", "kCount"}
TRACE_REGISTRY_SENTINELS = {"kCount"}


def check_trace_registry_live(registry: dict, used: dict) -> list:
    """Every registered trace event/span kind must be used outside the tracer."""
    errors = []
    for enum_name in sorted(registry):
        dead = registry[enum_name] - used.get(enum_name, set()) - TRACE_REGISTRY_SENTINELS
        for member in sorted(dead):
            errors.append(
                f"{TRACE_EVENTS_HEADER}: {enum_name}::{member} is registered but "
                f"never referenced outside the tracer — nothing emits or consumes "
                f"it; remove it or wire in an emit site"
            )
    return errors


def check_fault_registry_live(registry: dict, used: dict) -> list:
    """Every registered fault point/mode must be referenced outside points.h."""
    errors = []
    for enum_name in sorted(registry):
        dead = registry[enum_name] - used.get(enum_name, set()) - FAULT_REGISTRY_SENTINELS
        for member in sorted(dead):
            errors.append(
                f"{FAULT_POINTS_HEADER}: {enum_name}::{member} is registered but "
                f"never referenced outside the registry — a fault campaign cannot "
                f"exercise it; remove it or wire it into an injection site"
            )
    return errors


def load_unordered_accessors() -> set:
    """Names of Introspector accessors returning unordered-container refs."""
    path = REPO_ROOT / INTROSPECT_HEADER
    if not path.is_file():
        return set()
    text = path.read_text(encoding="utf-8", errors="replace")
    return set(UNORDERED_ACCESSOR_RE.findall(text))


def in_determinism_scope(rel_path: Path) -> bool:
    return any(
        rel_path.parts[: len(scope.parts)] == scope.parts for scope in DETERMINISM_SCOPES
    )


def strip_line_comment(line: str) -> str:
    return line.split("//", 1)[0]


def check_determinism(rel_path: Path, text: str, errors: list, accessors: set) -> None:
    if not in_determinism_scope(rel_path):
        return
    lines = text.split("\n")
    for i, line in enumerate(lines):
        code = strip_line_comment(line)
        for pattern, why in BANNED_NONDETERMINISM:
            if pattern.search(code):
                errors.append(f"{rel_path}:{i + 1}: nondeterminism: {why}")
    # Names declared with an unordered type in this file — and, for a .cc
    # file, in its own header, where the members usually live.
    decl_text = text
    if rel_path.suffix == ".cc":
        sibling = REPO_ROOT / rel_path.with_suffix(".h")
        if sibling.is_file():
            decl_text += sibling.read_text(encoding="utf-8", errors="replace")
    unordered_names = set(UNORDERED_DECL_RE.findall(decl_text)) | accessors
    if not unordered_names:
        return
    for match in RANGE_FOR_RE.finditer(text):
        expr_names = set(re.findall(r"\w+", match.group(1)))
        hits = expr_names & unordered_names
        if not hits:
            continue
        line = text.count("\n", 0, match.start()) + 1
        context = lines[max(0, line - 2) : line]
        if any(UNORDERED_OK_MARK in c for c in context):
            continue
        errors.append(
            f"{rel_path}:{line}: range-for over unordered container "
            f"'{sorted(hits)[0]}' — iteration order is not deterministic; sort "
            f"the keys, use an ordered container, or annotate the loop with "
            f"'// {UNORDERED_OK_MARK}: <why order does not escape>'"
        )


def check_server_runtime(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src":
        return
    if rel_path.parent == Path("src") / "mk" and rel_path.name.startswith("kernel"):
        return
    for i, line in enumerate(text.split("\n")):
        code = strip_line_comment(line)
        match = RAW_RECEIVE_RE.search(code)
        if match and rel_path != SERVER_LOOP_HEADER:
            errors.append(
                f"{rel_path}:{i + 1}: {match.group(1)}() outside the kernel — "
                f"servers run on mk::ServerLoop ({SERVER_LOOP_HEADER})"
            )
        if DIRECT_REPLY_RE.search(code):
            errors.append(
                f"{rel_path}:{i + 1}: RpcReply() to the request in dispatch — answer it "
                f"with mk::ServerLoop::Reply, which replies and receives in one trap "
                f"({SERVER_LOOP_HEADER})"
            )


def check_one_reply_per_loop(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src" or rel_path.parts[:2] == ("src", "mk"):
        return
    code = "\n".join(strip_line_comment(line) for line in text.split("\n"))
    loops = len(SERVER_LOOP_NEW_RE.findall(code))
    replies = [code.count("\n", 0, m.start()) + 1 for m in LOOP_REPLY_RE.finditer(code)]
    if len(replies) != loops:
        errors.append(
            f"{rel_path}: {len(replies)} ServerLoop::Reply call(s) for {loops} server "
            f"loop(s) (lines {', '.join(map(str, replies)) or 'none'}) — each dispatch "
            f"computes one status and answers from one place"
        )


def check_file_client(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src" or rel_path in FS_PROTOCOL_FILES:
        return
    for i, line in enumerate(text.split("\n")):
        if FS_OP_RE.search(strip_line_comment(line)):
            errors.append(
                f"{rel_path}:{i + 1}: FsOp:: outside the file server — file-server "
                f"requests are marshalled only by svc::FsClient (src/svc/fs/file_server.cc)"
            )


def check_device_registers(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src" or any(d in rel_path.parents for d in DEVICE_REG_DIRS):
        return
    for i, line in enumerate(text.split("\n")):
        match = DEVICE_REG_RE.search(strip_line_comment(line))
        if match:
            errors.append(
                f"{rel_path}:{i + 1}: {match.group(0)} outside src/hw and src/drv — device "
                f"registers are programmed only by their driver (drv::DiskEngine for the disk)"
            )


def check_heap_allocate(rel_path: Path, text: str, errors: list) -> None:
    if rel_path.parts[0] != "src":
        return
    lines = [
        i + 1
        for i, line in enumerate(text.split("\n"))
        if HEAP_ALLOCATE_RE.search(strip_line_comment(line))
    ]
    allowed = HEAP_ALLOCATE_ALLOWED.get(rel_path, 0)
    if len(lines) > allowed:
        errors.append(
            f"{rel_path}: {len(lines)} aborting KernelHeap::Allocate call(s) for {allowed} "
            f"allowed (lines {', '.join(map(str, lines))}) — a full heap aborts the host; "
            f"take TryAllocate and answer kResourceShortage or drop the notification"
        )


def check_fs_assembly(rel_path: Path, text: str, errors: list) -> None:
    if FS_DIR in rel_path.parents or rel_path in PFS_UNIT_TESTS:
        return
    for i, line in enumerate(text.split("\n")):
        match = FS_CONSTRUCT_RE.search(strip_line_comment(line))
        if match:
            errors.append(
                f"{rel_path}:{i + 1}: constructs a {match.group(1)} outside {FS_DIR} — a "
                f"file server builds its volumes with FileServer::AddVolume, and the "
                f"comparator holds one svc::Volume"
            )


def expected_guard(rel_path: Path) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", str(rel_path)).upper() + "_"


def check_header_guard(rel_path: Path, text: str, errors: list) -> None:
    want = expected_guard(rel_path)
    match = GUARD_RE.search(text)
    if match is None:
        errors.append(f"{rel_path}: missing include guard (expected {want})")
        return
    got = match.group(1)
    if got != want:
        errors.append(f"{rel_path}: include guard {got} should be {want}")
        return
    if f"#define {want}" not in text:
        errors.append(f"{rel_path}: #ifndef {want} without matching #define")
    if not re.search(rf"#endif\s*//\s*{re.escape(want)}\s*$", text.rstrip()):
        errors.append(f"{rel_path}: missing trailing '#endif  // {want}'")


def check_using_namespace(rel_path: Path, text: str, errors: list) -> None:
    for match in USING_NAMESPACE_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        errors.append(f"{rel_path}:{line}: 'using namespace' in a header")


def check_costs_definition(rel_path: Path, text: str, errors: list) -> None:
    if rel_path == COSTS_HEADER:
        return
    for match in COSTS_DEF_RE.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        errors.append(
            f"{rel_path}:{line}: 'struct Costs' defined outside {COSTS_HEADER}"
        )


def lint_file(
    path: Path,
    trace_registry: dict,
    fault_registry: dict,
    accessors: set,
    fault_used: dict,
    trace_used: dict,
) -> list:
    rel_path = path.relative_to(REPO_ROOT)
    text = path.read_text(encoding="utf-8", errors="replace")
    errors = []
    if path.suffix == ".h":
        check_header_guard(rel_path, text, errors)
        check_using_namespace(rel_path, text, errors)
    check_costs_definition(rel_path, text, errors)
    check_trace_events(rel_path, text, errors, trace_registry, trace_used)
    check_fault_points(rel_path, text, errors, fault_registry, fault_used)
    check_determinism(rel_path, text, errors, accessors)
    check_server_runtime(rel_path, text, errors)
    check_one_reply_per_loop(rel_path, text, errors)
    check_file_client(rel_path, text, errors)
    check_device_registers(rel_path, text, errors)
    check_heap_allocate(rel_path, text, errors)
    check_fs_assembly(rel_path, text, errors)
    return errors


def main() -> int:
    bad_files = 0
    total_errors = 0
    scanned = 0
    trace_registry = load_enum_registry(TRACE_EVENTS_HEADER, ("EventType", "SpanKind"))
    fault_registry = load_enum_registry(FAULT_POINTS_HEADER, ("FaultPoint", "FaultMode"))
    accessors = load_unordered_accessors()
    fault_used = {}
    trace_used = {}
    for scan_dir in ASSEMBLY_SCAN_DIRS:
        root = REPO_ROOT / scan_dir
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            scanned += 1
            if scan_dir in SCAN_DIRS and path.suffix != ".cpp":
                errors = lint_file(
                    path, trace_registry, fault_registry, accessors, fault_used, trace_used
                )
            else:
                errors = []
                check_fs_assembly(
                    path.relative_to(REPO_ROOT),
                    path.read_text(encoding="utf-8", errors="replace"),
                    errors,
                )
            if errors:
                bad_files += 1
                total_errors += len(errors)
                for error in errors:
                    print(f"lint: {error}", file=sys.stderr)
    registry_errors = check_fault_registry_live(fault_registry, fault_used)
    registry_errors += check_trace_registry_live(trace_registry, trace_used)
    if registry_errors:
        bad_files += 1
        total_errors += len(registry_errors)
        for error in registry_errors:
            print(f"lint: {error}", file=sys.stderr)
    if total_errors:
        print(f"lint: {total_errors} issue(s) in {bad_files} file(s)", file=sys.stderr)
    else:
        print(f"lint: {scanned} files clean")
    return min(bad_files, 125)


if __name__ == "__main__":
    sys.exit(main())
