#!/usr/bin/env python3
"""synccount-lint: determinism & crash-safety static analysis for synccount.

Every guarantee this repo sells -- bit-identical results across backends,
thread counts, and local-vs-distributed execution, and crash-safe CRC-framed
IO -- is otherwise enforced only dynamically, by differential and chaos tests
that cannot see a violation until a seed happens to hit it.  This tool checks
the contracts statically, once, for all inputs, at token level:

  D1  nondet         no nondeterminism sources outside an allowlist:
                     std::random_device, rand()/srand(), time(), getenv()
                     anywhere; *_clock::now() outside src/sim/profile.hpp,
                     src/util/backoff* and bench/ timing; std::hash in wire
                     paths (its result is implementation-defined and must
                     never reach wire bytes).
  D2  unordered-iter no std::unordered_map / std::unordered_set in
                     serialization, fold, or sink paths -- iteration order
                     is unspecified and leaks straight into wire bytes.
  D3  raw-io         raw file writes (std::ofstream, fopen, ::open with
                     O_CREAT, bare ::write) in src/serve/ and sink/trace
                     paths must route through atomic_write_file /
                     AtomicAppender (the only commit-disciplined writers).
  D4  global-state   no non-const mutable globals / non-atomic statics in
                     src/ (thread_local, std::atomic, std::mutex,
                     std::once_flag and const/constexpr are fine).
  D5  cast           reinterpret_cast only at allowlisted, comment-justified
                     sites.

Suppressions are explicit and auditable:

    // synccount-lint: allow(<rule>) -- <reason>

on the offending line or in the comment block directly above it (the reason
may wrap over several comment lines).  A suppression without a reason, naming
an unknown rule, or suppressing nothing is itself a finding -- the audit
trail stays honest.

Fixture files (and only fixture files) may override the path used for rule
scoping with a first-line directive, so path-scoped rules are testable from
tests/lint_fixtures/:

    // synccount-lint: path(src/serve/fixture.cpp)

Usage:
    synccount_lint.py --compdb BUILD_DIR [--root DIR] [--fix-list OUT.json]
    synccount_lint.py --files FILE... [--root DIR] [--fix-list OUT.json]

Exit status: 0 clean, 2 findings, 1 usage or IO error.  Diagnostics are
`file:line: rule: message`, one per line, on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --- Source model ------------------------------------------------------------


@dataclass
class Suppression:
    line: int  # 1-based line the comment sits on
    rule: str
    reason: str
    used: bool = False


@dataclass
class SourceFile:
    """One analyzed file: comment/string-stripped code plus its suppressions."""

    real_path: str  # path on disk (repo-relative)
    scope_path: str  # path used for rule scoping (overridden by path() directive)
    code_lines: list[str] = field(default_factory=list)
    suppressions: list[Suppression] = field(default_factory=list)
    directive_findings: list[tuple[int, str]] = field(default_factory=list)


SUPPRESS_RE = re.compile(
    r"//\s*synccount-lint:\s*allow\(([a-zA-Z-]*)\)\s*(?:--\s*(.*?))?\s*$"
)
PATH_DIRECTIVE_RE = re.compile(r"//\s*synccount-lint:\s*path\(([^)]+)\)\s*$")
# Any other "synccount-lint:" comment is a typo'd directive -- flag it rather
# than silently ignoring what the author believed was a suppression.
ANY_DIRECTIVE_RE = re.compile(r"//\s*synccount-lint:")


def strip_code(text: str) -> tuple[list[str], list[tuple[int, str]]]:
    """Blank out comments and string/char literals, preserving line structure.

    Returns (code_lines, comment_lines): the code view with literals and
    comments replaced by spaces, and the raw text of every // comment keyed
    by line number (for suppression parsing).  Handles //, /* */, "...",
    '...' and raw strings R"delim(...)delim".
    """
    code: list[str] = []
    comments: list[tuple[int, str]] = []
    i, n = 0, len(text)
    cur: list[str] = []
    comment_cur: list[str] = []
    line_no = 1
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""

    def end_line() -> None:
        nonlocal cur, comment_cur, line_no
        code.append("".join(cur))
        if comment_cur:
            comments.append((line_no, "".join(comment_cur)))
        cur = []
        comment_cur = []
        line_no += 1

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            if state == "line_comment":
                state = "code"
            end_line()
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                comment_cur.append("//")
                cur.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                cur.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"' and not (cur and (cur[-1].isalnum() or cur[-1] == "_")):
                m = re.match(r'R"([^()\\ \t\n]*)\(', text[i:])
                if m:
                    raw_terminator = ")" + m.group(1) + '"'
                    state = "raw"
                    cur.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                cur.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                cur.append(" ")
                i += 1
                continue
            cur.append(c)
            i += 1
        elif state == "line_comment":
            comment_cur.append(c)
            cur.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                cur.append("  ")
                i += 2
            else:
                cur.append(" ")
                i += 1
        elif state == "string":
            if c == "\\":
                cur.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                cur.append(" ")
                i += 1
            else:
                cur.append(" ")
                i += 1
        elif state == "char":
            if c == "\\":
                cur.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                cur.append(" ")
                i += 1
            else:
                cur.append(" ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_terminator, i):
                state = "code"
                cur.append(" " * len(raw_terminator))
                i += len(raw_terminator)
            else:
                cur.append(" ")
                i += 1
    if cur or comment_cur:
        end_line()
    return code, comments


def load_source(real_path: str, root: str) -> SourceFile:
    with open(os.path.join(root, real_path), encoding="utf-8", errors="replace") as f:
        text = f.read()
    code_lines, comments = strip_code(text)
    src = SourceFile(real_path=real_path, scope_path=real_path, code_lines=code_lines)
    for line_no, comment in comments:
        m = SUPPRESS_RE.search(comment)
        if m:
            rule, reason = m.group(1), (m.group(2) or "").strip()
            if rule not in RULE_IDS:
                src.directive_findings.append(
                    (line_no, f"allow({rule!r}) names no known rule "
                              f"(known: {', '.join(sorted(RULE_IDS))})"))
            elif not reason:
                src.directive_findings.append(
                    (line_no, f"allow({rule}) is missing its '-- <reason>' "
                              "justification"))
            else:
                src.suppressions.append(Suppression(line_no, rule, reason))
            continue
        pm = PATH_DIRECTIVE_RE.search(comment)
        if pm:
            if line_no == 1 and "lint_fixtures" in real_path.replace(os.sep, "/"):
                src.scope_path = pm.group(1).strip()
            else:
                src.directive_findings.append(
                    (line_no, "path(...) directive is only valid on line 1 of "
                              "tests/lint_fixtures/ files"))
            continue
        if ANY_DIRECTIVE_RE.search(comment):
            src.directive_findings.append(
                (line_no, "malformed synccount-lint directive (expected "
                          "'allow(<rule>) -- <reason>')"))
    return src


# --- Rules -------------------------------------------------------------------

# File-set predicates, on /-separated repo-relative paths.


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def in_wire_paths(path: str) -> bool:
    """Files whose bytes (or byte order) reach the wire / durable files."""
    p = _norm(path)
    return (
        p.startswith("src/serve/")
        or p.startswith("src/sim/experiment_io")
        or p.startswith("src/sim/sink")
        or p.startswith("src/sim/trace_format")
        or p.startswith("src/util/json")
    )


def in_clock_allowlist(path: str) -> bool:
    p = _norm(path)
    return (
        p == "src/sim/profile.hpp"  # profiling counters, never in wire bytes
        or p.startswith("src/util/backoff")  # retry pacing is wall-clock by design
        or p.startswith("bench/")  # bench timing
    )


def in_getenv_allowlist(path: str) -> bool:
    p = _norm(path)
    return p.startswith("src/util/cli")  # the one sanctioned flag/env surface


def in_src(path: str) -> bool:
    return _norm(path).startswith("src/")


@dataclass
class Rule:
    rule_id: str
    pattern: re.Pattern
    applies: object  # path predicate
    message: str


# D1 -- nondeterminism sources.  Member accessors named rand() (the repo's
# deterministic per-node Rng handle) are excluded by the lookbehind: calls
# through '.', '->' or a qualifier do not match; bare and std:: forms do.
RULES: list[Rule] = [
    Rule("nondet", re.compile(r"\brandom_device\b"), lambda p: True,
         "std::random_device is a nondeterminism source; derive seeds from "
         "util::hash_combine over the experiment spec instead"),
    Rule("nondet", re.compile(r"(?:std::|(?<![\w.:>]))srand\s*\("), lambda p: True,
         "srand() seeds the process-global libc PRNG; use util::Rng with an "
         "explicit seed"),
    Rule("nondet", re.compile(r"(?:std::|(?<![\w.:>&]))rand\s*\(\s*\)"), lambda p: True,
         "rand() is process-global, platform-varying state; use util::Rng"),
    Rule("nondet", re.compile(r"(?:std::|(?<![\w.:>]))time\s*\("), lambda p: True,
         "time() reads the wall clock; results must not depend on when they "
         "were computed"),
    Rule("nondet", re.compile(r"(?:_clock|\bClock)\s*::\s*now\s*\("),
         lambda p: not in_clock_allowlist(p),
         "clock reads are allowed only in src/sim/profile.hpp, "
         "src/util/backoff* and bench/ timing; route through those or justify"),
    Rule("nondet", re.compile(r"(?:std::|(?<![\w.:>]))getenv\s*\("),
         lambda p: not in_getenv_allowlist(p),
         "getenv() outside src/util/cli* makes results depend on ambient "
         "process state; plumb configuration explicitly or justify"),
    Rule("nondet", re.compile(r"\bstd::hash\b"), in_wire_paths,
         "std::hash is implementation-defined and unstable across platforms; "
         "its value must never reach wire bytes"),
    # D2 -- unordered containers in wire paths.  Banned outright (not just
    # iteration): at token level any use risks an iteration-order leak, and
    # ordered std::map/std::set are drop-in deterministic replacements.
    Rule("unordered-iter",
         re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
         in_wire_paths,
         "unordered container in a serialization/fold/sink path: iteration "
         "order is unspecified and leaks into wire bytes; use std::map / "
         "std::set or an explicit ordering"),
    # D3 -- raw writes in crash-safety-critical paths.
    Rule("raw-io", re.compile(r"\bstd::ofstream\b"), in_wire_paths,
         "raw std::ofstream in a durable-IO path skips fsync and rollback; "
         "route through atomic_write_file / AtomicAppender"),
    Rule("raw-io", re.compile(r"(?:std::|(?<![\w.:>]))f(?:open|write)\s*\("),
         in_wire_paths,
         "raw C stdio write in a durable-IO path; route through "
         "atomic_write_file / AtomicAppender"),
    Rule("raw-io", re.compile(r"::\s*(?:open|creat|write)\s*\("), in_wire_paths,
         "bare POSIX file IO in a durable-IO path; only the committing "
         "writers (atomic_write_file / AtomicAppender) may touch fds directly"),
    # D5 -- reinterpret_cast anywhere.
    Rule("cast", re.compile(r"\breinterpret_cast\b"), lambda p: True,
         "reinterpret_cast is allowed only at justified sites (POSIX sockaddr "
         "casts, SIMD loads); prefer std::memcpy / std::bit_cast"),
]

# D4 -- mutable static / global state in src/.  Handled by a dedicated
# scanner rather than a single regex: a declaration is flagged when it has
# static storage duration and none of the sanctioned shapes (const,
# constexpr, thread_local, std::atomic, synchronization primitives) and is
# not a static member-function declaration.
GLOBAL_STATE_ID = "global-state"
GLOBAL_STATE_MSG = (
    "mutable static state in src/ breaks the everything-is-a-pure-function "
    "determinism contract; make it const/constexpr, std::atomic, "
    "thread_local, or justify the synchronization discipline"
)

STATIC_DECL_RE = re.compile(r"(?:^|[;{}\s])static\s+(?!assert\b)")
ALLOWED_STATIC_RE = re.compile(
    r"\b(?:const\b|constexpr\b|thread_local\b|std::atomic\b|std::mutex\b|"
    r"std::shared_mutex\b|std::once_flag\b|std::condition_variable\b)"
)
# "static <type> name(" with no '=' first: a member/free function.  Variables
# initialize with '=' or '{' (paren-init of statics is vanishingly rare here
# and would be flagged -- the safe direction).
FUNC_AFTER_STATIC_RE = re.compile(r"^[\w:<>,*&\s~]+?\b[\w~]+\s*\(")

RULE_IDS = {r.rule_id for r in RULES} | {GLOBAL_STATE_ID}


def scan_global_state(src: SourceFile) -> list[tuple[int, str]]:
    """Find mutable static declarations in the code view of a src/ file."""
    findings: list[tuple[int, str]] = []
    for idx, line in enumerate(src.code_lines, start=1):
        m = STATIC_DECL_RE.search(line)
        if not m:
            continue
        # The declaration text: from 'static' to the end of line.  Multi-line
        # declarations are judged by their first line -- the storage class,
        # cv-qualifiers and type all precede the name in this codebase.
        decl = line[line.find("static", m.start()) + len("static"):]
        if ALLOWED_STATIC_RE.search(line):
            continue
        eq = decl.find("=")
        paren_m = FUNC_AFTER_STATIC_RE.match(decl)
        if paren_m and (eq == -1 or decl.find("(") < eq):
            continue  # function declaration/definition
        if re.match(r"\s*$", decl):
            continue  # 'static' split from its declaration; next line judged
        findings.append((idx, GLOBAL_STATE_MSG))
    return findings


# --- Analysis ----------------------------------------------------------------


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str


def analyze_file(src: SourceFile) -> tuple[list[Finding], list[Finding]]:
    """Returns (unsuppressed findings, suppressed findings) for one file."""
    raw: list[tuple[int, str, str]] = []  # (line, rule, message)
    for rule in RULES:
        if not rule.applies(src.scope_path):
            continue
        for idx, line in enumerate(src.code_lines, start=1):
            for _ in rule.pattern.finditer(line):
                raw.append((idx, rule.rule_id, rule.message))
    if in_src(src.scope_path):
        for idx, msg in scan_global_state(src):
            raw.append((idx, GLOBAL_STATE_ID, msg))

    # A suppression covers its own line plus the next line that holds any
    # code, skipping blank and comment-only lines -- so a justification may
    # wrap over several comment lines between allow(...) and the code.
    def covers(sup: Suppression, finding_line: int) -> bool:
        if sup.line == finding_line:
            return True
        if sup.line > finding_line:
            return False
        for between in range(sup.line, finding_line - 1):
            if src.code_lines[between].strip():
                return False  # code intervenes; suppression spent elsewhere
        return True

    active: list[Finding] = []
    suppressed: list[Finding] = []
    for idx, rule_id, message in sorted(raw):
        sup = next(
            (s for s in src.suppressions
             if s.rule == rule_id and covers(s, idx)),
            None,
        )
        if sup:
            sup.used = True
            suppressed.append(Finding(src.real_path, idx, rule_id, message))
        else:
            active.append(Finding(src.real_path, idx, rule_id, message))

    for line_no, msg in src.directive_findings:
        active.append(Finding(src.real_path, line_no, "suppression", msg))
    for sup in src.suppressions:
        if not sup.used:
            active.append(Finding(
                src.real_path, sup.line, "suppression",
                f"allow({sup.rule}) suppresses nothing on its own or the "
                "next line; remove it"))
    active.sort(key=lambda f: f.line)
    return active, suppressed


# --- File collection ---------------------------------------------------------

ANALYZED_DIRS = ("src/", "tools/", "bench/", "tests/")
SOURCE_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh")


def is_analyzed_path(rel: str) -> bool:
    p = _norm(rel)
    return (
        p.endswith(SOURCE_EXTS)
        and p.startswith(ANALYZED_DIRS)
        and "/lint_fixtures/" not in p
        and not p.startswith("build")
    )


def collect_from_compdb(compdb_arg: str, root: str) -> list[str]:
    """TUs from compile_commands.json plus all headers under analyzed dirs.

    The compile database names only .cpp TUs; headers never appear in it, so
    they are swept up by walking the same directories the TUs live in.
    """
    path = compdb_arg
    if os.path.isdir(path):
        path = os.path.join(path, "compile_commands.json")
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    files: set[str] = set()
    for entry in entries:
        fpath = entry["file"]
        if not os.path.isabs(fpath):
            fpath = os.path.normpath(os.path.join(entry["directory"], fpath))
        rel = os.path.relpath(fpath, root)
        if rel.startswith(".."):
            continue
        if is_analyzed_path(rel):
            files.add(rel)
    for top in ANALYZED_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if is_analyzed_path(rel) and rel.endswith((".hpp", ".h", ".hh")):
                    files.add(rel)
    return sorted(files)


# --- Driver ------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="synccount_lint.py",
        description="determinism & crash-safety lint for synccount "
                    "(rules: nondet, unordered-iter, raw-io, global-state, "
                    "cast)")
    parser.add_argument("--compdb", metavar="DIR",
                        help="build dir containing compile_commands.json "
                             "(or a path to the json itself)")
    parser.add_argument("--files", nargs="+", metavar="FILE",
                        help="analyze exactly these files (fixture/test mode)")
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="repo root (default: parent of tools/lint/)")
    parser.add_argument("--fix-list", metavar="OUT.json", dest="fix_list",
                        help="also write a machine-readable JSON report")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-finding diagnostics")
    args = parser.parse_args(argv)

    if bool(args.compdb) == bool(args.files):
        parser.error("exactly one of --compdb or --files is required")
    root = os.path.abspath(
        args.root
        or os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))

    try:
        if args.compdb:
            rel_files = collect_from_compdb(args.compdb, root)
        else:
            rel_files = []
            for f in args.files:
                rel = os.path.relpath(os.path.abspath(f), root)
                if rel.startswith(".."):
                    print(f"error: {f} is outside the repo root {root}",
                          file=sys.stderr)
                    return 1
                rel_files.append(rel)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: cannot load compile database: {e}", file=sys.stderr)
        return 1

    all_active: list[Finding] = []
    all_suppressed: list[Finding] = []
    for rel in rel_files:
        try:
            src = load_source(rel, root)
        except OSError as e:
            print(f"error: cannot read {rel}: {e}", file=sys.stderr)
            return 1
        active, suppressed = analyze_file(src)
        all_active.extend(active)
        all_suppressed.extend(suppressed)

    if not args.quiet:
        for f in all_active:
            print(f"{f.file}:{f.line}: {f.rule}: {f.message}")

    if args.fix_list:
        report = {
            "version": 1,
            "files_analyzed": len(rel_files),
            "findings": [vars(f) for f in all_active],
            "suppressed": [vars(f) for f in all_suppressed],
        }
        try:
            with open(args.fix_list, "w", encoding="utf-8") as out:
                json.dump(report, out, indent=2, sort_keys=False)
                out.write("\n")
        except OSError as e:
            print(f"error: cannot write {args.fix_list}: {e}", file=sys.stderr)
            return 1

    if not args.quiet:
        print(f"synccount-lint: {len(rel_files)} files, "
              f"{len(all_active)} finding(s), "
              f"{len(all_suppressed)} suppressed", file=sys.stderr)
    return 2 if all_active else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
