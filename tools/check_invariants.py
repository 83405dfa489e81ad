#!/usr/bin/env python3
"""Project lint: textual invariants the compiler does not check.

Rules
-----
1. hot-path: inside a ``// ORCO_HOT_PATH BEGIN`` .. ``// ORCO_HOT_PATH END``
   region there must be no ``operator new`` (``new`` expressions,
   ``make_unique``/``make_shared``), no ``std::function``, and no mutex
   lock acquisition (``MutexLock``/``lock_guard``/``unique_lock``/
   ``scoped_lock``/``shared_lock`` or a ``.lock()`` call). These regions
   mark the per-event record paths (metrics record, trace emit) whose
   contract is "relaxed atomics only" — an allocation or lock slipped into
   one is a real regression even when every test still passes.
2. headers: every public header under src/ compiles standalone
   (``$CXX -fsyntax-only`` on a TU that includes just that header), so no
   header silently leans on its includers' includes.
3. todo-tags: every TODO/FIXME in src/, tests/, bench/, examples/ carries
   an issue tag — ``TODO(#123)`` or ``TODO(name)`` — so stale intentions
   stay attributable.
4. includers: every header under src/ is included by some file outside
   tests/ other than its own .cpp (src/, bench/, examples/ or
   orcobench/). A header only tests include is test code shipped in the
   library: move it under tests/ (as tests/gradcheck.h) or delete it.
5. const-cast: under src/, ``const_cast`` appears only as
   ``const_cast<T*>(this)``, the idiom a const overload uses to share its
   non-const twin's body. Any other cast away of const can mutate what a
   caller handed out as immutable (a published snapshot's decoder, say).
6. mapping: under src/, ``mmap``, ``munmap`` and ``madvise`` appear only
   in src/tensor/buffer.cpp, the allocator behind tensor storage, packed
   panels and Workspace blocks, so the allocation policy (which buffers
   get their own huge-page-advised mapping) stays in one place.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.

``--self-test`` seeds one violation of each rule into a temp tree and
verifies the lint catches all of them — run it in CI so a silently
broken rule cannot pass as "no violations".
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HOT_BEGIN = re.compile(r"//\s*ORCO_HOT_PATH\s+BEGIN\b")
HOT_END = re.compile(r"//\s*ORCO_HOT_PATH\s+END\b")

# Each entry: (human label, pattern). Patterns are matched per line with
# comments stripped.
HOT_PATH_BANS = [
    ("operator new", re.compile(r"\bnew\b|\bmake_unique\b|\bmake_shared\b")),
    ("std::function", re.compile(r"\bstd::function\b")),
    (
        "mutex lock acquisition",
        re.compile(
            r"\bMutexLock\b|\bWriterMutexLock\b|\bReaderMutexLock\b"
            r"|\block_guard\b|\bunique_lock\b|\bscoped_lock\b|\bshared_lock\b"
            r"|\.lock\s*\("
        ),
    ),
]

TODO_RE = re.compile(r"\b(TODO|FIXME)\b")
TODO_TAGGED_RE = re.compile(r"\b(?:TODO|FIXME)\s*\([^)]+\)")

SOURCE_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_EXTS = {".h", ".hpp", ".cpp", ".cc"}
# Rule 4: the trees whose includes count as a header's users.
INCLUDER_DIRS = ["src", "bench", "examples", "orcobench"]
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
# Rule 5: every const_cast, and the one form of it that is allowed.
CONST_CAST_RE = re.compile(r"\bconst_cast\b")
CONST_CAST_THIS_RE = re.compile(
    r"\bconst_cast\s*<\s*[\w:]+\s*\*\s*>\s*\(\s*this\s*\)"
)
# Rule 6: the memory-mapping calls, and the one TU allowed to make them.
MAPPING_RE = re.compile(r"\b(?:mmap|munmap|madvise)\b")
MAPPING_TU = os.path.join("src", "tensor", "buffer.cpp")


def source_files(root: str, dirs: list[str] = SOURCE_DIRS) -> list[str]:
    out = []
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if os.path.splitext(name)[1] in SOURCE_EXTS:
                    out.append(os.path.join(dirpath, name))
    return out


def strip_line_comment(line: str) -> str:
    # Good enough for this codebase: no block comments spanning hot regions.
    i = line.find("//")
    return line if i < 0 else line[:i]


def check_hot_paths(root: str) -> list[str]:
    errors = []
    for path in source_files(root):
        rel = os.path.relpath(path, root)
        in_region = False
        begin_line = 0
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if HOT_BEGIN.search(line):
                    if in_region:
                        errors.append(
                            f"{rel}:{lineno}: nested ORCO_HOT_PATH BEGIN "
                            f"(previous at line {begin_line})"
                        )
                    in_region = True
                    begin_line = lineno
                    continue
                if HOT_END.search(line):
                    if not in_region:
                        errors.append(
                            f"{rel}:{lineno}: ORCO_HOT_PATH END without BEGIN"
                        )
                    in_region = False
                    continue
                if not in_region:
                    continue
                code = strip_line_comment(line)
                for label, pat in HOT_PATH_BANS:
                    if pat.search(code):
                        errors.append(
                            f"{rel}:{lineno}: {label} inside ORCO_HOT_PATH "
                            f"region (begins line {begin_line}): "
                            f"{line.strip()}"
                        )
        if in_region:
            errors.append(
                f"{rel}:{begin_line}: unterminated ORCO_HOT_PATH region"
            )
    return errors


def check_todo_tags(root: str) -> list[str]:
    errors = []
    for path in source_files(root):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if TODO_RE.search(line) and not TODO_TAGGED_RE.search(line):
                    errors.append(
                        f"{rel}:{lineno}: untagged TODO/FIXME (write "
                        f"TODO(#issue) or TODO(name)): {line.strip()}"
                    )
    return errors


def check_includers(root: str) -> list[str]:
    src = os.path.join(root, "src")
    headers = {
        os.path.relpath(p, src): p
        for p in source_files(root, ["src"])
        if os.path.splitext(p)[1] in {".h", ".hpp"}
    }
    used = set()
    for path in source_files(root, INCLUDER_DIRS):
        with open(path, encoding="utf-8") as f:
            for line in f:
                m = INCLUDE_RE.match(line)
                if m is None or m.group(1) not in headers:
                    continue
                header = headers[m.group(1)]
                own_cpp = os.path.splitext(header)[0] + ".cpp"
                if path not in (header, own_cpp):
                    used.add(m.group(1))
    return [
        f"{os.path.relpath(p, root)}: no includer outside tests/ and its "
        f"own .cpp (move it under tests/ or delete it)"
        for inc, p in sorted(headers.items())
        if inc not in used
    ]


def check_const_casts(root: str) -> list[str]:
    errors = []
    for path in source_files(root, ["src"]):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                code = strip_line_comment(line)
                casts = len(CONST_CAST_RE.findall(code))
                if casts > len(CONST_CAST_THIS_RE.findall(code)):
                    errors.append(
                        f"{rel}:{lineno}: const_cast other than "
                        f"const_cast<T*>(this): {line.strip()}"
                    )
    return errors


def check_mappings(root: str) -> list[str]:
    errors = []
    for path in source_files(root, ["src"]):
        rel = os.path.relpath(path, root)
        if rel == MAPPING_TU:
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                if MAPPING_RE.search(strip_line_comment(line)):
                    errors.append(
                        f"{rel}:{lineno}: mmap/munmap/madvise outside "
                        f"{MAPPING_TU}: {line.strip()}"
                    )
    return errors


def check_headers(root: str, cxx: str, jobs: int) -> list[str]:
    headers = [
        p
        for p in source_files(root)
        if os.path.splitext(p)[1] in {".h", ".hpp"}
        and os.path.relpath(p, root).startswith("src" + os.sep)
    ]
    errors = []
    procs: list[tuple[str, subprocess.Popen]] = []

    def reap(block_under: int) -> None:
        while len(procs) > block_under:
            rel, proc = procs.pop(0)
            out, _ = proc.communicate()
            if proc.returncode != 0:
                tail = out.decode(errors="replace").strip().splitlines()
                errors.append(
                    f"{rel}: does not compile standalone:\n    "
                    + "\n    ".join(tail[:8])
                )

    with tempfile.TemporaryDirectory() as tmp:
        for path in headers:
            rel = os.path.relpath(path, root)
            tu = os.path.join(tmp, rel.replace(os.sep, "_") + ".cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{os.path.relpath(path, os.path.join(root, "src"))}"\n')
            proc = subprocess.Popen(
                [cxx, "-std=c++20", "-fsyntax-only",
                 "-I", os.path.join(root, "src"), tu],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
            procs.append((rel, proc))
            reap(jobs)
        reap(0)
    return errors


def run_all(root: str, cxx: str, jobs: int, skip_headers: bool) -> list[str]:
    errors = check_hot_paths(root)
    errors += check_todo_tags(root)
    errors += check_includers(root)
    errors += check_const_casts(root)
    errors += check_mappings(root)
    if not skip_headers:
        errors += check_headers(root, cxx, jobs)
    return errors


def self_test(cxx: str, jobs: int) -> int:
    """Seed one violation per rule in a copied tree; all must be caught."""
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "repo")
        os.makedirs(os.path.join(root, "src", "selftest"))
        shutil.copytree(
            os.path.join(REPO, "src", "common"),
            os.path.join(root, "src", "common"),
        )

        # Rule 1: a lock acquisition inside a hot-path region.
        with open(
            os.path.join(root, "src", "selftest", "hot.cpp"), "w",
            encoding="utf-8",
        ) as f:
            f.write(
                "#include \"common/mutex.h\"\n"
                "// ORCO_HOT_PATH BEGIN\n"
                "void record(orco::common::Mutex& mu) {\n"
                "  orco::common::MutexLock lock(mu);\n"
                "}\n"
                "// ORCO_HOT_PATH END\n"
            )
        got = check_hot_paths(root)
        if not any("hot.cpp" in e and "mutex lock" in e for e in got):
            failures.append(f"hot-path rule missed the seeded lock: {got}")

        # Rule 2: a header that references an undeclared name.
        with open(
            os.path.join(root, "src", "selftest", "broken.h"), "w",
            encoding="utf-8",
        ) as f:
            f.write("#pragma once\ninline int broken() { return kUndeclared; }\n")
        got = check_headers(root, cxx, jobs)
        if not any("broken.h" in e for e in got):
            failures.append(f"header rule missed the seeded broken header: {got}")
        if any("common" in e for e in got):
            failures.append(f"header rule flagged a known-good header: {got}")

        # Rule 3: an untagged TODO.
        with open(
            os.path.join(root, "src", "selftest", "todo.cpp"), "w",
            encoding="utf-8",
        ) as f:
            f.write("// TODO: make this better someday\n")
        got = check_todo_tags(root)
        if not any("todo.cpp" in e for e in got):
            failures.append(f"todo rule missed the seeded untagged TODO: {got}")
        if any("tagged" in e and "todo.cpp" not in e for e in got):
            failures.append(f"todo rule flagged unexpected files: {got}")

        # Rule 4: a header that only its own .cpp and a test include.
        os.makedirs(os.path.join(root, "tests"))
        for rel, text in [
            ("src/selftest/only_tested.h", "#pragma once\nint only_tested();\n"),
            ("src/selftest/only_tested.cpp",
             '#include "selftest/only_tested.h"\n'
             "int only_tested() { return 1; }\n"),
            ("tests/only_tested_test.cpp",
             '#include "selftest/only_tested.h"\n'),
        ]:
            with open(os.path.join(root, rel), "w", encoding="utf-8") as f:
                f.write(text)
        got = check_includers(root)
        if not any("only_tested.h" in e for e in got):
            failures.append(f"includer rule missed the test-only header: {got}")
        if any("common/mutex.h" in e for e in got):
            failures.append(
                f"includer rule flagged a header hot.cpp includes: {got}")

        # Rule 5: a const_cast of a const reference, beside the allowed
        # const-overload idiom.
        with open(
            os.path.join(root, "src", "selftest", "cast.cpp"), "w",
            encoding="utf-8",
        ) as f:
            f.write(
                "struct Box {\n"
                "  int& at() { return v; }\n"
                "  const int& at() const { return const_cast<Box*>(this)->at(); }\n"
                "  int v = 0;\n"
                "};\n"
                "void poke(const Box& box) { const_cast<Box&>(box).v = 1; }\n"
            )
        flagged = [e for e in check_const_casts(root) if "cast.cpp" in e]
        if len(flagged) != 1 or "cast.cpp:6:" not in flagged[0]:
            failures.append(
                f"const-cast rule missed the seeded cast or flagged the "
                f"const-overload idiom: {flagged}")

        # Rule 6: a madvise outside the allocator's TU, beside the same call
        # in that TU and a mention in a comment.
        os.makedirs(os.path.join(root, "src", "tensor"))
        for rel, text in [
            ("src/selftest/mapped.cpp",
             "#include <sys/mman.h>\n"
             "// Comments may name munmap.\n"
             "void advise(void* p) { madvise(p, 4096, MADV_WILLNEED); }\n"),
            (MAPPING_TU,
             "#include <sys/mman.h>\n"
             "void advise(void* p) { madvise(p, 4096, MADV_HUGEPAGE); }\n"),
        ]:
            with open(os.path.join(root, rel), "w", encoding="utf-8") as f:
                f.write(text)
        got = check_mappings(root)
        if len(got) != 1 or "mapped.cpp:3:" not in got[0]:
            failures.append(
                f"mapping rule missed the seeded madvise or flagged the "
                f"allocator's TU or a comment: {got}")

    if failures:
        print("check_invariants self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("check_invariants self-test passed (all seeded violations caught)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=REPO, help="repo root to lint")
    ap.add_argument(
        "--cxx", default=os.environ.get("CXX", "c++"),
        help="compiler for the header self-containment rule",
    )
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 4)
    ap.add_argument(
        "--skip-headers", action="store_true",
        help="skip the (slower) standalone-header compile rule",
    )
    ap.add_argument(
        "--self-test", action="store_true",
        help="verify the lint catches seeded violations of every rule",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.cxx, args.jobs)

    if shutil.which(args.cxx) is None and not args.skip_headers:
        print(f"error: compiler '{args.cxx}' not found", file=sys.stderr)
        return 2

    errors = run_all(args.root, args.cxx, args.jobs, args.skip_headers)
    if errors:
        print(f"check_invariants: {len(errors)} violation(s)", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
