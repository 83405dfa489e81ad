#!/usr/bin/env python3
"""Line counts of the C++ sources, one row per top-level directory.

    python3 tools/line_count.py          # the working tree
    python3 tools/line_count.py 842d52b  # any git revision

For the ``.h``/``.cpp`` files under src/, tests/, bench/ and examples/ it
prints two counts per directory:

- ``non-blank``: lines with anything but whitespace on them;
- ``code``: the non-blank lines left after dropping every line that starts
  with ``//`` (after indentation) and every line of a block that starts
  with ``/*``, up to and including the line that holds its ``*/``.

A line that mixes code with a trailing comment counts as code. A revision
is read through ``git ls-tree``/``git show``, so nothing is checked out.
Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src", "tests", "bench", "examples")
SUFFIXES = (".h", ".cpp")


def count(text: str) -> tuple[int, int]:
    """(non-blank, code) line counts of one source file."""
    non_blank = code = 0
    in_block = False
    for line in text.splitlines():
        s = line.strip()
        if not s:
            continue
        non_blank += 1
        if in_block:
            in_block = "*/" not in s
        elif s.startswith("/*"):
            in_block = "*/" not in s[2:]
        elif not s.startswith("//"):
            code += 1
    return non_blank, code


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout


def revision_sources(rev: str, top: str):
    """(path, text) of every counted file under `top` at `rev`."""
    listing = git("ls-tree", "-r", "--name-only", rev, "--", top + "/")
    for path in listing.splitlines():
        if path.endswith(SUFFIXES):
            yield path, git("show", f"{rev}:{path}")


def tree_sources(top: str):
    """(path, text) of every counted file under `top` in the working tree."""
    for root, _, files in os.walk(os.path.join(REPO, top)):
        for name in sorted(files):
            if name.endswith(SUFFIXES):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, REPO), f.read()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "rev", nargs="?", help="git revision (default: the working tree)"
    )
    args = parser.parse_args()
    try:
        if args.rev is not None:
            git("rev-parse", "--verify", "--quiet", args.rev + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"line_count: unknown revision {args.rev!r}", file=sys.stderr)
        return 2

    print(f"{'dir':<10}{'non-blank':>10}{'code':>8}")
    totals = [0, 0]
    for top in DIRS:
        sources = (
            revision_sources(args.rev, top)
            if args.rev is not None
            else tree_sources(top)
        )
        non_blank = code = 0
        for _, text in sources:
            nb, c = count(text)
            non_blank += nb
            code += c
        totals[0] += non_blank
        totals[1] += code
        print(f"{top:<10}{non_blank:>10}{code:>8}")
    print(f"{'total':<10}{totals[0]:>10}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
