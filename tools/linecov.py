"""Lines of src/gaussian_ramsey that a pytest run never executes, from the standard library alone.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

Runs pytest in-process (tier-1, ``tests/``, when no argument is given)
under a ``sys.settrace`` and ``threading.settrace`` hook that traces only
frames whose code lives in ``src/gaussian_ramsey``, then prints each
executable line that never ran as ``file:line: source`` and a count per
file.  A file's executable lines are the lines its compiled code objects
map to (``co_lines``).  Child processes are not traced.  Tier-1 runs about
1.5 times slower under it.  Exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gaussian_ramsey"


def executable_lines(path: Path) -> set[int]:
    codes, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = hit.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args or ["-q", "-p", "no:cacheprovider", str(SRC.parent.parent / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in files.items():
        source, lines = path.read_text(encoding="utf-8").splitlines(), executable_lines(path)
        never = sorted(lines - hit[name])
        total, missed = total + len(lines), missed + len(never)
        for line in never:
            print(f"{path.relative_to(SRC.parent.parent)}:{line}: {source[line - 1].strip()}")
        print(f"# {path.name}: {len(never)} never-run lines")
    print(f"# {total - missed} of {total} executable lines ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
