"""Lines of src/gaussian_ramsey that a pytest run never executes, checked against an allowlist.

    PYTHONPATH=src python tools/linecov.py [pytest arguments]

Runs pytest in-process (tier-1, ``tests/``, when no argument is given)
under a ``sys.settrace`` and ``threading.settrace`` hook that traces only
frames whose code lives in ``src/gaussian_ramsey``, then prints each
executable line that never ran as ``file:line: source`` and a count per
file.  A file's executable lines are the lines its compiled code objects
map to (``co_lines``).  Child processes are not traced.  Tier-1 runs about
1.5 times slower under it.

ALLOWLIST (``tools/linecov_allow.txt``) names the lines that no public
entry can reach, one ``file:line  reason`` entry a line (``#`` starts a
comment).  The check fails on a never-run line the allowlist does not name,
and on an allowlisted line that ran or is not executable, so the list
follows the source.  Exit status is pytest's when that is nonzero, else 1
when the check fails, else 0.  It is meaningful for a full tier-1 run only.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gaussian_ramsey"
ALLOWLIST = ROOT / "tools" / "linecov_allow.txt"


def executable_lines(path: Path) -> set[int]:
    codes, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def read_allowlist(path: Path) -> dict[str, str]:
    """file:line -> reason for each entry of the allowlist; an entry without a reason is refused."""
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        entry, _, reason = line.partition("#")[0].strip().partition(" ")
        if entry:
            if not reason.strip():
                raise SystemExit(f"{path.name}:{number}: {entry} gives no reason")
            entries[entry] = reason.strip()
    return entries


def main(args: list[str]) -> int:
    allowed = read_allowlist(ALLOWLIST)  # before the run, so a malformed entry costs no tier-1 pass
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
    failures = []
    for name, path in files.items():
        source, lines = path.read_text(encoding="utf-8").splitlines(), executable_lines(path)
        never = sorted(lines - hit[name])
        total, missed = total + len(lines), missed + len(never)
        for line in never:
            entry = f"{path.relative_to(ROOT)}:{line}"
            print(f"{entry}: {source[line - 1].strip()}")
            if allowed.pop(entry, None) is None:
                failures.append(f"{entry}: never ran, and the allowlist does not name it")
        print(f"# {path.name}: {len(never)} never-run lines")
    print(f"# {total - missed} of {total} executable lines ran")
    failures += [f"{entry}: allowlisted ({reason}), but it ran or is not executable" for entry, reason in allowed.items()]
    for failure in failures:
        print(f"FAIL {failure}")
    return int(status) or int(bool(failures))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
