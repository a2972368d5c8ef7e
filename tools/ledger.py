"""Open defects of the ledger in CHANGES.md: FOUND lines that no MENDED line mends.

    python tools/ledger.py [CHANGES.md]

A line that begins ``- FOUND:`` records a defect, and is named by its line
number.  It stays open until a line that begins ``- MENDED: FOUND line N``
mends it.  Any other mention of it in a MENDED line, such as ``half of
FOUND line N``, ``part of FOUND line N`` or a citation, leaves it open.
Prints each open line as ``N: `` and its first 100 characters, then their
count.  Exit status is 1 when a MENDED line names a line that is not a
FOUND line (each such name goes to stderr), else 0.  Standard library
only, and outside tier-1, like tools/linecov.py.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CHANGES = Path(__file__).resolve().parent.parent / "CHANGES.md"
MENDS = re.compile(r"- MENDED: FOUND line (\d+)\b")
NAMES = re.compile(r"FOUND line (\d+)\b")


def main(argv: list[str]) -> int:
    lines = Path(argv[0] if argv else CHANGES).read_text(encoding="utf-8").splitlines()
    found = {no for no, line in enumerate(lines, 1) if line.startswith("- FOUND:")}
    mended, status = set(), 0
    for no, line in enumerate(lines, 1):
        if not line.startswith("- MENDED"):
            continue
        for named in map(int, NAMES.findall(line)):
            if named not in found:
                print(f"line {no} names line {named}, which is not a FOUND line", file=sys.stderr)
                status = 1
        if match := MENDS.match(line):
            mended.add(int(match[1]))
    still_open = sorted(found - mended)
    for no in still_open:
        print(f"{no}: {lines[no - 1][:100]}")
    print(f"{len(still_open)} open FOUND lines")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
