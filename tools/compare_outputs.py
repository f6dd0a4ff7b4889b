"""Byte-compare the CSV files of two output trees.

    python tools/compare_outputs.py BASE_DIR CHANGE_DIR

Every ``*.csv`` under either directory is matched by its path relative
to that directory.  Two files match when their bytes are equal once the
``output_dir=...`` token of the first line, the configuration echo, is
masked on both sides; every other byte counts.  A file present on one
side only differs.  Each differing file is printed, then a summary.
Exit status: 0 when every file matches, 1 when any differs, 2 on a usage
error (not two directories, or no CSV file in either).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

_OUTPUT_DIR = re.compile(rb"output_dir=\S*")


def masked(data: bytes) -> bytes:
    """data with the output_dir token of its first line replaced by a fixed one."""
    first, newline, rest = data.partition(b"\n")
    return _OUTPUT_DIR.sub(b"output_dir=*", first) + newline + rest


def differing(base: Path, change: Path) -> tuple[list[str], int]:
    """(relative paths of the CSVs that differ, number of CSVs compared)."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (base, change) for p in root.rglob("*.csv")})
    bad = []
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()) or masked(a.read_bytes()) != masked(b.read_bytes()):
            bad.append(name)
    return bad, len(names)


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: compare_outputs.py BASE_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    base, change = (Path(d) for d in argv)
    bad, total = differing(base, change)
    if total == 0:
        print(f"no CSV file under {base} or {change}", file=sys.stderr)
        return 2
    for name in bad:
        side = [str(root) for root in (base, change) if not (root / name).is_file()]
        print(f"differs: {name}" + (f" (missing under {side[0]})" if side else ""))
    print(f"{total - len(bad)} of {total} CSV files identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
