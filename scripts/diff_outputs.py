#!/usr/bin/env python3
"""Field-level differences between two directories of sweep outputs.

For every CSV file present in both OLD_DIR and NEW_DIR, prints how many
data rows differ, then per column the number of changed fields, the
largest difference in units in the last place (ulps) and the largest
relative difference, and finally the rows whose status changed (their
fields are not counted in the columns). Rows are compared by position;
'#' lines are metadata and skipped.

For every surface (*_EI.dat, *_ES.dat) present in both, prints how many
measure cells differ with the same ulp and relative-difference report,
and the cells that turned into or out of nan (a failed point). Cells are
compared by position; the grid values (the first line and the omega at
the head of each line) count as the "grid" column.

Exits 0 when every compared file is field-identical, 1 otherwise.

    python3 scripts/diff_outputs.py OLD_DIR NEW_DIR
"""
import argparse
import math
from pathlib import Path
import struct
import sys


def _ordinal(x):
    # Map a float onto the integers so adjacent floats differ by 1.
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def ulps(a, b):
    """Distance between two finite floats in units in the last place."""
    return abs(_ordinal(a) - _ordinal(b))


def _read(path):
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _number(text):
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def compare(old_path, new_path):
    """Per-file summary: (changed_rows, columns, status_changes, counts)
    where columns maps a column name to [fields, max_ulps, max_rel]."""
    header, old_rows = _read(old_path)
    new_header, new_rows = _read(new_path)
    if new_header != header:
        raise ValueError(f"{new_path.name}: header differs")
    status_col = header.index("status") if "status" in header else None
    columns = {}
    changed_rows = 0
    status_changes = []
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        if old == new:
            continue
        changed_rows += 1
        if status_col is not None and old[status_col] != new[status_col]:
            status_changes.append((i, old[status_col], new[status_col]))
            continue
        for j, (a, b) in enumerate(zip(old, new)):
            if a != b:
                _tally(columns.setdefault(header[j], [0, 0, 0.0]), a, b)
    return changed_rows, columns, status_changes, (len(old_rows), len(new_rows))


def _tally(stats, a, b):
    # One changed field: count it and widen its column's ulps and rel.
    stats[0] += 1
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        stats[1] = max(stats[1], ulps(x, y))
        scale = max(abs(x), abs(y))
        if scale:
            stats[2] = max(stats[2], abs(x - y) / scale)


def compare_surface(old_path, new_path):
    """Per-surface summary: (changed_cells, columns, nan_changes, counts)
    where columns maps "grid" and "cells" to [fields, max_ulps, max_rel],
    nan_changes lists (line, cell, old, new) and counts are the numbers
    of measure cells."""
    old_lines = [line.split() for line in old_path.read_text().splitlines()]
    new_lines = [line.split() for line in new_path.read_text().splitlines()]
    columns = {}
    changed = 0
    nan_changes = []
    for i, (old, new) in enumerate(zip(old_lines, new_lines)):
        for j, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            if i == 0 or j == 0:
                _tally(columns.setdefault("grid", [0, 0, 0.0]), a, b)
                continue
            changed += 1
            if (a == "nan") != (b == "nan"):
                nan_changes.append((i, j, a, b))
            else:
                _tally(columns.setdefault("cells", [0, 0, 0.0]), a, b)
    counts = tuple(sum(len(line) - 1 for line in lines[1:])
                   for lines in (old_lines, new_lines))
    return changed, columns, nan_changes, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_dir", type=Path)
    ap.add_argument("new_dir", type=Path)
    args = ap.parse_args(argv)

    names = sorted(p.name for pattern in ("*.csv", "*_EI.dat", "*_ES.dat")
                   for p in args.old_dir.glob(pattern)
                   if (args.new_dir / p.name).is_file())
    differ = False
    for name in names:
        surface = name.endswith(".dat")
        changed, columns, moved, (n_old, n_new) = (
            compare_surface if surface else compare)(
                args.old_dir / name, args.new_dir / name)
        unit = "cells" if surface else "rows"
        if n_old != n_new:
            differ = True
            print(f"{name}: {n_old} {unit} -> {n_new} {unit}")
        if not changed and not columns:
            print(f"{name}: identical ({n_old} {unit})")
            continue
        differ = True
        print(f"{name}: {changed} of {n_old} {unit} changed, {len(moved)} "
              f"{'nan' if surface else 'status'} changes")
        for col, (fields, max_ulps, max_rel) in columns.items():
            print(f"  {col}: {fields} fields, max {max_ulps} ulps, "
                  f"max rel {max_rel:.2e}")
        for where in moved:
            if surface:
                print("  line {}, cell {}: {} -> {}".format(*where))
            else:
                print("  row {}: status {} -> {}".format(*where))
    if not names:
        print("no CSV or surface file in both directories")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
