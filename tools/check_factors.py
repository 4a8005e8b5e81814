#!/usr/bin/env python3
"""Checks the factor files `mdcp_cli decompose --out-prefix P` wrote.

    check_factors.py <tensor.tns> <P> <rank>

P.lambda must hold `rank` lines of one number, and P.U<m> one line of `rank`
numbers per index of mode m (the shape inferred from the tensor file, as the
CLI reads it). Every number must be finite. Exits 0 when all hold.
"""
import math
import sys


def inferred_shape(tns):
    shape = None
    with open(tns) as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            idx = [int(x) for x in fields[:-1]]
            shape = idx if shape is None else [max(a, b) for a, b in zip(shape, idx)]
    return shape


def check(path, rows, cols):
    with open(path) as f:
        lines = f.read().split("\n")
    if lines[-1] != "":
        sys.exit("%s: no final newline" % path)
    lines.pop()
    if len(lines) != rows:
        sys.exit("%s: %d rows, expected %d" % (path, len(lines), rows))
    for i, line in enumerate(lines):
        values = [float(x) for x in line.split(" ")]
        if len(values) != cols:
            sys.exit("%s row %d: %d numbers, expected %d" % (path, i, len(values), cols))
        if not all(math.isfinite(v) for v in values):
            sys.exit("%s row %d: non-finite number" % (path, i))


def main():
    tns, prefix, rank = sys.argv[1], sys.argv[2], int(sys.argv[3])
    check(prefix + ".lambda", rank, 1)
    for m, dim in enumerate(inferred_shape(tns)):
        check("%s.U%d" % (prefix, m), dim, rank)


if __name__ == "__main__":
    main()
