#!/usr/bin/env python3
"""Compare two simulated-statistics records exactly.

Usage:  python3 perfbench/compare.py A.json B.json

Every run of perfbench/run.py writes one record (the per kernel x
policy RunMetrics, the sweep table, every served RequestRecord). A
change that only makes the simulator faster must leave the record
unchanged. Exits 0 and prints "identical" when the records are equal,
else prints the first difference by path and exits 1.
"""

import json
import sys


def first_difference(a, b, path="$"):
    """Return a description of the first difference, or None."""
    if type(a) is not type(b):
        return "%s: %r vs %r" % (path, a, b)
    if isinstance(a, dict):
        if list(a) != list(b):
            return "%s: keys %s vs %s" % (path, list(a), list(b))
        for key in a:
            diff = first_difference(a[key], b[key], "%s.%s" % (path, key))
            if diff:
                return diff
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, "%s[%d]" % (path, i))
            if diff:
                return diff
        if len(a) != len(b):
            return "%s: %d vs %d entries" % (path, len(a), len(b))
        return None
    return None if a == b else "%s: %r vs %r" % (path, a, b)


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    records = []
    for path in argv[1:]:
        with open(path) as f:
            records.append(json.load(f))
    diff = first_difference(*records)
    print("identical" if diff is None else "first difference at " + diff)
    return 0 if diff is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
