#!/usr/bin/env python3
"""Compare two `repro` outputs, blind to timing.

Usage: tools/repro_diff.py A B

A and B are saved stdouts of `cargo run --release -p whyq-bench --bin repro
-- <ids>`. Two kinds of text are ignored because they measure wall time:

* the `[<id> finished in N ms]` line after every experiment;
* the last column of every table whose header row ends in `ms`.

Everything else must match line for line. Prints each differing line pair
with its line numbers and exits 1 when any differ, 0 otherwise. Running
`repro all` twice and diffing the runs is an A/A determinism check.
"""

import re
import sys

FINISHED = re.compile(r"^\[\S+ finished in \d+ ms\]$")


def normalize(path):
    """(line number, text) pairs of `path` with the timing text removed."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    out = []
    cut = None  # offset of a timing column while inside its table
    for no, line in enumerate(lines, 1):
        if FINISHED.match(line):
            continue
        if line.startswith("== ") and no < len(lines):
            # a table title; its header row follows
            header = lines[no].rstrip()
            cut = header.rfind("  ") + 2 if header.endswith("  ms") else None
        elif cut is not None and not line.startswith("  ") or line.startswith("  shape check"):
            cut = None
        if cut is not None and not line.startswith("== "):
            line = line[:cut]
        out.append((no, line.rstrip()))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = normalize(argv[1]), normalize(argv[2])
    differ = 0
    for i in range(max(len(a), len(b))):
        la = a[i] if i < len(a) else (None, "<missing>")
        lb = b[i] if i < len(b) else (None, "<missing>")
        if la[1] != lb[1]:
            differ += 1
            print(f"- {argv[1]}:{la[0]}: {la[1]}")
            print(f"+ {argv[2]}:{lb[0]}: {lb[1]}")
    if differ:
        print(f"{differ} line(s) differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
