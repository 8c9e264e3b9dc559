"""Regenerate golden_counts.json, the expected answers of the counts workload.

    python3 perfbench/make_golden.py

A count is stored as [value mod 2^61 - 1, bit length, more than 4300
decimal digits]; a decompose report as its sorted JSON text.  Run it only
when the set of queries changes: the benchmark checks a new commit against
the answers the file already holds.
"""
from __future__ import annotations

import json
import sys

from run import load_library
from workloads import GOLDEN_PATH, digest, golden_keys, golden_value

LIMIT = 10 ** 4300  # CPython's default int/str conversion limit, in digits


def main() -> int:
    lib = load_library()
    golden = {}
    for key, kind, args in golden_keys():
        value = golden_value(lib, kind, args)
        golden[key] = value if isinstance(value, str) else (
            digest(value) + [value >= LIMIT])
        print(key, file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
