#!/usr/bin/env python3
"""Runs `exp_durability --smoke` several times and demands identical numbers.

Every column of BENCH_durability.json except wall-clock time and rates is
a paper-unit or accounting number (records, bytes, syncs, checkpoints,
crash points, migrations, objects verified) and must repeat exactly from
run to run. Each run happens in its own temporary directory; the JSON of
every later run is compared with the first, row by row and key by key.

Usage: python3 tools/check_durability_determinism.py PATH/TO/exp_durability
                                                     [--runs N]
Exit code 0 when all runs agree, 1 on any difference or failed run.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile


def is_timing(key):
    """Wall-clock columns and the rates derived from them."""
    return "wall" in key or key.endswith("per_sec")


def run_once(binary):
    with tempfile.TemporaryDirectory() as scratch:
        result = subprocess.run([binary, "--smoke"], cwd=scratch,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        if result.returncode != 0:
            raise RuntimeError(f"{binary} --smoke exited {result.returncode}: "
                               f"{result.stderr.strip()}")
        return json.loads(
            (pathlib.Path(scratch) / "BENCH_durability.json").read_text())


def differences(first, other):
    found = []
    for key in sorted(set(first) | set(other)):
        if key == "rows" or is_timing(key):
            continue
        if first.get(key) != other.get(key):
            found.append(f"top-level {key}: {first.get(key)} vs "
                         f"{other.get(key)}")
    rows, other_rows = first.get("rows", []), other.get("rows", [])
    if len(rows) != len(other_rows):
        found.append(f"row count: {len(rows)} vs {len(other_rows)}")
    for i, (row, other_row) in enumerate(zip(rows, other_rows)):
        for key in sorted(set(row) | set(other_row)):
            if is_timing(key):
                continue
            if row.get(key) != other_row.get(key):
                found.append(f"row {i} ({row.get('section')}) {key}: "
                             f"{row.get(key)} vs {other_row.get(key)}")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary", help="path to the exp_durability binary")
    parser.add_argument("--runs", type=int, default=2,
                        help="number of runs to compare (>= 2)")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2")
    binary = str(pathlib.Path(args.binary).resolve())
    try:
        first = run_once(binary)
        failures = []
        for run in range(2, args.runs + 1):
            for line in differences(first, run_once(binary)):
                failures.append(f"run {run} vs run 1: {line}")
    except (RuntimeError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}")
        return 1
    for line in failures:
        print(line)
    if failures:
        print(f"{len(failures)} non-timing columns differ across "
              f"{args.runs} runs")
        return 1
    print(f"ok: {len(first['rows'])} rows identical across {args.runs} runs "
          "(wall-time and rate columns excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
