#!/usr/bin/env python3
"""Diffs two entries of each BENCH_*.json perf trajectory.

Usage: bench_compare.py [--base LABEL] [--head LABEL] [--advisory]
                        TRAJECTORY_FILE [TRAJECTORY_FILE ...]

For every file, compares the entry labelled --base with the one labelled
--head (by default the second-to-last and the last entry). Prints each
benchmark's real_time_ms on both sides with the head/base ratio, flags moves
over 10% either way, and lists benchmarks that only one side has.

Two entries recorded on hosts with a different host.num_cpus or
host.build_type are not comparable: the file prints "not comparable" instead
of a table, and the script exits 2. So does a missing label or a file with
fewer than two entries. --advisory turns those exits into 0, for CI steps
that must never fail.
"""

import argparse
import json
import sys

# A move larger than this fraction of the base time is flagged.
FLAG_FRACTION = 0.10


def _pick(entries, label, default_index):
    if label is None:
        return entries[default_index] if len(entries) >= 2 else None
    for entry in entries:
        if entry.get("label") == label:
            return entry
    return None


def _compare(path, base_label, head_label):
    """Prints the diff of one trajectory file; returns False on a problem."""
    try:
        with open(path) as f:
            entries = json.load(f).get("entries", [])
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: cannot read ({e})")
        return False
    base = _pick(entries, base_label, -2)
    head = _pick(entries, head_label, -1)
    if base is None or head is None:
        wanted = f"'{base_label or 'second-to-last'}' and '{head_label or 'last'}'"
        print(f"{path}: no entries {wanted} to compare ({len(entries)} entries)")
        return False

    print(f"{path}: {base['label']} -> {head['label']}")
    base_host, head_host = base.get("host", {}), head.get("host", {})
    for key in ("num_cpus", "build_type"):
        if base_host.get(key) != head_host.get(key):
            print(f"  not comparable: host.{key} {base_host.get(key)} vs "
                  f"{head_host.get(key)}")
            return False

    base_ms = {b["name"]: b["real_time_ms"] for b in base.get("benchmarks", [])}
    head_ms = {b["name"]: b["real_time_ms"] for b in head.get("benchmarks", [])}
    common = [name for name in head_ms if name in base_ms]
    width = max([len(name) for name in common] + [len("benchmark")])
    print(f"  {'benchmark':{width}s} {'base ms':>12s} {'head ms':>12s} {'head/base':>10s}")
    flagged = 0
    for name in common:
        before, after = base_ms[name], head_ms[name]
        ratio = after / before if before > 0 else float("inf")
        line = f"  {name:{width}s} {before:12.4f} {after:12.4f} {ratio:9.2f}x"
        if before > 0 and abs(after - before) > FLAG_FRACTION * before:
            flagged += 1
            change = (after - before) / before * 100.0
            line += f"  {'SLOWER' if after > before else 'faster'} ({change:+.0f}%)"
        print(line)
    print(f"  {flagged} of {len(common)} moved by more than {FLAG_FRACTION:.0%}")
    for entry, mine, other in ((base, base_ms, head_ms), (head, head_ms, base_ms)):
        only = [name for name in mine if name not in other]
        if only:
            print(f"  only in {entry['label']}: " + ", ".join(only))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", metavar="TRAJECTORY_FILE")
    parser.add_argument("--base", help="label of the entry to compare from")
    parser.add_argument("--head", help="label of the entry to compare to")
    parser.add_argument("--advisory", action="store_true",
                        help="exit 0 even when entries are missing or not comparable")
    args = parser.parse_args()

    ok = True
    for path in args.files:
        ok = _compare(path, args.base, args.head) and ok
    return 0 if ok or args.advisory else 2


if __name__ == "__main__":
    sys.exit(main())
