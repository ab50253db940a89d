#!/usr/bin/env python3
"""Compares the parent and change entries of a perfbench trajectory file.

Usage:

    python3 tools/bench_diff.py [BENCH_perfbench.json]

The file holds one entry per (pr, side, workload, seed), side being
"parent" or "change", and a "metrics" catalog giving each metric's unit, its
better direction and its kind:

- "sim" metrics (sim-time results and work counts) and the sim-time digest
  must be equal between parent and change. A difference fails the check
  unless the change entry sets "behaviour_change": true, which a PR does
  only when its CHANGES.md entry declares the change.
- "host" metrics (host time, rates, memory) are printed as a change/parent
  ratio with the parent value it is taken against.

Exits 0 when every comparison holds, 1 otherwise. Standard library only.
"""

import json
import sys

SECTIONS = ("end_to_end", "per_layer")


def value_of(entry, section, name):
    """The entry's value of a metric: the median for end-to-end metrics."""
    raw = entry.get(section, {}).get(name)
    if isinstance(raw, dict):
        return raw.get("median")
    return raw


def describe_base(entry, section):
    if section == "end_to_end":
        return f"parent median of {entry.get('pairs', '?')} runs"
    return "parent traced run"


def compare(parent, change, catalog):
    """Prints one group's comparison; returns its list of failures."""
    failures = []
    declared = bool(change.get("behaviour_change", False))
    label = f"PR {change['pr']} {change['workload']} seed {change['seed']}"

    def drift(what):
        if declared:
            print(f"  declared behaviour change: {what}")
        else:
            failures.append(f"{label}: {what}")

    if parent.get("digest") != change.get("digest"):
        drift(f"digest {parent.get('digest')} -> {change.get('digest')}")
    for section in SECTIONS:
        names = sorted(set(parent.get(section, {})) | set(change.get(section, {})))
        for name in names:
            info = catalog.get(name)
            if info is None:
                failures.append(f"{label}: metric {name} is not in the catalog")
                continue
            before = value_of(parent, section, name)
            after = value_of(change, section, name)
            if info["kind"] == "sim":
                if before != after:
                    drift(f"{name} {before!r} -> {after!r}")
                continue
            if before is None or after is None:
                print(f"  {name}: missing on one side ({before!r} -> {after!r})")
                continue
            ratio = f"{after / before:.3f}x" if before else "n/a"
            wins = change.get("wins", {}).get(name)
            won = f", change won {wins}/{change['pairs']} pairs" if wins is not None else ""
            print(f"  {name}: {ratio} ({after:.6g} vs {before:.6g} {info['unit']}, "
                  f"base {describe_base(parent, section)}, {info['better']} is "
                  f"better{won})")
    return failures


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_perfbench.json"
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_diff: cannot read {path}: {error}", file=sys.stderr)
        return 1
    catalog = doc.get("metrics", {})
    groups = {}
    failures = []
    for entry in doc.get("entries", []):
        key = (entry["pr"], entry["workload"], entry["seed"])
        side = entry["side"]
        if side in groups.setdefault(key, {}):
            failures.append(f"PR {key[0]} {key[1]} seed {key[2]}: two {side} entries")
        groups[key][side] = entry
    for key in sorted(groups):
        sides = groups[key]
        if set(sides) != {"parent", "change"}:
            failures.append(f"PR {key[0]} {key[1]} seed {key[2]}: needs one parent and one "
                            f"change entry, has {sorted(sides)}")
            continue
        print(f"PR {key[0]} {key[1]} seed {key[2]} "
              f"(parent {sides['parent'].get('commit', '?')}):")
        failures += compare(sides["parent"], sides["change"], catalog)
    if not groups:
        failures.append("no entries")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"bench_diff: {len(groups)} parent/change groups, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
