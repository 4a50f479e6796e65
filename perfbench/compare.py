"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage, from the root of a checkout:

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a file or a directory of files holding the
captured standard output of ``perfbench/run.py`` runs; every
``{"record": ...}`` line in them counts as one run.  Runs pair up by
seed (by order when the two sides share no seed).  For each workload
and metric the report gives each side's first quartile, median and
third quartile, the pairs the change won, and a verdict: improved, no
worse, worse or unresolved, by the rule in ``benchstats.verdict`` and
the bounds in ``BENCHMARK.json``.  End-to-end metrics that a run records
without a bound (its ``reported`` section) can only read improved or -.  It also lists seeds whose output
digests differ between the two sides.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import benchstats


def read_records(path: Path) -> list[dict]:
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith('{"record"'):
                records.append(json.loads(line)["record"])
    return records


def group(records: list[dict]) -> dict[tuple[str, int], list[dict]]:
    groups = defaultdict(list)
    for record in records:
        groups[(record["workload"], record["trace"])].append(record)
    return groups


def pair(base: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    """Pair runs by seed; fall back to run order when no seed is shared."""
    by_seed = {r["seed"]: r for r in change}
    shared = [r for r in sorted(base, key=lambda r: r["seed"]) if r["seed"] in by_seed]
    if shared:
        return shared, [by_seed[r["seed"]] for r in shared]
    n = min(len(base), len(change))
    return base[:n], change[:n]


def load_directions(spec_path: Path) -> dict[str, tuple[str, float | None]]:
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    directions = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    directions.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return directions


def _quartiles(values) -> str:
    return "/".join(f"{v:.4g}" for v in values)


def report(base_records, change_records, directions) -> list[str]:
    lines = []
    base_groups, change_groups = group(base_records), group(change_records)
    for key in sorted(set(base_groups) & set(change_groups)):
        base, change = pair(base_groups[key], change_groups[key])
        workload, trace = key
        lines.append(f"== {workload} (trace {trace}): {len(base)} pairs, "
                     f"{len(base_groups[key])} vs {len(change_groups[key])} runs")
        lines.append(f"  {'metric':<32} {'unit':<6} {'base q1/median/q3':>32} "
                     f"{'change q1/median/q3':>32} {'won':>7}  verdict")
        rows = [(name, "metrics", *directions[name]) for name in base[0]["metrics"]
                 if name in directions]
        rows += [(name, "reported", entry["better"], None)
                 for name, entry in base[0].get("reported", {}).items()]
        for name, section, better, bound in rows:
            if not all(name in r.get(section, {}) for r in change):
                continue
            result = benchstats.verdict([r[section][name]["value"] for r in base],
                                        [r[section][name]["value"] for r in change],
                                        better, bound)
            lines.append(f"  {name:<32} {base[0][section][name]['unit']:<6} "
                         f"{_quartiles(result['base']):>32} {_quartiles(result['change']):>32} "
                         f"{result['won']:>3}/{result['pairs']:<3}  {result['verdict']}")
        failed = sum(r["failed"] for r in change) - sum(r["failed"] for r in base)
        if failed:
            lines.append(f"  failed passes: {failed:+d} on the change")
        drift = [b["seed"] for b, c in zip(base, change)
                 if b["seed"] == c["seed"] and b["digests"] != c["digests"]]
        if drift:
            lines.append(f"  output digests differ for seeds {drift}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    missing = [str(path) for path in (args.base, args.change, args.spec) if not path.exists()]
    if missing:
        print(f"compare: not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    base, change = read_records(args.base), read_records(args.change)
    if not base or not change:
        print("compare: each side needs at least one run record", file=sys.stderr)
        return 2
    lines = report(base, change, load_directions(args.spec))
    if not lines:
        print("compare: the two sides share no workload", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
