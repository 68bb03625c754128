"""Record perfbench results as BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench_record.py --pr N --parent FILE... --change FILE... [--out PATH]

Each FILE is the standard output of one `perfbench/run.py` run.  The
workload and seed come from its `# workload=NAME seed=S ...` line, the
machine from its `# machine {...}` line, and the metrics from its
`# name = value` lines.  Runs of one workload under one role (parent or
change) are reduced to the median of each metric.  All files must come
from one machine.  The output, BENCH_<N>.json by default, holds that
machine and, per workload and role, the seeds of the runs and the median
metrics.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys

METRIC = re.compile(r"^# ([A-Za-z_][\w.]*) = (\S+)$")
WORKLOAD = re.compile(r"^# workload=(\S+) seed=(-?\d+) ")
MACHINE = "# machine "


def read_run(path):
    """(workload, seed, machine, {name: value}) from one perfbench output file."""
    workload = seed = machine = None
    metrics = {}
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith(MACHINE):
                machine = json.loads(line[len(MACHINE):])
            elif m := WORKLOAD.match(line):
                workload, seed = m.group(1), int(m.group(2))
            elif m := METRIC.match(line):
                try:
                    metrics[m.group(1)] = float(m.group(2))
                except ValueError:
                    pass
    if workload is None or machine is None or not metrics:
        raise ValueError(f"{path}: no perfbench workload, machine or metric lines")
    return workload, seed, machine, metrics


def record(pr, roles):
    """The BENCH document from {role: [file, ...]}."""
    machine, runs = None, {}
    for role, paths in roles.items():
        for path in paths:
            workload, seed, mach, metrics = read_run(path)
            if machine is None:
                machine = mach
            elif mach != machine:
                raise ValueError(f"{path}: machine {mach} differs from {machine}")
            runs.setdefault(workload, {}).setdefault(role, []).append((seed, metrics))
    workloads = {}
    for workload, by_role in sorted(runs.items()):
        workloads[workload] = {}
        for role, found in by_role.items():
            names = sorted(set().union(*(metrics for _, metrics in found)))
            medians = {n: statistics.median(r[n] for _, r in found if n in r) for n in names}
            workloads[workload][role] = {"seeds": [seed for seed, _ in found], "metrics": medians}
    return {"pr": pr, "machine": machine, "workloads": workloads}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    ap.add_argument("--change", nargs="+", required=True, metavar="FILE")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    try:
        doc = record(args.pr, {"parent": args.parent, "change": args.change})
    except (OSError, ValueError) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"BENCH_{args.pr}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
