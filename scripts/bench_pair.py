#!/usr/bin/env python3
"""Paired perfbench runs of a parent ref against the working tree.

Exports the parent ref into a temporary directory (git archive | tar
-x; nothing under .git is written, and a killed run leaves no worktree
registered), then runs perfbench/run.py in both trees for every
workload of BENCHMARK.json, seed by seed, for the run length
BENCHMARK.json sets, alternating which side runs first (even pair
index: parent first).  Writes every run, the per-metric medians and
quartiles of each side, a worse_beyond_bound flag per metric (the
change's median worse than the parent's by more than the metric's
BENCHMARK.json bound) and one traced run (--trace 1, seed 1) per side
and workload to a BENCH_<n>.json file:

    python3 scripts/bench_pair.py --parent HEAD --out BENCH_5.json \\
        --seeds 21-30

Runs are sequential, one process each.  Nothing under perfbench/ or
BENCHMARK.json is edited; a traced run writes its span file under the
tree's perfbench/out/ as usual.  The file is rewritten after every run,
so an interrupted series keeps what it measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SEED = 1
END_TO_END = ("ops_per_s", "peak_rss_mb", "setup_s")


def parse_seeds(spec):
    """'3-7' or '1,4,9' -> [seeds]."""
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def perfbench(tree, workload, seed, seconds, trace):
    """The result line of one perfbench run in tree, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def flat(result):
    row = {"failed": result["failed"], "attempted": result["attempted"]}
    row.update({k: m["value"] for k, m in result["metrics"].items()})
    return row


def summarize(runs, spec):
    """Median and quartiles per side, pairs where the change wins, and
    whether the change's median is worse than the parent's by more than
    the metric's bound; spec maps a metric to its BENCHMARK.json entry."""
    side = {s: {r["seed"]: r for r in runs if r["side"] == s}
            for s in ("parent", "change")}
    seeds = sorted(set(side["parent"]) & set(side["change"]))
    out = {}
    for metric in END_TO_END if seeds else ():
        vals = {s: [side[s][k][metric] for k in seeds] for s in side}
        higher = spec[metric]["better"] == "higher"
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        entry = {}
        for s in ("parent", "change"):
            v = vals[s]
            q = (statistics.quantiles(v, n=4, method="inclusive")
                 if len(v) > 1 else [v[0]] * 3)
            entry[f"{s}_median"] = statistics.median(v)
            entry[f"{s}_quartiles"] = [q[0], q[2]]
        entry["pairs"] = len(seeds)
        entry["change_better_in"] = wins
        entry["median_ratio_change_over_parent"] = ratio = (
            entry["change_median"] / entry["parent_median"])
        bound = spec[metric]["bound"]
        entry["worse_beyond_bound"] = (ratio < 1 - bound if higher
                                       else ratio > 1 + bound)
        out[metric] = entry
    return out


def write(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD",
                    help="git ref of the parent side (default HEAD)")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help="seeds of the pairs, run on every workload, "
                         "e.g. 21-30 or 1,4,9 (default 1-10)")
    ap.add_argument("--what", default="", help="one line on the change")
    ap.add_argument("--note", action="append", default=[])
    args = ap.parse_args(argv)
    if len(set(args.seeds)) < 10:
        ap.error("a gain is judged on at least 10 pairs: give 10 seeds or more")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sha = git("rev-parse", "--short", args.parent)
    doc = {
        "what": f"perfbench records, parent commit {sha} -> this change"
                + (f" ({args.what})" if args.what else ""),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "note": "every run one process, sequential"},
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T, run from the "
                   f"root of each checkout",
        "order": "pairs alternate: even pair index runs the parent first, "
                 "odd pair index runs the change first",
        "end_to_end": {},
        "notes": args.note,
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent_tree = os.path.join(tmp, "parent")
        os.mkdir(parent_tree)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", parent_tree], input=archive,
                       check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for name in workloads:
            runs = []
            entry = doc["end_to_end"][name] = {"runs": runs}
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    print(f"bench_pair: {name} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    res = perfbench(trees[side], name, seed, seconds, 0)
                    row = {"side": side, "seed": seed,
                           "ran_first": side == order[0]}
                    row.update(flat(res))
                    runs.append(row)
                entry["summary"] = summarize(runs, spec)
                entry["failed"] = {
                    s: sum(r["failed"] for r in runs if r["side"] == s)
                    for s in trees}
                write(args.out, doc)
        traced = doc[f"traced_seed{TRACE_SEED}"] = {}
        for name in workloads:
            traced[name] = {}
            for side in trees:
                print(f"bench_pair: {name} traced {side}",
                      file=sys.stderr, flush=True)
                traced[name][side] = flat(perfbench(
                    trees[side], name, TRACE_SEED, seconds, 1))
                write(args.out, doc)
    write(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
