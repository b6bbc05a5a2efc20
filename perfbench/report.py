#!/usr/bin/env python3
"""Collect, summarise and compare benchmark result sets.

A result set is a directory holding one file per run,
<workload>/seed<N>.json (untraced) or <workload>/seed<N>.trace.json (traced),
each the last line the benchmark printed. Run from the repository root:

    python3 perfbench/report.py collect --out /tmp/base --seeds 10
    python3 perfbench/report.py summary /tmp/base
    python3 perfbench/report.py compare /tmp/base /tmp/head

collect runs every workload of BENCHMARK.json once per seed (and traced with
--trace), each for BENCHMARK.json's run_seconds, so two result sets always
have the same workloads and run length.
summary prints each end-to-end metric's median, quartiles and spread (the
interquartile range as a share of the median) against its bound. compare
pairs the runs of two commits by workload and seed and gives, per workload
and end-to-end metric, both sides' medians and quartiles, the share of pairs
the head side won and a verdict; it then lists every simulated per-layer
count that differs, which a change to the simulator's speed alone must leave
identical.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are simulated quantities rather than host time:
# deterministic for a given commit and seed.
SIMULATED = {
    "sim.events", "sim.events_per_op", "cpu.ops", "cpu.ipc",
    "mem.l1_hit_rate", "mem.l2_hit_rate", "mem.dram_reads",
    "mem.dram_read_lat_cycles", "mem.tlb_walks", "mem.l1_mshr_stalls",
    "prefetch.kernel_runs", "prefetch.issued", "prefetch.accuracy",
    "prefetch.late_merges", "prefetch.obs_dropped", "prefetch.ppu_utilisation",
    "baseline.generated", "baseline.issued", "tracein.bytes_per_op",
    "system.sampled_detail_frac", "system.sampled_cpi_err_pct",
    "system.sliced_cpi_err_pct",
}


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load(d):
    """Returns {workload: {(seed, traced): result}}."""
    runs = {}
    for w in sorted(os.listdir(d)):
        wd = os.path.join(d, w)
        if not os.path.isdir(wd):
            continue
        for fn in sorted(os.listdir(wd)):
            if not (fn.startswith("seed") and fn.endswith(".json")):
                continue
            stem = fn[len("seed"):-len(".json")]
            traced = stem.endswith(".trace")
            seed = int(stem[:-len(".trace")] if traced else stem)
            with open(os.path.join(wd, fn)) as f:
                runs.setdefault(w, {})[(seed, traced)] = json.load(f)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def values(runs, metric):
    return {seed: r["metrics"][metric]["value"] for (seed, traced), r in runs.items()
            if not traced and metric in r["metrics"]}


def collect(args):
    bm = benchmark()
    names = [w["name"] for w in bm["workloads"]]
    seconds = bm["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for seed in seeds:
        for w in names:
            for traced in ([0, 1] if args.trace else [0]):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
                p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                if p.returncode != 0:
                    sys.exit("report.py: %s exited %d" % (" ".join(cmd), p.returncode))
                last = p.stdout.strip().splitlines()[-1]
                res = json.loads(last)
                os.makedirs(os.path.join(args.out, w), exist_ok=True)
                fn = "seed%d%s.json" % (seed, ".trace" if traced else "")
                with open(os.path.join(args.out, w, fn), "w") as f:
                    f.write(last + "\n")
                print("%s seed %d trace %d: attempted %d failed %d" %
                      (w, seed, traced, res["attempted"], res["failed"]), file=sys.stderr)


def summary(args):
    bm = benchmark()
    runs = load(args.dir)
    print("%-16s %-15s %3s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for w, rs in runs.items():
        failed = sum(r["failed"] for r in rs.values())
        attempted = sum(r["attempted"] for r in rs.values())
        for m in bm["end_to_end"]:
            xs = list(values(rs, m["name"]).values())
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            print("%-16s %-15s %3d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%" %
                  (w, m["name"], len(xs), q1, med, q3, 100 * (q3 - q1) / med, 100 * m["bound"]))
        print("%-16s %d of %d simulations failed" % (w, failed, attempted))


def verdict(m, base, head):
    """The choosing-metrics section 8 rule for one workload and metric.

    base and head map seed to value."""
    sign = 1 if m["better"] == "higher" else -1
    seeds = sorted(set(base) & set(head))
    wins = sum(1 for s in seeds if sign * (head[s] - base[s]) > 0)
    bq1, bmed, bq3 = quartiles(list(base.values()))
    _, hmed, _ = quartiles(list(head.values()))
    share = wins / len(seeds) if seeds else None  # None: no seed ran on both sides
    gain = sign * (hmed - bmed)
    if share is not None and share >= 0.9 and gain > bq3 - bq1:
        v = "gain"
    elif -gain > m["bound"] * bmed:
        v = "regression"
    elif (bq3 - bq1) > m["bound"] * bmed:
        all_better = min(sign * x for x in head.values()) > max(sign * x for x in base.values())
        v = "no regression (every run better)" if all_better else "unresolved: spread exceeds bound"
    else:
        v = "within bound"
    return share, v


def compare(args):
    bm = benchmark()
    base, head = load(args.base), load(args.head)
    print("%-16s %-15s %28s %28s %6s  %s" %
          ("workload", "metric", "base q1/median/q3", "head q1/median/q3", "won", "verdict"))
    for w in sorted(set(base) & set(head)):
        for m in bm["end_to_end"]:
            bv, hv = values(base[w], m["name"]), values(head[w], m["name"])
            if not bv or not hv:
                continue
            share, v = verdict(m, bv, hv)
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            won = "%5.0f%%" % (100 * share) if share is not None else "     -"
            print("%-16s %-15s %28s %28s %s  %s" %
                  (w, m["name"], fmt(quartiles(list(bv.values()))),
                   fmt(quartiles(list(hv.values()))), won, v))
        for side, rs in (("base", base[w]), ("head", head[w])):
            failed = sum(r["failed"] for r in rs.values())
            if failed:
                print("%-16s %s: %d simulations failed" % (w, side, failed))
    diffs = []
    for w in sorted(set(base) & set(head)):
        for key in sorted(set(base[w]) & set(head[w])):
            seed, traced = key
            if not traced:
                continue
            bmx, hmx = base[w][key]["metrics"], head[w][key]["metrics"]
            for name in sorted(SIMULATED & set(bmx) & set(hmx)):
                if bmx[name]["value"] != hmx[name]["value"]:
                    diffs.append("%s seed %d %s: %r -> %r" %
                                 (w, seed, name, bmx[name]["value"], hmx[name]["value"]))
    print()
    if diffs:
        print("simulated per-layer counts that differ:")
        for d in diffs:
            print("  " + d)
    else:
        print("simulated per-layer counts: identical on every traced pair")


def main():
    ap = argparse.ArgumentParser(description="benchmark result sets")
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark into a result set")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--trace", action="store_true", help="also make a traced run per seed")
    s = sub.add_parser("summary", help="spread of one result set")
    s.add_argument("dir")
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("head")
    args = ap.parse_args()
    {"collect": collect, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
