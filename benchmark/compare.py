#!/usr/bin/env python3
"""Compares benchmark run sets against the bounds in BENCHMARK.json.

A/B: runs the benchmark in two checkouts, alternating which goes first, on
the same seed within each pair, then judges every end-to-end metric of every
workload (choosing-metrics rules, benchmark/README.md "Comparing"):

  python3 benchmark/compare.py ab --parent ../parent --change . --pairs 10
  python3 benchmark/compare.py report ab.json        # re-judge saved pairs

Repeatability: two run sets of one commit, each written by
`python3 benchmark/run.py --runs 5` (build-benchmark/results.json), must
agree within the bounds and show no failures:

  python3 benchmark/compare.py repeatability set_a.json set_b.json

Exit status 1 means a regression (A/B) or a disagreement (repeatability).
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bounds():
    with open(HERE.parent / "BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m for m in bench["end_to_end"]},
            [w["name"] for w in bench["workloads"]], bench["run_seconds"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median."""
    lo, hi = quartiles(values)
    med = statistics.median(values)
    return (hi - lo) / med if med else math.inf


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def judge(metric, parent, change):
    """Verdict for one metric on one workload from paired runs."""
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_lo, p_hi = quartiles(parent)
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse_by = sign * (c_med - p_med) / p_med if p_med else math.inf
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    every_better = all(better(metric, c, p) for c in change for p in parent)
    if worse_by > bound:
        verdict = "REGRESSED"
    elif max(spread(parent), spread(change)) > bound and not every_better:
        verdict = "unresolved"
    elif (wins >= math.ceil(0.9 * len(parent)) and
          abs(c_med - p_med) > p_hi - p_lo and worse_by < 0):
        verdict = "GAIN"
    else:
        verdict = "within bound"
    return {"parent_median": p_med, "parent_q": quartiles(parent),
            "change_median": c_med, "change_q": quartiles(change),
            "worse_by": worse_by, "wins": wins, "pairs": len(parent),
            "verdict": verdict}


def fmt(v):
    return f"{v:.5g}"


def report_ab(data):
    metrics, _, _ = bounds()
    if data["parent_nproc"] != data["change_nproc"]:
        print(f"warning: nproc differs (parent {data['parent_nproc']}, "
              f"change {data['change_nproc']}); not comparable")
    regressed = False
    for workload, pairs in data["pairs"].items():
        print(f"\n{workload}: {len(pairs)} pairs")
        failures = {side: (sum(p[side]["failed"] for p in pairs),
                           sum(p[side]["attempted"] for p in pairs))
                    for side in ("parent", "change")}
        print(f"  failed: parent {failures['parent'][0]}/{failures['parent'][1]}"
              f", change {failures['change'][0]}/{failures['change'][1]}")
        if (failures["change"][0] * max(failures["parent"][1], 1) >
                failures["parent"][0] * max(failures["change"][1], 1)):
            print("  FAILURES: the change fails a larger share than the parent")
            regressed = True
        if not all(p[s]["correct"] for p in pairs for s in ("parent", "change")):
            print("  INCORRECT: a run failed its correctness checks")
            regressed = True
            continue
        for name, metric in metrics.items():
            v = judge(metric, [p["parent"]["metrics"][name]["value"] for p in pairs],
                      [p["change"]["metrics"][name]["value"] for p in pairs])
            regressed |= v["verdict"] == "REGRESSED"
            print(f"  {name:12s} parent {fmt(v['parent_median'])} "
                  f"[{fmt(v['parent_q'][0])}, {fmt(v['parent_q'][1])}]  "
                  f"change {fmt(v['change_median'])} "
                  f"[{fmt(v['change_q'][0])}, {fmt(v['change_q'][1])}]  "
                  f"{v['worse_by']:+.1%} worse (bound {metric['bound']:.0%}), "
                  f"wins {v['wins']}/{v['pairs']}: {v['verdict']}")
    return 1 if regressed else 0


def run_side(checkout, workload, seed, seconds):
    cmd = [sys.executable, str(Path(checkout) / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: run.py exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(Path(checkout) / "build-benchmark" / "results.json") as f:
        result["nproc"] = json.load(f)["host"]["nproc"]
    return result


def cmd_ab(args):
    _, all_workloads, run_seconds = bounds()
    data = {"parent": args.parent, "change": args.change, "pairs": {}}
    nproc = {}
    for workload in args.workload or all_workloads:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                pair[side] = run_side(getattr(args, side), workload, seed,
                                      args.seconds or run_seconds)
                nproc[side] = pair[side]["nproc"]
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        data["pairs"][workload] = pairs
    data["parent_nproc"], data["change_nproc"] = nproc["parent"], nproc["change"]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)
    return report_ab(data)


def cmd_report(args):
    with open(args.file) as f:
        return report_ab(json.load(f))


def cmd_repeatability(args):
    metrics, _, _ = bounds()
    sets = []
    for path in (args.a, args.b):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["host"]["nproc"] != sets[1]["host"]["nproc"]:
        print(f"warning: nproc differs ({sets[0]['host']['nproc']} vs "
              f"{sets[1]['host']['nproc']}); the sets are not comparable")
    status = 0
    for workload, modes in sets[0]["workloads"].items():
        if "gated" not in modes:
            continue
        if "gated" not in sets[1]["workloads"].get(workload, {}):
            print(f"{workload}: missing from {args.b}")
            status = 1
            continue
        runs = [s["workloads"][workload]["gated"]["runs"] for s in sets]
        failed = [sum(r["failed"] for r in rs) for rs in runs]
        attempted = [sum(r["attempted"] for r in rs) for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        print(f"\n{workload}: {len(runs[0])} + {len(runs[1])} runs, "
              f"fail_frac {failed[0] / attempted[0]:.3g} / "
              f"{failed[1] / attempted[1]:.3g}")
        if any(failed) or not correct:
            print("  FAILED: runs with failures or failed checks")
            status = 1
            continue
        for name, metric in metrics.items():
            a = [r["metrics"][name] for r in runs[0]]
            b = [r["metrics"][name] for r in runs[1]]
            drift = abs(statistics.median(b) / statistics.median(a) - 1.0)
            ok = drift <= metric["bound"]
            status |= 0 if ok else 1
            print(f"  {name:12s} {fmt(statistics.median(a))} vs "
                  f"{fmt(statistics.median(b))}: {drift:.1%} apart "
                  f"(bound {metric['bound']:.0%}), spread {spread(a):.1%} / "
                  f"{spread(b):.1%}  {'ok' if ok else 'DISAGREE'}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    ab = sub.add_parser("ab", help="run and judge parent/change pairs")
    ab.add_argument("--parent", required=True, help="parent checkout root")
    ab.add_argument("--change", required=True, help="change checkout root")
    ab.add_argument("--pairs", type=int, default=10)
    ab.add_argument("--workload", action="append")
    ab.add_argument("--seed", type=int, default=42)
    ab.add_argument("--seconds", type=float, default=None)
    ab.add_argument("--out", help="save the pairs as JSON")
    ab.set_defaults(fn=cmd_ab)
    report = sub.add_parser("report", help="judge pairs saved by `ab --out`")
    report.add_argument("file")
    report.set_defaults(fn=cmd_report)
    rep = sub.add_parser("repeatability",
                         help="two results.json sets of one commit")
    rep.add_argument("a")
    rep.add_argument("b")
    rep.set_defaults(fn=cmd_repeatability)
    args = parser.parse_args(argv)
    if args.command == "ab" and args.pairs < 10:
        parser.error("a gain needs at least 10 pairs")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
