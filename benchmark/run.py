#!/usr/bin/env python3
"""End-to-end benchmark: the live Fig. 1 broker and the batch figure path.

Run from the repository root. The first run builds a Release tree in
build-benchmark/ (benchmark/CMakeLists.txt); later runs rebuild only what
changed.

  python3 benchmark/run.py --workload serve_light --seed 7 --seconds 10 --trace 0
  python3 benchmark/run.py --runs 5              # every workload, seeds 42..46
  python3 benchmark/run.py --trace 1             # per-layer run of each workload
  python3 benchmark/run.py --smoke               # gated + traced, ~1/20 size

Each run checks its outputs (benchmark/README.md, "Correctness"), prints one
`workload metric value unit` line per metric, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Every run is recorded in build-benchmark/results.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-benchmark"
HARNESS = BUILD / "mbts_bench"
DAEMON = BUILD / "mbts" / "tools" / "mbts_serve"
FIG6 = BUILD / "mbts" / "bench" / "fig6_admission_load"
GOLDEN = HERE / "golden"

# Why each workload exists is in benchmark/README.md. Sizes are per run;
# --smoke divides them by 20.
WORKLOADS = {
    # A 4096-bid admission queue holds 250 ms of serve_light's traffic, so a
    # host stall cannot turn into BUSY replies; serve_overload keeps the
    # daemon's default 256.
    "serve_light": {"kind": "serve", "load": 0.7, "rate": 16000,
                    "queue_cap": 4096},
    "serve_overload": {"kind": "serve", "load": 2.0, "rate": 2500,
                       "queue_cap": 256},
    "fig6_batch": {"kind": "fig6", "jobs": 5000},
    "market_wide": {"kind": "market", "bids": 8192},
}
SMOKE_DIVISOR = 20
GOLDEN_SEED = 42
# setup_s medians: 31 daemon launches and 100 fig6 trace sets (~0.5 s).
# With 15 trace sets the median's spread over seeds was 13%, with 100 it
# was 1%.
SERVE_SETUP_LAUNCHES = 31
SETUP_REPS = 100
SERVE_WALL_DRAWS = 10   # bid streams of the served economy behind wall_s


class BenchError(Exception):
    """A failed build or child program: the run prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def unit_of(name, units):
    """BENCHMARK.json's unit, else the one the name's suffix spells."""
    if name in units:
        return units[name]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_frac", "fraction")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "ratio" if name.endswith(("_eff", "_mean")) else "count"


def run_checked(cmd, timeout, **kwargs):
    """Runs a child to completion; a non-zero exit or a timeout fails."""
    try:
        proc = subprocess.run([str(c) for c in cmd], timeout=timeout,
                              capture_output=True, text=True, **kwargs)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{Path(str(cmd[0])).name} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --- build -----------------------------------------------------------------

def build():
    """Configures once, rebuilds what changed, and refuses non-Release."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no source tree to build")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            code = subprocess.run([str(s) for s in step], stdout=out,
                                  stderr=subprocess.STDOUT).returncode
            if code != 0:
                raise BenchError(f"build failed, see {BUILD / 'build.log'}")
    info = json.loads(run_checked([HARNESS, "info"], 30))
    if info["build_type"] != "release" or info["cmake_build_type"] != "Release":
        raise BenchError(f"refusing a non-release build: {info}")
    return info


def host_info(build_info):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "compiler": build_info["compiler"],
            "build_type": build_info["cmake_build_type"], "git_sha": sha,
            "python": platform.python_version()}


# --- serve workloads -------------------------------------------------------

def stats_csv_rows(path):
    rows = {}
    with open(path) as f:
        next(f, None)
        for line in f:
            fields = line.rstrip("\n").split(",")
            if len(fields) == 7:
                rows[fields[0]] = fields[1:]
    return rows


def run_serve(spec, seed, seconds, traced, work):
    out, stats_out = work / "serve.json", work / "stats.csv"
    admitted = work / "admitted.csv"
    run_checked([HARNESS, "serve", "--daemon", DAEMON, "--seed", seed,
                 "--load", spec["load"], "--rate", spec["rate"],
                 "--seconds", seconds, "--queue-cap", spec["queue_cap"],
                 "--setup-launches", spec["setup_launches"],
                 "--wall-draws", spec["wall_draws"],
                 "--trace-out", admitted,
                 "--stats-out", stats_out, "--out", out],
                timeout=seconds + 150)
    res = read_json(out)
    problems = []
    if res["daemon_exit"] != 0:
        problems.append(f"mbts_serve exited {res['daemon_exit']:g}")
    if not res["replay_match"]:
        problems.append("no `replay: MATCH` from mbts_serve")
    if not res["fingerprint"]:
        problems.append("no `serve` fingerprint line from mbts_serve")
    elif not res.get("batch_match", 1):
        problems.append("the batch replay diverged from the daemon's stats")
    if res["unanswered"] or res["violations"] or res["errors"]:
        problems.append(f"bids not answered exactly once or ERR lines: {res}")
    if not res["final_stats"]:
        problems.append("no final STATS snapshot")
    failed = int(res["busy"] + res["draining"] + res["unanswered"] + res["errors"])
    attempted = int(res["attempted"])
    result = {
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": res["setup_s"], "wall_s": res["wall_s"],
                    "bid_p50_ms": res["p50_ms"],
                    "peak_rss_mb": res["peak_rss_mb"]},
        "extras": {"fail_frac": failed / attempted, "bid_p90_ms": res["p90_ms"],
                   "bid_p99_ms": res["p99_ms"], "serve.drain_s": res["drain_s"],
                   "serve.gen_late_max_ms": res["gen_late_max_ms"]},
    }
    if not traced or problems:
        return result
    (work / "expect.txt").write_text(res["fingerprint"] + "\n")
    replay_out = work / "replay.json"
    run_checked([HARNESS, "serve-replay", "--trace", admitted,
                 "--expect", work / "expect.txt", "--seed", seed,
                 "--load", spec["load"], "--rate", spec["rate"],
                 "--seconds", seconds, "--spans-out", work / "spans.jsonl",
                 "--out", replay_out],
                timeout=150)
    layers = read_json(replay_out)
    stats = stats_csv_rows(stats_out)
    engine = stats["serve/quote_latency_ms"]
    batches = float(stats["serve/admission_batches"][2])
    layers.update({
        "serve.engine_p50_ms": float(engine[3]),
        "serve.engine_p99_ms": float(engine[5]),
        "serve.transport_p50_ms": res["p50_ms"] - float(engine[3]),
        "serve.write_backpressure":
            float(stats["serve/write_backpressure_events"][2]),
        "serve.batch_mean":
            float(stats["serve/batched_bids"][2]) / max(batches, 1.0),
        "serve.queue_depth_peak": float(stats["serve/queue_depth_peak"][2]),
        "serve.stats_p50_ms": res["stats_p50_ms"],
        "serve.stats_p99_ms": res["stats_p99_ms"],
        "serve.tail_p99_ms": res["p99_ms"],
        "serve.tail_p9999_ms": res["p9999_ms"],
        "serve.max_ms": res["max_ms"],
        "serve.gen_late_max_ms": res["gen_late_max_ms"],
    })
    result["layers"] = layers
    return result


# --- fig6_batch --------------------------------------------------------------

def csv_cells(path):
    """(series, x) -> y of a figure CSV; %.17g round-trips exactly."""
    cells = {}
    with open(path) as f:
        next(f, None)
        for line in f:
            _, series, x, y, _ = line.rstrip("\n").split(",")
            cells[(series, float(x))] = float(y)
    return cells


def golden_name(stem, seed, smoke):
    if int(seed) != GOLDEN_SEED:
        return None
    return GOLDEN / (stem + ("_smoke" if smoke else ""))


def run_fig6_binary(spec, seed, csv_path, threads=1):
    """One run of the real figure binary at one replication: (wall seconds,
    peak RSS MB).

    The gated runs use one thread: a two-thread run's wall time follows
    whether the host runs both vCPUs at once (2.7 s or 4.1 s on one binary
    and seed), a serial run's does not.
    """
    run = json.loads(run_checked(
        [HARNESS, "exec", FIG6, "--jobs", spec["jobs"], "--reps", 1,
         "--threads", threads, "--seed", seed, "--out", csv_path],
        timeout=120))
    if run["code"] != 0:
        raise BenchError(f"fig6_admission_load exited {run['code']}")
    return run["wall_s"], run["peak_rss_mb"]


def run_fig6(spec, seed, seconds, traced, work):
    golden = golden_name("fig6_seed42", seed, spec["smoke"])
    golden_csv = golden.with_suffix(".csv") if golden else None
    problems = []
    common = ["--seed", seed, "--jobs", spec["jobs"]]
    if traced:
        csv = work / "fig6.csv"
        wall, _ = run_fig6_binary(spec, seed, csv, threads=2)
        out = work / "fig6_traced.json"
        run_checked([HARNESS, "fig6", *common, "--traced",
                     "--parallel-wall", wall, "--csv-out", work / "serial.csv",
                     "--spans-out", work / "spans.jsonl", "--out", out],
                    timeout=170)
        if (work / "serial.csv").read_bytes() != csv.read_bytes():
            problems.append("the serial re-run's CSV differs from the binary's")
        if golden_csv and csv.read_bytes() != golden_csv.read_bytes():
            problems.append(f"fig6 CSV differs from {golden_csv.name}")
        return {"correct": not problems, "problems": problems,
                "attempted": 1, "failed": 1 if problems else 0,
                "layers": read_json(out)}

    start = time.perf_counter()
    out = work / "fig6.json"
    run_checked([HARNESS, "fig6", *common, "--setup-reps",
                 spec["setup_reps"], "--out", out], timeout=120)
    sample = read_json(out)
    walls, rss, csvs = [], 0.0, []
    while len(walls) < 2 or time.perf_counter() - start < seconds:
        csvs.append(work / f"fig6_{len(csvs)}.csv")
        wall, peak = run_fig6_binary(spec, seed, csvs[-1])
        walls.append(wall)
        rss = max(rss, peak)
    first = csvs[0].read_bytes()
    bad = [p.name for p in csvs[1:] if p.read_bytes() != first]
    if bad:
        problems.append(f"repeated fig6 runs differ: {bad}")
    if golden_csv and first != golden_csv.read_bytes():
        problems.append(f"fig6 CSV differs from {golden_csv.name}")
    cells = csv_cells(csvs[0])
    for cell in sample["sample_cells"]:
        if cells.get((cell["series"], cell["x"])) != cell["y"]:
            problems.append(f"per-bid sample disagrees with the CSV: {cell}")
            break
    failed = len(walls) if problems else 0
    return {
        "correct": not problems, "problems": problems,
        "attempted": len(walls), "failed": failed,
        "metrics": {"setup_s": sample["setup_s"],
                    "wall_s": statistics.median(walls),
                    "bid_p50_ms": sample["bid_p50_ms"], "peak_rss_mb": rss},
        "extras": {"fail_frac": failed / len(walls),
                   "bid_p90_ms": sample["bid_p90_ms"],
                   "bid_p99_ms": sample["bid_p99_ms"]},
    }


# --- market_wide -------------------------------------------------------------

def run_market(spec, seed, seconds, traced, work):
    identity = work / "identity.txt"
    out = work / "market.json"
    cmd = [HARNESS, "market", "--seed", seed, "--bids", spec["bids"],
           "--identity-out", identity, "--out", out]
    if traced:
        cmd += ["--traced", "--spans-out", work / "spans.jsonl"]
    else:
        cmd += ["--seconds", seconds, "--min-reps", spec["min_reps"]]
    run_checked(cmd, timeout=seconds + 150)
    data = read_json(out)
    problems = []
    golden = golden_name("market_wide_seed42", seed, spec["smoke"])
    if golden:
        want = golden.with_suffix(".sha256").read_text().split()[0]
        got = hashlib.sha256(identity.read_bytes()).hexdigest()
        if got != want:
            problems.append(f"market identity {got} != golden {want}")
    result = {"correct": not problems, "problems": problems,
              "attempted": int(data.get("reps", 1)),
              "failed": int(data.get("reps", 1)) if problems else 0}
    if traced:
        result["layers"] = data
    else:
        result["metrics"] = {k: data[k] for k in (
            "setup_s", "wall_s", "bid_p50_ms", "peak_rss_mb")}
        result["extras"] = {"fail_frac": result["failed"] / result["attempted"],
                            "bid_p90_ms": data["bid_p90_ms"],
                            "bid_p99_ms": data["bid_p99_ms"]}
    return result


# --- main --------------------------------------------------------------------

RUNNERS = {"serve": run_serve, "fig6": run_fig6, "market": run_market}


def workload_spec(name, smoke):
    spec = dict(WORKLOADS[name], smoke=smoke, setup_reps=SETUP_REPS,
                setup_launches=SERVE_SETUP_LAUNCHES,
                wall_draws=SERVE_WALL_DRAWS, min_reps=3)
    if smoke:
        for size in ("jobs", "bids"):
            if size in spec:
                spec[size] //= SMOKE_DIVISOR
        spec.update(setup_launches=2, setup_reps=2, wall_draws=1, min_reps=1)
    return spec


def run_one(name, seed, seconds, traced, smoke):
    spec = workload_spec(name, smoke)
    work = BUILD / "work" / f"{name}-{seed}{'-traced' if traced else ''}"
    work.mkdir(parents=True)
    return RUNNERS[spec["kind"]](spec, seed, seconds, traced, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED,
                        help="seed of the first run; run i uses seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds; --smoke: 0.5)")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="gated and traced runs at ~1/20 size with every "
                             "check on, to test that the benchmark still runs")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    traced = bool(args.trace)
    names = list(dict.fromkeys(args.workload or WORKLOADS))
    bench = load_benchmark_json()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.5 if args.smoke else bench["run_seconds"]
    try:
        info = build()
    except BenchError as e:
        log(f"benchmark: {e}")
        return 1
    # Only this invocation's files: a traced run's spans are ~100 MB.
    shutil.rmtree(BUILD / "work", ignore_errors=True)

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    modes = [False, True] if args.smoke else [traced]
    results = {"host": host_info(info), "seed": args.seed, "runs": args.runs,
               "seconds": seconds, "traced": traced, "smoke": args.smoke,
               "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for mode in modes:
            group = "layers" if mode else "metrics"
            wanted = [m["name"]
                      for m in bench["per_layer" if mode else "end_to_end"]]
            runs = []
            for i in range(args.runs):
                seed = args.seed + i
                try:
                    run = run_one(name, seed, seconds, mode, args.smoke)
                except BenchError as e:
                    log(f"benchmark: {name} seed {seed}: {e}")
                    return 1
                run["seed"] = seed
                values = run.get(group, {})
                missing = [m for m in wanted if m not in values]
                if missing and run["correct"]:
                    log(f"benchmark: {name} did not report {missing}")
                    return 1
                for problem in run["problems"]:
                    log(f"benchmark: {name} seed {seed}: CHECK FAILED: "
                        f"{problem}")
                ordered = {m: values[m] for m in wanted if m in values}
                ordered.update(values)
                ordered.update(run.get("extras", {}))
                for key, value in ordered.items():
                    print(f"{name} {key} {value:.6g} {unit_of(key, units)}",
                          flush=True)
                runs.append(run)
                summary["correct"] &= run["correct"]
                summary["attempted"] += run["attempted"]
                summary["failed"] += run["failed"]
            medians = {m: statistics.median(r[group][m] for r in runs)
                       for m in wanted if all(m in r.get(group, {})
                                              for r in runs)}
            results["workloads"].setdefault(name, {})["traced" if mode else
                                                      "gated"] = {
                "runs": runs, "median": medians}
            if mode != modes[0]:
                continue
            for m, v in medians.items():
                key = m if len(names) == 1 else f"{name}.{m}"
                summary["metrics"][key] = {"value": v, "unit": units[m]}
    with open(BUILD / "results.json", "w") as f:
        json.dump(results, f, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
