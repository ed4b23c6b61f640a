#!/usr/bin/env python3
"""Host-speed benchmark of the manycore simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. Builds perfbench/ (and the libraries under
src/ it links) into $CARGO_TARGET_DIR or .bench_build/, generates the
workload's inputs from the seed, runs the driver and prints its result as
the last line of stdout: one JSON object with "correct", "attempted",
"failed" and "metrics". Build and driver logs go to stderr.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = (
    "saturated_8x8",
    "saturated_16x16",
    "light_8x8",
    "e1_campaign",
    "whatif_serve",
)
DEFAULT_SEED = 42   # the seed of the committed configs' measurements
HELD_OUT_SEED = 7   # confirm claims here; never tune on it
DRIVER_TIMEOUT_S = 170

SATURATED_CFG = os.path.join("examples", "configs", "saturated_16nm.cfg")
E1_SWEEP_CFG = os.path.join("examples", "configs", "e1_sweep.cfg")

# Campaign shape: the committed E1 grid at a shortened horizon, on at most
# two workers (four swung by ~30 % between back-to-back runs on a 4-CPU
# host; two repeated within ~4 %).
CAMPAIGN_SECONDS = 1
CAMPAIGN_JOBS = 2

# What-if traffic. The mix is a synthetic assumption: the repository holds
# no recorded what-if traffic (see "What-if traffic" in perfbench/README.md
# for the reason behind each value and how the latencies move with it).
# The snapshot is captured one tenth before the end of a WHATIF_WARM_S run,
# so a miss forks and simulates that last tenth.
WHATIF_WARM_S = 0.25
WHATIF_LIMIT_MS = 100.0
# The nominal phases are served in process by one thread (see
# perfbench/README.md). At 200 rps about 17 % of requests fork for about
# 8 ms, so that thread is about 30 % busy, and three phases of 4 s give
# about 2400 answers (24 beyond p99).
WHATIF_NOMINAL_RPS = 200.0
# Offered step rates over loopback, 1.12x apart from 600 to 2340 rps. On a
# 4-CPU host the parent serves about 900-1800 rps, depending on host load,
# so the steps bracket that capacity.
WHATIF_STEP_RPS = tuple(round(600.0 * 1.12 ** i) for i in range(13))
WHATIF_STEP_SHARE = 0.05      # of the window, per step
WHATIF_NOMINAL_SHARE = 0.2    # of the window, per nominal phase
WHATIF_ZIPF_S = 1.0
WHATIF_CACHE_ENTRIES = 256  # ServiceOptions::cache_entries default
WHATIF_WARM_DRAWS = 1500
WHATIF_SCHEDULERS = ("power-aware", "periodic", "greedy", "none", "deadline")
# Spans the 0.7-1.0 range of the committed bench_serve panel and holds its
# three points (0.7, 0.85, 1.0).
WHATIF_TDP_SCALES = tuple(round(0.70 + 0.03 * i, 2) for i in range(11))
WHATIF_GUARD_BANDS = (0.02, 0.04, 0.06, 0.08, 0.10)  # default 0.04
WHATIF_GATE_DELAYS_MS = (1, 2)                       # default 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def read_cfg(rel_path):
    """Parses a key = value config file into an ordered dict."""
    path = os.path.join(ROOT, rel_path)
    if not os.path.isfile(path):
        raise SystemExit(f"perfbench: missing input {rel_path}")
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split("=", 1)
                entries[key.strip()] = value.strip()
    return entries


def write_cfg(path, entries):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in entries.items():
            f.write(f"{key} = {value}\n")


def build(build_dir):
    """Configures and builds the driver; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release", *gen],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "perfbench_driver")


def sim_inputs(workload, seed, inputs):
    cfg = read_cfg(SATURATED_CFG)
    cfg["seed"] = str(seed)
    if workload == "saturated_16x16":
        cfg["width"] = cfg["height"] = "16"
        cfg["seconds"] = "2"
    elif workload == "light_8x8":
        cfg["occupancy"] = "0.3"
    path = os.path.join(inputs, f"{workload}-{seed}.cfg")
    write_cfg(path, cfg)
    return ["--input", path]


def campaign_inputs(seed, inputs):
    spec = read_cfg(E1_SWEEP_CFG)
    spec["campaign_seed"] = str(seed)
    spec["seconds"] = str(CAMPAIGN_SECONDS)
    spec["jobs"] = str(CAMPAIGN_JOBS)
    path = os.path.join(inputs, f"e1_campaign-{seed}.cfg")
    write_cfg(path, spec)
    return ["--input", path]


def whatif_keys():
    keys = []
    for sched in WHATIF_SCHEDULERS:
        for tdp in WHATIF_TDP_SCALES:
            for guard in WHATIF_GUARD_BANDS:
                for gate in WHATIF_GATE_DELAYS_MS:
                    keys.append(json.dumps({
                        "schema": "mcs.whatif_query.v1",
                        "snapshot": "warm",
                        "overrides": {"scheduler": sched, "tdp_scale": tdp,
                                      "guard_band": guard,
                                      "gate_delay_ms": gate},
                    }, separators=(",", ":")))
    return keys


def whatif_stream(seed, seconds):
    """Seeded open-loop schedule. Key popularity is Zipf over a seeded
    ranking of the key space; the ranking deals the schedulers out in
    turn, so every seed gives each scheduler (the override that sets a
    fork's cost) the same share of the traffic. Arrivals are Poisson per
    phase."""
    rng = random.Random(seed)
    keys = whatif_keys()
    per_sched = len(keys) // len(WHATIF_SCHEDULERS)
    decks = [rng.sample(range(i * per_sched, (i + 1) * per_sched), per_sched)
             for i in range(len(WHATIF_SCHEDULERS))]
    order = [deck[r] for r in range(per_sched) for deck in decks]
    weights = [0.0] * len(keys)
    for rank, key in enumerate(order):
        weights[key] = 1.0 / (rank + 1) ** WHATIF_ZIPF_S
    # Warm-up (not timed), all due at once: one request for each of the
    # cache's worth of most popular keys, least popular first, then
    # WHATIF_WARM_DRAWS ordinary draws. The draws bring the LRU cache from
    # the ideal top-256 set to its steady state, so the first nominal phase
    # sees the same hit ratio as the later ones.
    warm = order[:WHATIF_CACHE_ENTRIES][::-1]
    warm += rng.choices(range(len(keys)), weights, k=WHATIF_WARM_DRAWS)
    # Three nominal phases, then the steps. The top steps overload the
    # host, and the host stays slow for seconds after that, so no nominal
    # phase follows them.
    nominal = ("nominal", WHATIF_NOMINAL_RPS, WHATIF_NOMINAL_SHARE * seconds)
    steps = [("step", rate, WHATIF_STEP_SHARE * seconds)
             for rate in WHATIF_STEP_RPS]
    phases = [nominal] * 3 + steps
    lines = [f"limit_ms {WHATIF_LIMIT_MS}"]
    lines += [f"key {i} {body}" for i, body in enumerate(keys)]
    lines.append("phase warmup 0")
    lines += [f"req 0 {key}" for key in warm]
    for name, rate, duration in phases:
        lines.append(f"phase {name} {rate:.3f}")
        t = rng.expovariate(rate)
        while t < duration:
            key = rng.choices(range(len(keys)), weights)[0]
            lines.append(f"req {t * 1e6:.3f} {key}")
            t += rng.expovariate(rate)
    return "\n".join(lines) + "\n"


def whatif_inputs(seed, seconds, inputs, driver):
    # The service serves one snapshot of the committed config as it is;
    # the seed drives the traffic only. Snapshots warmed with other seeds
    # fork at speeds up to 25 % apart, which would tie the what-if figures
    # to the seed rather than to the program.
    cfg = read_cfg(SATURATED_CFG)
    cfg["seconds"] = str(WHATIF_WARM_S)
    cfg_path = os.path.join(inputs, f"whatif_serve-{seed}.cfg")
    write_cfg(cfg_path, cfg)
    stream_path = os.path.join(inputs, f"whatif_serve-{seed}.stream")
    with open(stream_path, "w", encoding="utf-8") as f:
        f.write(whatif_stream(seed, seconds))
    snapshot = os.path.join(inputs, f"whatif_serve-{seed}.snapshot.json")
    # Benchmark prep: warm the snapshot outside every timed figure.
    subprocess.run([driver, "--prep", "--config", cfg_path,
                    "--snapshot", snapshot],
                   check=True, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    return ["--input", stream_path, "--config", cfg_path,
            "--snapshot", snapshot]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                    f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring window (default 20, BENCHMARK.json's "
                    "run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    inputs = os.path.join(build_dir, "inputs")
    traces = os.path.join(build_dir, "traces")
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    try:
        driver = build(build_dir)
        if args.workload == "e1_campaign":
            extra = campaign_inputs(args.seed, inputs)
        elif args.workload == "whatif_serve":
            extra = whatif_inputs(args.seed, args.seconds, inputs, driver)
        else:
            extra = sim_inputs(args.workload, args.seed, inputs)
        cmd = [driver, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *extra]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                traces, f"{args.workload}-{args.seed}.json")]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                             timeout=DRIVER_TIMEOUT_S, text=True).stdout
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"failed: {e}")
        return 1
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("driver printed no result")
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
