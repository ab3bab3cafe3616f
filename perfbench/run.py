#!/usr/bin/env python3
"""The repository benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the library and the
harness from source into .bench_build/ (CMake, RelWithDebInfo, the
repository's default flags); later runs only re-check the build.

--trace 0 prints the end-to-end metrics of the untraced harness:
sim_s_per_wall_s, op_ms_p50, op_ms_p90, setup_s (process start to the
start of the first operation, median of eleven processes), peak_rss_mb (after
set-up, the pin cycle and the first measured cycle), op_ok_ratio (1 - error
rate: operations that threw or failed the digest check, over those
attempted).
--trace 1 spends half the time untraced and half in the traced harness and
prints the per-layer metrics, including trace_overhead between the two.

Every run is checked: one cycle on the pin seed must reproduce the digest
pinned in perfbench/workloads.json, no operation may throw, and a traced
run must reproduce the untraced digest of the seed's first cycle. A
mismatch makes the result incorrect and the exit code 1.

Any JMB_* environment variable makes the run refuse to start (exit 2): the
benchmark sets none itself, so a stray knob would silently change the
measured program. Provenance (SIMD backend, compiler, flags, build type,
git describe, nproc, JMB_* knobs) is printed on the line before the result;
a human-readable summary and layer table go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SETUP_SAMPLES = 10
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit(
            "perfbench: no library sources at src/ next to perfbench/; run "
            "from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
         "perfbench_traced"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_harness(binary, args):
    """Run a harness binary and parse the JSON line it prints."""
    proc = subprocess.run(
        [os.path.join(BUILD_DIR, binary)] + [str(a) for a in args],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(
            f"perfbench: {binary} {' '.join(map(str, args))} exited "
            f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git)"


def ratio(num, den):
    return num / den if den else 0.0


def check(res, spec, workload):
    """Digest checks for one harness run; returns (ok, failed_ops)."""
    pinned = spec["workloads"][workload]["pinned_digest"]
    failed = res["failed"] + res["pin_failed"]
    ok = res["failed"] == 0 and res["pin_failed"] == 0
    if res["pin_digest"] != pinned:
        log(f"perfbench: {workload}: pin-seed digest {res['pin_digest']} "
            f"!= pinned {pinned}")
        ok = False
        failed = res["failed"] + res["pin_ops"]
    for err in res["errors"]:
        log(f"perfbench: {workload}: {err}")
    return ok, failed


def end_to_end(res, setup_samples):
    return {
        "sim_s_per_wall_s": (ratio(res["sim_s"], res["loop_s"]), "sim_s/s"),
        "op_ms_p50": (res["op_ms_p50"], "ms"),
        "op_ms_p90": (res["op_ms_p90"], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from a traced run. Layer times are host seconds
    per simulated air second (they sum to 1 / traced sim_s_per_wall_s);
    counts are per cycle of the workload's case set, and the queue depth is
    the peak of one MAC call averaged over calls."""
    layers, counts = traced["layers"], traced["counts"]
    sim, cycles = traced["sim_s"], traced["cycles"]
    wall = traced["traced_wall_s"] - layers["rate.replay_s"]
    m = {}
    for name, secs in layers.items():
        m[name] = (ratio(secs, sim), "s/sim_s")
    m["core.link_model.masked_pool_s"] = (
        ratio(traced["masked_pool_s"], sim), "s/sim_s")
    m["trace.untracked_share"] = (
        100.0 * ratio(layers["untracked_s"], wall), "%")
    untraced_rate = ratio(untraced["sim_s"], untraced["loop_s"])
    traced_rate = ratio(sim, wall)
    m["trace_overhead"] = (
        100.0 * (ratio(untraced_rate, traced_rate) - 1.0), "%")

    def per_cycle(key):
        return (ratio(counts[key], cycles), "count/cycle")

    queries = counts["link_queries"]
    m.update({
        "net.mac.calls": per_cycle("mac_calls"),
        "net.mac.link_queries": per_cycle("link_queries"),
        "net.mac.self_ns_per_query": (
            1e9 * ratio(layers["net.mac.self_s"], queries), "ns"),
        "net.mac.tx_attempts": per_cycle("tx_attempts"),
        "net.mac.delivery_ratio": (
            ratio(counts["delivered"], counts["tx_attempts"]), "ratio"),
        "net.mac.measurement_epochs": per_cycle("measurement_epochs"),
        "net.mac.allocs_per_query": (
            ratio(counts["mac_allocs"], queries), "allocs/query"),
        "net.mac.aggregated_mpdus": per_cycle("aggregated_mpdus"),
        "net.queue.max_depth": (
            ratio(counts["max_queue_depth"], counts["mac_calls"]), "packets"),
        "core.link_model.sinr_calls": per_cycle("sinr_calls"),
        "core.precoder.builds": per_cycle("builds"),
        "core.precoder.masked_builds": per_cycle("masked_builds"),
        "traffic.flow.packets": per_cycle("packets"),
        "traffic.policy.selects": per_cycle("selects"),
        "fault.events": per_cycle("fault_events"),
        "fault.quarantines": per_cycle("quarantines"),
        "fault.lead_elections": per_cycle("lead_elections"),
        "metro.churn.activity_calls": per_cycle("activity_calls"),
        "engine.pipeline.frames": per_cycle("frames"),
        "engine.pipeline.decode_ok_ratio": (
            ratio(counts["client_frames_ok"], counts["client_frames"]),
            "ratio"),
        "engine.pipeline.allocs_per_frame": (
            ratio(counts["frame_allocs"], counts["frames"]), "allocs/frame"),
    })
    return m


def layer_table(workload, traced):
    layers = traced["layers"]
    wall = traced["traced_wall_s"] - layers["rate.replay_s"]
    rows = sorted(((v, k) for k, v in layers.items() if k != "rate.replay_s"),
                  reverse=True)
    log(f"--- {workload}: traced wall {wall:.3f} s over "
        f"{traced['cycles']} cycles, {traced['sim_s']:.3f} sim s ---")
    log(f"{'layer':32s} {'host s':>10s} {'share':>7s}")
    for secs, name in rows:
        if secs > 0:
            log(f"{name:32s} {secs:10.4f} {100 * ratio(secs, wall):6.2f}%")
    log(f"{'rate.replay_s (beside net.mac.self_s)':32s} "
        f"{layers['rate.replay_s']:10.4f}")
    total = sum(v for v, _ in rows)
    log(f"sum of layers {total:.6f} s vs traced wall {wall:.6f} s")
    largest = next(name for _, name in rows if name != "untracked_s")
    log(f"largest layer: {largest}; untracked "
        f"{100 * ratio(layers['untracked_s'], wall):.2f}% of traced wall")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("JMB_"))
    if knobs:
        log(f"perfbench: refusing to run with {', '.join(knobs)} set; the "
            "benchmark measures the program at its defaults")
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        log(f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{', '.join(spec['workloads'])}")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("perfbench: --seed must be >= 0 and --seconds > 0")
        return 2
    build()

    common = ["--workload", args.workload, "--seed", args.seed]
    if args.trace:
        half = args.seconds / 2
        untraced = run_harness("perfbench", common + ["--seconds", half])
        traced = run_harness("perfbench_traced", common + ["--seconds", half])
        runs = [untraced, traced]
        metrics = per_layer(traced, untraced)
    else:
        setup = [run_harness("perfbench", ["--workload", args.workload,
                                           "--seed", args.seed,
                                           "--setup-only"])["setup_s"]
                 for _ in range(SETUP_SAMPLES)]
        untraced = run_harness("perfbench", common + ["--seconds",
                                                      args.seconds])
        runs = [untraced]
        metrics = end_to_end(untraced, setup + [untraced["setup_s"]])

    correct = True
    attempted = failed = 0
    for res in runs:
        ok, bad = check(res, spec, args.workload)
        correct = correct and ok
        attempted += res["attempted"] + res["pin_ops"]
        failed += bad
    if args.trace and traced["digest"] != untraced["digest"]:
        log(f"perfbench: traced digest {traced['digest']} != untraced "
            f"{untraced['digest']}")
        correct = False
    if not args.trace:
        metrics["op_ok_ratio"] = (1.0 - ratio(failed, attempted), "ratio")

    provenance = dict(untraced["provenance"])
    provenance.update({
        "git_describe": git_describe(),
        "nproc": os.cpu_count(),
        "jmb_env": {k: os.environ[k] for k in knobs},
        "workload": args.workload,
        "seed": args.seed,
        "digest": untraced["digest"],
        "ops_first_cycle": untraced["ops_first_cycle"],
        "cycles": untraced["cycles"],
    })
    log(f"perfbench {args.workload} seed {args.seed}: "
        f"{untraced['attempted']} ops in {untraced['cycles']} cycles, "
        f"{untraced['loop_s']:.2f} s; digest {untraced['digest']}")
    if args.trace:
        layer_table(args.workload, traced)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
