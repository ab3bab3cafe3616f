#!/usr/bin/env python3
"""Paired benchmark runs, parent vs change, and the table a perf claim cites.

    python3 tools/perf_pairs.py --parent REV --change REV|DIR \\
        --workload W --seeds A-B --seconds S [--traced] [--work-dir D]
    python3 tools/perf_pairs.py --report RUNS.jsonl

Each side is a tree of its own: a revision is exported with `git archive`
into the work directory (default .perf_pairs/ at the repository root), a
directory is used as it is. Each side builds its own .bench_build/ the
first time perfbench/run.py runs there; that is the only program this tool
runs. Pair i runs seed A + i on both sides, the parent first when i is
even and the change first when i is odd, so drift of the host falls on
both sides alike; the order cannot be changed.

Every raw result line goes to a new file in the work directory,
<workload>-<parent>-<change>-s<A>-<B>[-traced][.<n>].jsonl (one JSON object
per run, written as each run ends; an earlier round's file is never
overwritten), and --report re-prints the tables from such a file. For
each end-to-end metric of
BENCHMARK.json the table gives each side's median [Q1, Q3], the ratio of
medians (change / parent), the pairs the change won, the gap between the
medians against the parent's quartile spread, and a verdict against the
metric's bound:

  better      the change is better in the median, won >= 90% of the pairs,
              and the gap exceeds the parent's quartile spread;
  past bound  the change is worse in the median by more than the bound;
  unresolved  a side's quartile spread, relative to the parent's median,
              exceeds the bound, so the runs cannot tell a move of that
              size (unless every change run beats every parent run);
  within      none of these.

--traced adds one traced run (perfbench/run.py --trace 1) per side and pair
in the same alternating order, and prints the per-layer medians with
trace_overhead beside them.

The tool refuses to compare (exit 3) when the two sides' provenance lines
differ in anything but git_describe and the run's own outcome (seed,
digest, ops_first_cycle, cycles). It notes whether the first-cycle digests
match seed by seed, which they do when the change keeps every output bit.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# Provenance fields that describe one run's outcome, not the build or host.
RUN_FIELDS = ("git_describe", "seed", "digest", "ops_first_cycle", "cycles")
WIN_SHARE = 0.9
RUN_TIMEOUT_S = 1800


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def parse_seeds(text):
    lo, sep, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi) if sep else int(lo)
    except ValueError:
        raise SystemExit(f"perf_pairs: --seeds wants A-B, got {text!r}")
    if first < 0 or last < first:
        raise SystemExit(f"perf_pairs: --seeds wants 0 <= A <= B, got {text!r}")
    return list(range(first, last + 1))


def pair_order(i):
    """Sides in run order for pair i: even pairs run the parent first."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


# ---------------------------------------------------------------- statistics

def quartiles(values):
    """(Q1, median, Q3) by linear interpolation between order statistics
    (the 'inclusive' method: Q1 of [1, 2, 3, 4] is 1.75)."""
    v = sorted(values)
    if not v:
        raise ValueError("no values")
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, q2, q3


def is_better(better, a, b):
    """Whether value a is strictly better than b for the metric's direction."""
    return a > b if better == "higher" else a < b


def summarize_metric(name, better, bound, parent, change):
    """Statistics and verdict for one metric over paired values (pair i is
    parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{name}: need one parent and one change value per pair")
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if is_better(better, c, p))
    spread = p3 - p1
    gap = abs(cm - pm)
    ratio = cm / pm if pm else (1.0 if cm == pm else math.inf)
    scale = abs(pm)
    # How much worse the change is in the median, as a share of the parent's.
    if scale:
        worse = (pm - cm) / scale if better == "higher" else (cm - pm) / scale
        rel_spread = max(spread, c3 - c1) / scale
    else:
        worse = 0.0 if cm == pm else (math.inf if is_better(better, pm, cm)
                                      else -math.inf)
        rel_spread = 0.0 if spread == 0 and c3 == c1 else math.inf
    n = len(parent)
    if better == "higher":
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if rel_spread > bound and not separated:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "past bound"
    elif worse < 0 and wins >= math.ceil(WIN_SHARE * n) and gap > spread:
        verdict = "better"
    else:
        verdict = "within"
    return {
        "metric": name, "better": better, "bound": bound, "pairs": n,
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "ratio": ratio, "wins": wins, "gap": gap, "parent_spread": spread,
        "worse": worse, "rel_spread": rel_spread, "verdict": verdict,
    }


def env_provenance(prov):
    return {k: v for k, v in prov.items() if k not in RUN_FIELDS}


def check_provenance(records):
    """Raise SystemExit(3) if any two runs' provenance differ outside
    RUN_FIELDS; returns the shared environment."""
    first = None
    for rec in records:
        env = env_provenance(rec["provenance"])
        if first is None:
            first, first_rec = env, rec
            continue
        if env != first:
            keys = sorted(k for k in set(env) | set(first)
                          if env.get(k) != first.get(k))
            diffs = ", ".join(
                f"{k}: {first.get(k)!r} ({first_rec['side']}) vs "
                f"{env.get(k)!r} ({rec['side']})" for k in keys)
            log(f"perf_pairs: provenance differs, refusing to compare: {diffs}")
            raise SystemExit(3)
    return first or {}


def paired(records, trace):
    """{pair index: {side: record}} for complete pairs of the given kind."""
    pairs = {}
    for rec in records:
        if rec["trace"] == trace:
            pairs.setdefault(rec["pair"], {})[rec["side"]] = rec
    return {i: p for i, p in sorted(pairs.items()) if len(p) == 2}


def summarize(records, bounds):
    """Per-metric summaries of the untraced pairs in `records`."""
    pairs = paired(records, 0)
    out = []
    for name, better, bound in bounds:
        vals = {s: [pairs[i][s]["result"]["metrics"][name]["value"]
                    for i in pairs] for s in SIDES}
        out.append(summarize_metric(name, better, bound,
                                    vals["parent"], vals["change"]))
    return out


def digest_note(records):
    pairs = paired(records, 0)
    differ = [pairs[i]["parent"]["seed"] for i in pairs
              if pairs[i]["parent"]["provenance"].get("digest")
              != pairs[i]["change"]["provenance"].get("digest")]
    if not differ:
        return f"first-cycle digests match on all {len(pairs)} seeds"
    return "first-cycle digests differ on seeds " + ", ".join(map(str, differ))


def fmt(v):
    if v == 0 or not math.isfinite(v):
        return f"{v}"
    mag = abs(v)
    if mag >= 100:
        return f"{v:.1f}"
    if mag >= 1:
        return f"{v:.3f}"
    return f"{v:.4g}"


def table(summaries):
    lines = ["| Metric | Parent median [Q1, Q3] | Change median [Q1, Q3] | "
             "Ratio | Wins | Gap vs parent spread | Verdict (bound) |",
             "|---|---|---|---|---|---|---|"]
    for s in summaries:
        p, c = s["parent"], s["change"]
        lines.append(
            f"| {s['metric']} | {fmt(p['median'])} [{fmt(p['q1'])}, "
            f"{fmt(p['q3'])}] | {fmt(c['median'])} [{fmt(c['q1'])}, "
            f"{fmt(c['q3'])}] | {s['ratio']:.3f} | {s['wins']}/{s['pairs']} | "
            f"{fmt(s['gap'])} vs {fmt(s['parent_spread'])} | "
            f"{s['verdict']} ({100 * s['bound']:g}%) |")
    return "\n".join(lines)


def layer_table(records):
    pairs = paired(records, 1)
    if not pairs:
        return ""
    names = sorted(
        k for k, v in pairs[next(iter(pairs))]["parent"]["result"]["metrics"]
        .items() if v["unit"] in ("s/sim_s", "%"))
    lines = [f"Traced split over {len(pairs)} pairs (median per side):", "",
             "| Layer | Unit | Parent | Change | Ratio |", "|---|---|---|---|---|"]
    for name in names:
        med = {}
        for side in SIDES:
            med[side] = statistics.median(
                pairs[i][side]["result"]["metrics"][name]["value"]
                for i in pairs)
        if med["parent"] == 0 and med["change"] == 0:
            continue
        ratio = med["change"] / med["parent"] if med["parent"] else math.inf
        unit = pairs[next(iter(pairs))]["parent"]["result"]["metrics"][name]["unit"]
        lines.append(f"| {name} | {unit} | {fmt(med['parent'])} | "
                     f"{fmt(med['change'])} | {ratio:.3f} |")
    return "\n".join(lines)


def report(records, bounds, out=sys.stdout):
    env = check_provenance(records)
    failed = [r for r in records if not r["result"].get("correct", False)]
    head = records[0]
    print(f"workload {head['workload']}: parent {head['revs']['parent']} vs "
          f"change {head['revs']['change']}, "
          f"{len(paired(records, 0))} untraced pairs", file=out)
    print(f"provenance: {json.dumps(env, sort_keys=True)}", file=out)
    print(digest_note(records), file=out)
    if failed:
        print(f"{len(failed)} run(s) reported correct=false", file=out)
    print("", file=out)
    print(table(summarize(records, bounds)), file=out)
    layers = layer_table(records)
    if layers:
        print("", file=out)
        print(layers, file=out)


# ---------------------------------------------------------------- running

def rev_sha(rev):
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"perf_pairs: unknown revision {rev!r}")
    return out.stdout.strip()


def side_tree(spec, work_dir):
    """(label, directory) for a side given as a revision or a directory."""
    if os.path.isdir(spec) and os.path.isfile(
            os.path.join(spec, "perfbench", "run.py")):
        path = os.path.abspath(spec)
        return path, path
    sha = rev_sha(spec)
    path = os.path.join(work_dir, sha[:12])
    if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        tmp = path + ".partial"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha],
                                 capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        os.rename(tmp, path)
    return sha[:12], path


def run_once(tree, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perf_pairs: perfbench/run.py in {tree} exited "
                         f"{proc.returncode} without a result line")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1]), \
        proc.returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seeds")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--work-dir", default=os.path.join(ROOT, ".perf_pairs"))
    ap.add_argument("--report", metavar="RUNS.jsonl")
    args = ap.parse_args(argv)
    bounds = load_bounds()

    if args.report:
        with open(args.report) as f:
            records = [json.loads(l) for l in f if l.strip()]
        report(records, bounds)
        return 0

    missing = [o for o in ("parent", "change", "workload", "seeds", "seconds")
               if getattr(args, o) is None]
    if missing:
        ap.error("need --" + ", --".join(missing) + " (or --report)")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    seeds = parse_seeds(args.seeds)
    os.makedirs(args.work_dir, exist_ok=True)
    trees = {}
    revs = {}
    for side in SIDES:
        revs[side], trees[side] = side_tree(getattr(args, side), args.work_dir)
    if trees["parent"] == trees["change"]:
        raise SystemExit("perf_pairs: parent and change are the same tree")
    stem = os.path.join(
        args.work_dir, f"{args.workload}-{os.path.basename(revs['parent'])}-"
        f"{os.path.basename(revs['change'])}-s{seeds[0]}-{seeds[-1]}"
        + ("-traced" if args.traced else ""))
    out_path, n = stem + ".jsonl", 1
    while os.path.exists(out_path):  # never overwrite an earlier round
        n += 1
        out_path = f"{stem}.{n}.jsonl"
    log(f"perf_pairs: raw lines -> {out_path}")

    records = []
    with open(out_path, "w") as out:
        for trace in ((0, 1) if args.traced else (0,)):
            for i, seed in enumerate(seeds):
                for side in pair_order(i):
                    prov, res, rc = run_once(trees[side], args.workload, seed,
                                             args.seconds, trace)
                    rec = {"workload": args.workload, "pair": i, "seed": seed,
                           "side": side, "trace": trace, "revs": revs,
                           "returncode": rc, "provenance": prov,
                           "result": res}
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
                    records.append(rec)
                    if not trace:
                        v = res["metrics"]["sim_s_per_wall_s"]["value"]
                        log(f"pair {i} seed {seed} {side}: "
                            f"sim_s_per_wall_s {v:.6g}")
                check_provenance(records)
    report(records, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
