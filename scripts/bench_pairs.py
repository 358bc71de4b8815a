"""Alternating pairs of perfbench runs on two source checkouts, as a BENCH JSON.

    python3 scripts/bench_pairs.py --base DIR --change DIR \\
        --workload cosine_roundtrip --workload mass_spectrum --pairs 10 \\
        --traced cosine_roundtrip --traced-pairs 3 --out BENCH_tag.json

Pair k runs ``perfbench/run.py --workload W --seed k --seconds S --trace 0``
once in each checkout, each in a fresh process started in the checkout's root
with PYTHONDONTWRITEBYTECODE=1.  The base runs first in even pairs and the
change first in odd ones, so the order of the runs favours neither side.
Traced pairs (``--trace 1``) follow on the --traced workloads, for the
per-layer metrics.  For each metric the file keeps every run, the medians
and quartiles, and the number of pairs the change wins (ties count for
neither).  Verdicts, with the end-to-end bounds of BENCHMARK.json: "gain"
when the change wins at least 9 of 10 pairs and its median is better by more
than the base's interquartile range; otherwise "within bound" when its
median is no worse than the bound allows, else "worse".  Per-layer metrics
have no bound and read "gain" or "no gain".  Without --out the JSON goes to
standard output.  After it, each run whose ``correct`` is not true or whose
``failed`` is above 0 gets one line on standard error, and the exit status
is 1 if there is any: a gain is no gain on runs that failed their check.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def run(root, workload, seed, seconds, trace):
    """One perfbench run in the checkout root: its last output line, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pairs(base, change, workload, count, seconds, trace):
    """count alternating pairs: {"base": [...], "change": [...]} of run results."""
    out = {"base": [], "change": []}
    for k in range(count):
        order = [("base", base), ("change", change)]
        for side, root in order if k % 2 == 0 else order[::-1]:
            out[side].append(run(root, workload, k, seconds, trace))
    return out


def summary(base, change, lower_is_better, bound):
    """Medians, quartiles, wins and verdict of one metric's paired runs."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    b_med, c_med = float(np.median(base)), float(np.median(change))
    b_q = [float(q) for q in np.percentile(base, [25, 75])]
    gain = wins >= 0.9 * len(base) and sign * (b_med - c_med) > b_q[1] - b_q[0]
    if gain:
        verdict = "gain"
    elif bound is None:
        verdict = "no gain"
    else:
        worse = sign * (c_med - b_med) / abs(b_med) if b_med else sign * (c_med - b_med)
        verdict = "within bound" if worse <= bound else "worse"
    return {"base": base, "change": change, "base_median": b_med, "base_quartiles": b_q,
            "change_median": c_med,
            "change_quartiles": [float(q) for q in np.percentile(change, [25, 75])],
            "change_wins": int(wins), "pairs": len(base),
            "change_over_base": c_med / b_med if b_med else None, "verdict": verdict}


def metrics(runs, specs, bounded):
    """The summary of every metric in specs, from paired runs."""
    out = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        if None in values["base"] + values["change"]:
            continue
        out[name] = summary(values["base"], values["change"], spec["better"] == "lower",
                            spec["bound"] if bounded else None)
    return out


def failed_runs(workload, kind, runs):
    """One line for each run whose result check failed or that failed an
    operation."""
    return [f"{workload} {side} {kind}run seed {k}: correct {r['correct']}, failed {r['failed']}"
            for side in runs for k, r in enumerate(runs[side])
            if r["correct"] is not True or r["failed"] > 0]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="source checkout of the parent")
    p.add_argument("--change", required=True, help="source checkout of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--traced", action="append", default=[], help="workloads traced too")
    p.add_argument("--traced-pairs", type=int, default=3)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    report = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__},
        "command": "python3 perfbench/run.py --workload W --seed k --seconds S --trace 0|1",
        "run_seconds": args.seconds,
        "pairs": {w: args.pairs for w in args.workload},
        "traced_pairs": {w: args.traced_pairs for w in args.traced},
        "workloads": {},
    }
    faults = []
    for w in args.workload:
        runs = pairs(args.base, args.change, w, args.pairs, args.seconds, 0)
        entry = metrics(runs, bench["end_to_end"], bounded=True)
        faults += failed_runs(w, "", runs)
        entry["runs_correct_failed"] = {side: [[r["correct"], r["failed"], r["attempted"]]
                                               for r in runs[side]] for side in runs}
        if w in args.traced:
            traced = pairs(args.base, args.change, w, args.traced_pairs, args.seconds, 1)
            entry["traced"] = metrics(traced, bench["per_layer"], bounded=False)
            faults += failed_runs(w, "traced ", traced)
        report["workloads"][w] = entry
        for name, m in entry.items():
            if "verdict" in m:
                print(f"{w} {name}: {m['base_median']:.6g} -> {m['change_median']:.6g} "
                      f"({m['change_wins']}/{m['pairs']} pairs, {m['verdict']})", file=sys.stderr)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    for line in faults:
        print(line, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
