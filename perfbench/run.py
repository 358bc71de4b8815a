"""Benchmark of nodalrec, from problem file to checked result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from its
``src/``).  Workloads: cosine_roundtrip, mass_spectrum, general_kernel,
synth_dense (see README.md).  Their inputs are fixed problems, so every
figure except the timings repeats exactly; the seed is accepted and
reported on stderr only.

--trace 0 measures the end-to-end metrics: setup_s (median of several fresh
interpreters that import nodalrec and load and validate the problem),
solve_s (fastest pass; passes repeat until S seconds have gone, at least
one), peak_rss_mb and ref_dev (largest deviation from the independent
reference).  Times are scaled to a
reference machine speed by clock.PassClock.  --trace 1 makes one untraced
and one traced pass and reports the per-layer metrics, the tracing
overhead, and the spans in perfbench/out/.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, set before numpy is first imported (here and, through the
# environment, in the set-up probes)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import inputs  # noqa: E402
from clock import REFERENCE_KERNEL_S, PassClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def time_setup(workload):
    """Set-up seconds at the reference speed, for SETUP_REPEATS fresh
    processes: each one's wall time minus its calibration kernel time,
    times the scale its own kernel times give."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append((wall - probe["sampled_s"]) * REFERENCE_KERNEL_S / probe["kernel_s"])
        print(f"perfbench: set-up probe: wall {wall:.3f} s, kernel "
              f"{1e6 * probe['kernel_s']:.0f} us, scaled {times[-1]:.3f} s", file=sys.stderr)
    return times


def run_pass(nr, problem, wl, workdir, clock=None):
    """One pass, then its check: (PassClock, failed operations, verdict).
    An error ends the pass; its step and every later one count as failed.
    A pass with a failed operation is not checked (verdict None), and the
    pass's outputs are dropped once checked."""
    clock = clock if clock is not None else PassClock()
    state = {}
    failed = 0
    with clock:
        for k, (label, step) in enumerate(wl.steps):
            try:
                ok = step(nr, problem, state, workdir)
            except (nr.NodalrecError, ValueError) as exc:
                print(f"perfbench: {wl.name}: {label} raised {exc!r}", file=sys.stderr)
                failed += len(wl.steps) - k
                break
            if ok is False:
                print(f"perfbench: {wl.name}: {label} reported failures", file=sys.stderr)
                failed += 1
    verdict = None if failed else wl.check(state)
    if verdict is not None:
        print(f"perfbench: {wl.name}: {'ok' if verdict.ok else 'WRONG'}: {verdict.detail}",
              file=sys.stderr)
    return clock, failed, verdict


def judged(wl, passes):
    """(correct, ref_dev): at least one pass was checked, every checked pass
    passed, and all gave the same ref_dev, bit for bit."""
    verdicts = [v for _, _, v in passes if v is not None]
    if not verdicts:
        return False, None
    for v in verdicts:
        if not v.ok:  # a structural failure (missing index or node) has dev inf
            return False, v.dev if math.isfinite(v.dev) else None
    devs = [v.dev for v in verdicts]
    if len(set(devs)) != 1:
        print(f"perfbench: {wl.name}: ref_dev differs between passes: {devs}", file=sys.stderr)
        return False, devs[0]
    return True, devs[0]


def _describe(clock):
    return (f"{clock.scaled_s:.3f} s scaled (wall {clock.wall_s:.3f} s, "
            f"kernel {1e6 * clock.kernel_s:.0f} us over {len(clock.samples)} samples)")


def measure(nr, wl, seconds, workdir):
    setup = time_setup(wl.name)
    problem = inputs.load(nr, ROOT, wl.name)
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(nr, problem, wl, workdir))
    correct, ref_dev = judged(wl, passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "solve_s": min(p[0].scaled_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_dev": ref_dev,
    }
    print(f"perfbench: passes {', '.join(_describe(p[0]) for p in passes)}", file=sys.stderr)
    return correct, passes, metrics


def measure_traced(nr, wl, seed, workdir):
    untraced = run_pass(nr, inputs.load(nr, ROOT, wl.name), wl, workdir)
    clock = PassClock()
    tracer = Tracer(excluded=lambda: clock.sampled_s)
    tracer.install()
    try:
        # loaded after install, so its compiled expressions are counted
        problem = inputs.load(nr, ROOT, wl.name)
        traced = run_pass(nr, problem, wl, workdir, clock)
    finally:
        tracer.uninstall()
    correct, _ = judged(wl, [untraced, traced])

    metrics = tracer.metrics(clock.scale)
    missed = [layer for layer in wl.expected_layers if tracer.calls(layer) == 0]
    for layer in missed:
        print(f"perfbench: missed call site: layer {layer} recorded no calls on {wl.name}",
              file=sys.stderr)
    for target in tracer.missing_targets:
        print(f"perfbench: trace target {target} not found", file=sys.stderr)
    metrics.update({
        "trace.untraced_solve_s": untraced[0].scaled_s,
        "trace.traced_solve_s": traced[0].scaled_s,
        "trace.overhead_s": traced[0].scaled_s - untraced[0].scaled_s,
        "trace.untraced_wall_s": untraced[0].wall_s,
        "trace.kernel_us": 1e6 * untraced[0].kernel_s,
        "trace.missed_call_sites": len(missed),
    })
    trace_file = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "metrics": metrics,
                   "missed_call_sites": missed, **tracer.dump(clock.scale)}, fh, indent=1)
    print(f"perfbench: untraced pass {_describe(untraced[0])}; traced pass {_describe(traced[0])}",
          file=sys.stderr)
    print(f"perfbench: trace written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    return correct, [untraced, traced], metrics


def main(argv=None):
    args = parse_args(argv)
    required = ("src/nodalrec/__init__.py", inputs.COSINE_FILE, inputs.WORKED_FILE,
                "BENCHMARK.json")
    missing = [r for r in required if not (ROOT / r).is_file()]
    if missing:
        return fail(f"not a nodalrec source checkout; missing {', '.join(missing)}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    import nodalrec as nr

    if Path(nr.__file__).resolve().parent != ROOT / "src" / "nodalrec":
        return fail(f"imported nodalrec from {nr.__file__}, not from this checkout")
    print(f"perfbench: workload {args.workload}, seed {args.seed} (inputs do not depend on it)",
          file=sys.stderr)

    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            correct, passes, values = measure_traced(nr, wl, args.seed, workdir)
        else:
            correct, passes, values = measure(nr, wl, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        return fail(f"BENCHMARK.json names metrics this run does not produce: {unknown}")
    if any(values[m["name"]] is None for m in wanted):
        return fail("no pass was checked with a finite ref_dev; nothing to report")
    result = {
        "correct": bool(correct),
        "attempted": len(passes) * len(wl.steps),
        "failed": sum(p[1] for p in passes),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
