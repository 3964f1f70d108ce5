"""solwave benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The library is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb), measured with tracing off; the two times are rescaled to a
fixed machine speed by the reference computation in ``reference.py``, and the
unscaled times are printed next to them.  With ``--trace 1`` it reports the
per-layer metrics from spans, unscaled.  Each run prints a table, a ``record`` line
(machine, versions, seed, sample counts) and, as its last line, one JSON
result; it also writes the result, and any spans, under ``perfbench/out/``.
``--workload all`` runs each workload in its own process, one after another.

The seed draws omega for ladder, scan-2d and flight-2d from [0.80, 0.85], one
value in each third of the band; passes cycle through the three, so every run
covers the band and its median does not hang on one draw.  At 0.75 the
flight-2d energy drift misses the AC-5 bound, so the band stops at 0.80.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from reference import REFERENCE_S, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

NAMES = ("ladder", "scan-2d", "flight-2d", "demo")
OMEGA_BAND = (0.80, 0.85)
STRATA = 3        # omega draws per run; also the number of set-ups timed
MIN_PASSES = STRATA
IMPORT_PROBE = ("import time; t = time.perf_counter(); import solwave.cli; "
                "print(time.perf_counter() - t)")


def draw_omegas(seed: int) -> list[float]:
    rng = random.Random(seed)
    lo, hi = OMEGA_BAND
    return [lo + (hi - lo) * (j + rng.random()) / STRATA for j in range(STRATA)]


def import_seconds() -> float:
    """Import time of the library in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def source_lines() -> int:
    pkg = os.path.join(SRC, "solwave")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def timed_pass(workload, inputs, omega, tracer):
    t0 = time.perf_counter()
    outcomes = workload.run(inputs, omega, tracer)
    return time.perf_counter() - t0, outcomes


def measure(workload, omegas, seconds, tracer):
    """Untraced run: one set-up per omega (setup_s), then at least
    MIN_PASSES passes cycling through the omegas, continued while another
    pass fits in ``seconds``.  The reference computation is timed before
    each set-up and after each pass."""
    setups, inputs, refs = [], [], []
    try:
        for omega in omegas:
            refs.append(reference_seconds())
            t_import = import_seconds()
            t0 = time.perf_counter()
            inputs.append(workload.setup(omega, tracer))
            setups.append(t_import + time.perf_counter() - t0)
        refs.append(reference_seconds())
        walls, outcomes = [], []
        start = time.perf_counter()
        while True:
            j = len(walls) % len(omegas)
            wall, result = timed_pass(workload, inputs[j], omegas[j], tracer)
            walls.append(wall)
            outcomes += result
            refs.append(reference_seconds())
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
    finally:
        for item in inputs:
            workload.teardown(item)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = REFERENCE_S / statistics.median(refs)
    metrics = {
        "wall_s": (scale * statistics.median(walls), "s", len(walls)),
        "setup_s": (scale * statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    detail = {"pass_s": walls, "setup_s": setups, "reference_s": refs,
              "unscaled": {"wall_s": statistics.median(walls),
                           "setup_s": statistics.median(setups),
                           "reference_s": statistics.median(refs)}}
    return metrics, outcomes, detail


def measure_traced(workload, omegas, seconds, tracer):
    """Traced run at the middle omega: pairs of an untraced and a traced
    region (set-up plus one pass) until another pair would overrun
    ``seconds``.  Per-layer values combine the traced regions."""
    from spans import LAYER_METRICS, region_metrics

    omega = omegas[len(omegas) // 2]
    regions, overheads, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        inputs = workload.setup(omega, tracer)
        try:
            untraced, result = timed_pass(workload, inputs, omega, tracer)
        finally:
            workload.teardown(inputs)
        outcomes += result
        first = len(tracer.spans)
        with tracer.active():
            inputs = workload.setup(omega, tracer)
            try:
                traced, result = timed_pass(workload, inputs, omega, tracer)
            finally:
                workload.teardown(inputs)
        outcomes += result
        regions.append((first, len(tracer.spans)))
        overheads.append(traced - untraced)
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break

    per_region = [region_metrics(tracer.spans[a:b]) for a, b in regions]
    metrics = {}
    for name, (unit, combine) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(overheads), unit, len(overheads))
            continue
        values = [r[name] for r in per_region]
        value = max(values) if combine == "max" else statistics.median(values)
        metrics[name] = (value, unit, len(values))
    return metrics, outcomes, {"regions": regions, "overhead_s": overheads}


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "solwave", "__init__.py")):
        print(f"perfbench: no solwave package under {SRC}; run from a checkout "
              "of the repository root", file=sys.stderr)
        return 2
    threads_seen = os.environ.pop("SOLITON_THREADS", None)  # library default: 1 worker
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    import numpy
    import scipy

    from gates import self_check
    from spans import Tracer
    from workloads import WORKLOADS

    wrong = [name for name, expected, passed in self_check() if passed != expected]
    if wrong:
        print(f"perfbench: oracle self-check failed: {wrong}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    omegas = draw_omegas(args.seed) if workload.seeded else [0.8] * STRATA
    tracer = Tracer()
    if args.trace:
        metrics, outcomes, detail = measure_traced(workload, omegas, args.seconds, tracer)
    else:
        metrics, outcomes, detail = measure(workload, omegas, args.seconds, tracer)

    failed = [misses for misses in outcomes if misses]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "omegas": omegas if workload.seeded else None,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SOLITON_THREADS": threads_seen,
        "src_solwave_lines": source_lines(),
        "samples": {name: n for name, (_, _, n) in metrics.items()},
    }

    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:34s} {value:<22.9g} {unit:6s} n={n}")
    for name, value in detail.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':34s} {value:<22.9g} {'s':6s}")
    print(f"  {'error_rate':34s} {len(failed) / len(outcomes):<22.9g} {'1':6s} "
          f"n={len(outcomes)} ({len(failed)} failed)")
    for misses in failed[:5]:
        print(f"  miss: {'; '.join(misses)}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result, "detail": detail}, fh, indent=1)
    if args.trace:
        tracer.dump(stem + "-spans.json", detail["regions"])
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is its own."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
