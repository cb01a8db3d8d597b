#!/usr/bin/env python3
"""Benchmark of permspec: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sections|skeleton|glue|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a permspec checkout; permspec is imported from its
`src/`.  One run is one process with one thread.  It builds the seeded
inputs, then repeats the workload's fixed list of operations in rounds, each
round starting from cold program caches, while another round as long as the
longest so far would still end within `--seconds`.  It checks every round's
results (see checks.py) and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: setup_s, run_s and peak_rss_mb (see README.md);
- `--trace 1`: the per-layer metrics of spans.PER_LAYER, from wrapped entry
  points, as medians over rounds.

The line before it is a `detail` JSON object (raw wall time, per-round values,
a digest of the results); the same data goes to perfbench/out/.
"""

import argparse
import gc
import hashlib
import json
import os
import pkgutil
import resource
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# The drift reference: a fixed pure-Python loop, timed as the median of three
# repetitions before and after every operation.  NOMINAL_REF_S is its time on
# the reference machine (2-core x86-64 container, CPython 3.11) outside its
# slow stretches; a round's run_s is its wall time scaled by
# NOMINAL_REF_S / (loop time averaged over the round, each operation's two
# probes weighted by its wall time).  An unweighted mean of the probes let
# the many short operations outvote the few long ones: a slow stretch during
# the two multi-second D8xC2 operations of a `sections` round raised their
# probes by half, but the round mean by a tenth.
REF_ITERS = 50_000
NOMINAL_REF_S = 0.0040
SETUP_PROBES = 4


class SetupError(RuntimeError):
    pass


def ref_loop():
    acc = 0
    for i in range(REF_ITERS):
        acc = (acc * 31 + i) % 1000003
    return acc


def ref_probe():
    times = []
    for _ in range(3):
        t = time.perf_counter()
        ref_loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def import_permspec():
    """Import permspec, and every submodule, from this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "permspec", "__init__.py")):
        raise SetupError(f"no permspec package under {SRC}")
    sys.path.insert(0, SRC)
    import permspec

    if not os.path.abspath(permspec.__file__).startswith(SRC + os.sep):
        raise SetupError(f"permspec imported from {permspec.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(permspec.__path__):
        __import__(f"permspec.{info.name}")
    return permspec


def timed_setup(workload, seed):
    """Set-up wall time, the same rescaled like run_s, and the inputs."""
    before = ref_probe()
    t0 = time.perf_counter()
    import_permspec()
    inp = workloads.make_inputs(workload, seed)
    wall = time.perf_counter() - t0
    return wall, wall * NOMINAL_REF_S / ((before + ref_probe()) / 2), inp


def probe_setup(workload, seed):
    """(wall, rescaled) set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SetupError(f"setup probe failed: {proc.stderr.strip()}")
    wall, scaled = proc.stdout.split()[-2:]
    return float(wall), float(scaled)


def _clear(val, named):
    while val is not None:
        fn = getattr(val, "cache_clear", None)
        if callable(fn):
            fn()
            return
        if named and not isinstance(val, type) and callable(getattr(val, "clear", None)):
            val.clear()
            return
        val = getattr(val, "__wrapped__", None)


def clear_caches():
    """Empty permspec's caches: module and class attributes named *cache*,
    and functools caches (anything with cache_clear)."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "permspec" or modname.startswith("permspec.")):
            continue
        holders = [vars(mod)] + [
            vars(v) for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        for ns in holders:
            for attr, val in list(ns.items()):
                _clear(val, "cache" in attr.lower())


def run_round(ops, tracer, index):
    results, failures, timings = {}, [], {}
    first_span = len(tracer.start) if tracer else 0
    t_round = time.perf_counter()
    probes = [ref_probe()]
    for k, op in enumerate(ops):
        if tracer:
            tracer.op = index * len(ops) + k
        t0 = time.perf_counter()
        try:
            out, err = op.fn(), None
        except Exception as e:  # an operation that fails is counted, not fatal
            out, err = None, f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        if tracer:
            tracer.op = -1
        probes.append(ref_probe())
        timings[op.name] = [t1 - t0] + probes[-2:]
        results[op.name] = out
        if err is not None:
            failures.append([op.name, err])
    wall = sum(t[0] for t in timings.values())
    ref = sum(w * (a + b) / 2 for w, a, b in timings.values()) / wall
    return {
        "wall_s": wall,
        "run_s": wall * NOMINAL_REF_S / ref,
        "elapsed_s": time.perf_counter() - t_round,
        "results": results,
        "timings": timings,
        "failures": failures,
        "layers": tracer.round_metrics(first_span) if tracer else None,
    }


def digest(results):
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        wall, scaled, inp = timed_setup(args.workload, args.seed)
        if args.setup_probe:
            print(repr(wall), repr(scaled))
            return 0
        setups = [(wall, scaled)] + [
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
    except (SetupError, ImportError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, inp)
    exp = workloads.expected(args.workload, inp)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()

    rounds = []
    t_start = time.perf_counter()
    while True:
        clear_caches()
        gc.collect()
        rounds.append(run_round(ops, tracer, len(rounds)))
        longest = max(r["elapsed_s"] for r in rounds)
        if time.perf_counter() - t_start + longest > args.seconds:
            break

    errors = checks.CHECKS[args.workload](inp, exp, rounds[0]["results"])
    digests = [digest(r["results"]) for r in rounds]
    if len(set(digests)) != 1:
        errors.append(f"rounds gave different results: {digests}")
    expected_fail = {op.name for op in ops if op.expect_fail}
    failures = [f for r in rounds for f in r["failures"]]
    unexpected = [f for f in failures if f[0] not in expected_fail]

    if args.trace:
        medians = spans.median_metrics([r["layers"] for r in rounds])
        metrics = {name: {"value": medians[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "run_wall_s": statistics.median(r["wall_s"] for r in rounds),
        "round_run_s": [r["run_s"] for r in rounds],
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_wall_s": [w for w, _ in setups],
        "setup_s": [s for _, s in setups],
        "digest": digests[0],
        "errors": errors,
        "failures": sorted({tuple(f) for f in failures}),
        "unexpected_failures": sorted({tuple(f) for f in unexpected}),
    }
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(rounds),
        "failed": len(failures),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        # per operation and round: [wall s, reference loop s before, after]
        timings = {op.name: [r["timings"][op.name] for r in rounds] for op in ops}
        json.dump({"result": result, "detail": detail, "timings": timings}, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.tsv.gz")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
