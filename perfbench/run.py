"""Layered benchmark of cubespec: one workload per run, result as JSON.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 15 --trace 0

It uses the sources under src/ (never an installed cubespec) and exits
with code 2 when they are missing.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run (spans go to .perfbench_out/).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9
#: One thread for any BLAS or OpenMP pool, here and in every child
#: interpreter (they inherit the environment), so a run measures one core.
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("tables", "certify", "anyn", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe, or one pass of a fresh-process workload
    p.add_argument("--role", choices=("main", "setup", "pass"), default="main", help=argparse.SUPPRESS)
    p.add_argument("--pass-id", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import cubespec from this checkout's src/ with single-threaded pools."""
    src = ROOT / "src"
    if not (src / "cubespec" / "__init__.py").is_file():
        print(f"perfbench: no cubespec sources under {src}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    os.environ.update(SINGLE_THREAD)  # before numpy loads
    sys.path.insert(0, str(src))
    import cubespec  # noqa: F401
    import cubespec.cli  # noqa: F401


def self_argv(args, role, trace, pass_id=0):
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--role", role, "--pass-id", str(pass_id)]


def one_pass(wl, pass_id, traced, in_process):
    """Run one pass here; returns the ledger, check problems and spans."""
    import reference
    from spans import Tracer
    from workloads import Ledger

    tracer = Tracer(pass_id) if traced else None
    ledger = Ledger(tracer)
    check = reference.Checker()
    if tracer is None:
        wl.run_pass(ledger, check, pass_id, in_process)
    else:
        with tracer.installed(), tracer.span("pass"):
            wl.run_pass(ledger, check, pass_id, in_process)
    return {"ledger": ledger.to_json(), "problems": check.problems,
            "spans": tracer.spans if tracer else []}


def child_pass(args, pass_id, traced):
    """Run one pass in a fresh interpreter and read back its result."""
    from workloads import run_child

    rc, out, err = run_child(self_argv(args, "pass", int(traced), pass_id), ROOT)
    if rc != 0:
        raise RuntimeError(f"pass {pass_id} exited {rc}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import cubespec, make the
    workload's inputs and run its warm-up."""
    from workloads import run_child

    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rc, _, err = run_child(self_argv(args, "setup", 0), ROOT)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up exited {rc}: {err.strip()[-2000:]}")
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import cubespec

    try:
        l2 = int(subprocess.run(["getconf", "LEVEL2_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.SubprocessError):
        l2 = 0
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cubespec": getattr(cubespec, "__version__", "?"),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache_bytes_per_core": l2,
        "machine": platform.machine(),
    }


def peak_rss_mib(children: bool) -> float:
    """Peak resident set of this process, or of the largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
    try:
        if args.role == "setup":
            wl.warm()
            return 0
        if args.role == "pass":
            print(json.dumps(one_pass(wl, args.pass_id, bool(args.trace), False)))
            return 0
        return run(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, wl) -> int:
    import spans
    from workloads import Ledger

    tracing = bool(args.trace)
    setup_s = None if tracing else measure_setup(args)
    wl.warm()
    if tracing:
        prelude = spans.Tracer("prelude")
        wl.trace_prelude(prelude)
        all_spans = list(prelude.spans)
    else:
        all_spans = []
    ledger = Ledger()
    problems: list[str] = []
    pass_times = {False: [], True: []}
    t0 = time.monotonic()
    pass_id = 0
    # whole passes until the time is up; a traced run alternates untraced and
    # traced passes so that the two can be compared for the tracing overhead
    while pass_id < (2 if tracing else 1) or time.monotonic() - t0 < args.seconds:
        traced = tracing and pass_id % 2 == 1
        if wl.fresh_process:
            res = child_pass(args, pass_id, traced)
        else:
            res = one_pass(wl, pass_id, traced, in_process=tracing)
        pass_times[traced].append(sum(res["ledger"]["time"].values()))
        ledger.merge(res["ledger"])
        problems += res["problems"]
        all_spans += res["spans"]
        pass_id += 1
    elapsed = time.monotonic() - t0

    failed = sum(ledger.failures.values())
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {pass_id} passes in "
          f"{elapsed:.2f} s, {ledger.attempted} operations, {failed} failed")
    for what, count in sorted(ledger.failures.items()):
        print(f"  failed x{count}: {what}")
    for what in problems[:20]:
        print(f"  WRONG: {what}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more wrong outputs")

    if tracing:
        overhead = statistics.median(pass_times[True]) / statistics.median(pass_times[False]) - 1.0
        layer = spans.layer_metrics(all_spans, len(pass_times[True]), overhead)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS.items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="ascii") as fh:
            for s in sorted(all_spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")
        print(f"  {len(all_spans)} spans written to {path.relative_to(ROOT)}")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']!r} {m['unit']}")
        tr = layer["spectrum.transform_s.real"] + layer["spectrum.transform_s.complex"]
        if tr > 0:
            print(f"  FWHT per pass: {layer['spectrum.butterflies_computed']:.0f} butterflies and "
                  f"{layer['spectrum.transform_bytes_computed']:.0f} bytes (computed) in {tr:.4f} s: "
                  f"{layer['spectrum.butterflies_computed'] / tr:.4g} butterflies/s, "
                  f"{layer['spectrum.transform_bytes_computed'] / tr:.4g} B/s")
    else:
        (name1, unit1, classes1, by1), (name2, unit2, classes2, by2) = wl.rates
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(wl.work_in_children), "unit": "MiB"},
            "primary_per_s": {"value": ledger.rate(classes1, by1), "unit": "units/s"},
            "secondary_per_s": {"value": ledger.rate(classes2, by2), "unit": "units/s"},
        }
        print(f"  primary_per_s = {name1} = {metrics['primary_per_s']['value']!r} {unit1}")
        print(f"  secondary_per_s = {name2} = {metrics['secondary_per_s']['value']!r} {unit2}")
        for name in ("setup_s", "peak_rss_mib"):
            print(f"  {name} = {metrics[name]['value']!r} {metrics[name]['unit']}")
    print(json.dumps({"correct": not problems, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
