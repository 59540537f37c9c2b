"""Re-measure the single-call reference figures quoted in README.md.

Run from the root of a source checkout:

    python3 perfbench/figures.py

Each figure is the median of a few calls; cold figures (the first
certificate of a process, interpreter start) get a fresh interpreter per
call.  Prints one line per figure.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPS = 3


def wall(argv: list) -> float:
    from workloads import run_child

    t0 = time.perf_counter()
    rc, _, err = run_child(argv, ROOT)
    if rc != 0:
        raise RuntimeError(err)
    return time.perf_counter() - t0


def child_seconds(code: str) -> float:
    """Run code in a fresh interpreter; it prints a duration, which we return."""
    from workloads import run_child

    rc, out, err = run_child([sys.executable, "-c", code], ROOT)
    if rc != 0:
        raise RuntimeError(err)
    return float(out.split()[-1])


def median_call(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    import run

    run.load_program()
    import cubespec as cs

    p20, p22 = cs.theorem_params(20), cs.theorem_params(22)
    f20, f22 = cs.normalized_real(p20), cs.normalized_real(p22)
    big = cs.remark3_params(10**6, 4.0)
    cold = ("import time, cubespec as cs; t = time.perf_counter(); {}; "
            "print(time.perf_counter() - t)")
    figures = [
        ("stats n=20", median_call(lambda: cs.stats(f20))),
        ("stats n=22", median_call(lambda: cs.stats(f22))),
        ("walsh_transform n=22", median_call(lambda: cs.walsh_transform(f22))),
        ("certify_theorem1(20), cold",
         statistics.median(child_seconds(cold.format("cs.certify_theorem1(20)")) for _ in range(REPS))),
        ("oracle_compare(theorem_params(20)), cold",
         statistics.median(child_seconds(cold.format("cs.oracle_compare(cs.theorem_params(20))"))
                           for _ in range(REPS))),
        ("normalized_closed_form n=10^6", median_call(lambda: cs.normalized_closed_form(big))),
        ("cubespec sweep --n 16,64,256,1024 --a 4",
         statistics.median(wall([sys.executable, "-m", "cubespec.cli", "sweep", "--n", "16,64,256,1024",
                                 "--a", "4"]) for _ in range(REPS))),
        ("bare interpreter", statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(REPS))),
        ("interpreter + import numpy",
         statistics.median(wall([sys.executable, "-c", "import numpy"]) for _ in range(REPS))),
    ]
    for name, seconds in figures:
        print(f"{name}: {seconds * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
