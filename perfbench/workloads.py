"""The four workloads: inputs made from a seed, one pass of operations, checks.

A pass is a fixed list of operations; every run repeats whole passes, so
the share of failed operations is the same in every run.  Only the call
into cubespec (or the `cubespec` child process) is timed; checks run
between the timed calls.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import cubespec as cs
import cubespec.cli
import reference as ref

FAILED = object()

#: Seconds after which a child interpreter is killed; far above any pass.
CHILD_TIMEOUT = 150


def run_child(argv: list, root: Path) -> tuple[int, str, str]:
    """Run a child interpreter to its end and return (exit code, stdout, stderr).

    The timeout is a watchdog thread, not the `timeout=` argument of
    `subprocess`, which waits by polling and so rounds the child's measured
    time up to its polling interval.
    """
    proc = subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def child_env(root: Path) -> dict:
    """This process's environment with the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Ledger:
    """Operations attempted and failed, and the calls, time and work of the
    successful ones per operation class."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: Counter = Counter()
        self.calls: Counter = Counter()
        self.time: Counter = Counter()
        self.work: Counter = Counter()

    def call(self, klass: str, work: float, label: str, fn):
        """Time fn(); a raised exception counts the operation as failed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.span("op." + klass, label=label):
                    out = fn()
        except Exception as exc:  # one failing operation must not end the run
            self.failures[f"{label}: {type(exc).__name__}: {exc}"] += 1
            return FAILED
        self.time[klass] += perf_counter() - t0
        self.calls[klass] += 1
        self.work[klass] += work
        return out

    def total_time(self) -> float:
        return math.fsum(self.time.values())

    def rate(self, classes, by: str) -> float:
        amount = self.work if by == "work" else self.calls
        t = math.fsum(self.time[c] for c in classes)
        return sum(amount[c] for c in classes) / t if t > 0 else 0.0

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failures": dict(self.failures),
                "calls": dict(self.calls), "time": dict(self.time), "work": dict(self.work)}

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        for field in ("failures", "calls", "time", "work"):
            getattr(self, field).update(other[field])


class Workload:
    name = ""
    #: run every pass in a fresh interpreter, so no pass can reuse results
    #: that the library cached in an earlier one
    fresh_process = False
    #: the measured work runs in child processes, so peak memory is theirs
    work_in_children = False
    #: (reported name, unit, operation classes, "work" or "calls") for the
    #: primary_per_s and secondary_per_s end-to-end metrics
    rates: tuple = ()

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(seed)

    def warm(self) -> None:
        """Run each kind of operation once at a small size."""

    def trace_prelude(self, tracer) -> None:
        """Extra spans a traced run records before its passes."""

    def run_pass(self, ledger: Ledger, check: ref.Checker, pass_id: int, in_process: bool) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------- tables

TABLE_NS = (12, 14, 16, 18, 20, 22)
#: Each n below 18 repeats until it has built this many points, so the
#: cache-resident sizes carry weight in the points-per-second rate.
BUCKET_POINTS = 1 << 18
FAMILIES = ("real", "complex", "neeman")
CHECK_BLOCK = 1 << 16


class Tables(Workload):
    name = "tables"
    rates = (
        ("table_points_per_s", "points/s", ("table.real", "table.complex", "table.neeman"), "work"),
        ("complex_points_per_s", "points/s", ("table.complex",), "work"),
    )

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        u = self.rng.uniform
        self.weights = {
            (fam, n): [u(0.2, 1.0) for _ in range(n)] for fam in ("real", "complex") for n in TABLE_NS
        }
        self.clamp = {n: u(1.5, 3.0) for n in TABLE_NS}
        self.params = {k: cs.ParamSeq(np.array(w)) for k, w in self.weights.items()}
        self.expected = {}
        for n in TABLE_NS:
            for fam in ("real", "complex"):
                runs = ref.runs_of(self.weights[fam, n])
                self.expected[fam, n] = (ref.unit_norm_influence(runs), ref.unit_norm_entropy(runs))
            self.expected["neeman", n] = ref.clamped_sum(n, self.clamp[n])

    def _op(self, fam: str, n: int):
        def build_and_stats():
            # builders are looked up at call time, so a traced pass sees them
            if fam == "neeman":
                f = cs.neeman_function(n, self.clamp[n])
            elif fam == "real":
                f = cs.normalized_real(self.params[fam, n])
            else:
                f = cs.unimodular_complex(self.params[fam, n])
            return f, cs.stats(f)
        return build_and_stats

    def warm(self):
        p = cs.ParamSeq(np.full(8, 0.5))
        for f in (cs.normalized_real(p), cs.unimodular_complex(p), cs.neeman_function(8, 2.0)):
            cs.stats(f)

    def run_pass(self, ledger, check, pass_id, in_process):
        for n in TABLE_NS:
            for _ in range(max(1, BUCKET_POINTS >> n)):
                for fam in FAMILIES:
                    out = ledger.call(f"table.{fam}", 1 << n, f"{fam} n={n}", self._op(fam, n))
                    if out is not FAILED:
                        self._check(fam, n, *out, check)
                    del out  # the next build must not find this table still alive

    def _check(self, fam, n, f, st, check):
        where = f"{fam} n={n}"
        check.near(f"{where} l2 norm", st.l2_norm, 1.0)
        check.near(f"{where} Parseval mass", st.total_weight, 1.0)
        if fam == "neeman":
            exp = self.expected[fam, n]
            check.rel(f"{where} influence (Hamming levels)", st.influence, exp["influence"])
            check.at_most(f"{where} sup norm", st.linf_norm, exp["linf"] + ref.ABS_TOL)
            check.true(f"{where} entropy in (0, n]", 0.0 < st.entropy <= n)
            return
        infl, ent = self.expected[fam, n]
        check.rel(f"{where} influence", st.influence, infl)
        check.rel(f"{where} entropy", st.entropy, ent)
        if fam == "real":
            check.at_most(f"{where} sup norm", st.linf_norm, ref.SQRT2 + ref.ABS_TOL)
        else:
            # in blocks, so the check adds no table-sized temporaries to peak memory
            v = f.values
            dev = max(float(np.max(np.abs(np.abs(v[i:i + CHECK_BLOCK]) - 1.0)))
                      for i in range(0, v.size, CHECK_BLOCK))
            check.at_most(f"{where} modulus deviation", dev, ref.ABS_TOL)


# -------------------------------------------------------------------- certify

CERT_NS = (12, 14, 16, 18)
CERT_KINDS = ("theorem1", "theorem2", "remark2", "classical_rs", "neeman")
TOP_N = 20  # theorem1 and theorem2 also run here, sharing one oracle result
CAMPAIGN_N = 14
CAMPAIGN_TRIALS = 32


class Certify(Workload):
    name = "certify"
    fresh_process = True
    work_in_children = True
    rates = (
        ("certs_per_s", "certs/s", ("cert",), "work"),
        ("oracle_trials_per_s", "trials/s", ("campaign",), "work"),
    )

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.grid = [(kind, n) for n in CERT_NS for kind in CERT_KINDS]
        self.grid += [("remark3", 16), ("theorem1", TOP_N), ("theorem2", TOP_N)]

    def campaign_seed(self, pass_id: int) -> int:
        # a fresh weight draw every pass, so the oracle memo never helps it
        return random.Random(f"{self.seed}/{pass_id}").getrandbits(32)

    def _cert(self, kind: str, n: int):
        if kind == "remark3":
            return cs.certify_remark3(n, 4.0)
        return getattr(cs, f"certify_{kind}")(n)

    def warm(self):
        for kind in CERT_KINDS:
            self._cert(kind, 6)
        cs.oracle_campaign(6, trials=2, seed=1)

    def run_pass(self, ledger, check, pass_id, in_process):
        for kind, n in self.grid:
            cert = ledger.call("cert", 1, f"certify_{kind} n={n}", lambda: self._cert(kind, n))
            if cert is not FAILED:
                self._check_cert(kind, n, cert, check)
        seed = self.campaign_seed(pass_id)
        rep = ledger.call(
            "campaign", CAMPAIGN_TRIALS, f"oracle_campaign n={CAMPAIGN_N}",
            lambda: cs.oracle_campaign(CAMPAIGN_N, trials=CAMPAIGN_TRIALS, seed=seed),
        )
        if rep is not FAILED:
            check.true(f"campaign trials {rep.trials}", rep.trials == CAMPAIGN_TRIALS)
            for field in ("err_constancy", "err_l2", "err_linf_bracket",
                          "err_coefficients", "err_influence", "err_entropy"):
                check.at_most(f"campaign seed={seed} {field}", getattr(rep, field), ref.REL_TOL)

    def _check_cert(self, kind, n, cert, check):
        where = f"certify_{kind} n={n}"
        check.true(f"{where} overall", cert.overall is True)
        for c in cert.checks:
            check.true(f"{where} {c.name} margin {c.margin!r} > 0", c.margin > 0)
        by_name = {c.name: c for c in cert.checks}

        def lhs(name, target, rel=True):
            c = by_name.get(name)
            if c is None:
                check.fail(f"{where}: no check named {name}")
            elif rel:
                check.rel(f"{where} {name}", c.lhs, target)
            else:
                check.near(f"{where} {name}", c.lhs, target)

        theorem = ref.constant_runs(n, ref.theorem_weight(n))
        if kind in ("theorem1", "theorem2"):
            lhs("influence_equals_target", n / (n + 1.0))
            lhs("entropy_above_bound", ref.unit_norm_entropy(theorem))
            check.rel(f"{where} entropy bound", by_name["entropy_above_bound"].rhs,
                      (n / (n + 1.0)) * math.log2(n))
        elif kind == "remark2":
            lhs("influence_gains_l2_sq", n / (n + 1.0) + 1.0)
            lhs("entropy_preserved", ref.unit_norm_entropy(theorem))
        elif kind == "classical_rs":
            lhs("normalized_influence_half_n", n / 2.0)
            lhs("normalized_entropy_n", float(n))
        elif kind == "neeman":
            lhs("l2_norm_unit", 1.0, rel=False)
            lhs("influence_above_band_low", ref.clamped_sum(n, 2.0)["influence"])
        elif kind == "remark3":
            runs = ref.constant_runs(n, ref.remark3_weight(n, 4.0))
            for label in ("real", "complex"):
                lhs(f"{label}_influence_below_scale", ref.unit_norm_influence(runs))
                lhs(f"{label}_entropy_above_bound", ref.unit_norm_entropy(runs))


# ----------------------------------------------------------------------- anyn

SWEEP_NS = (16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1_000_000)
BIG_NS = (1 << 20, 1_000_000)  # certify_remark3 above the table cap
SPOT_N, SPOT_SAMPLES = 30, 2000
#: Fails today: the sampler draws point indices below 2^n in uint64.  Its
#: inputs are fixed, so it fails once in every pass whatever the seed.
WIDE_SPOT_N, WIDE_SPOT_SAMPLES = 1000, 200


class AnyN(Workload):
    name = "anyn"
    rates = (
        ("cf_coords_per_s", "coords/s", ("cf",), "work"),
        ("eval_steps_per_s", "steps/s", ("spot",), "work"),
    )

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.scales = [self.rng.uniform(1.5, 12.0) for _ in range(3)]
        self.spot_seed = self.rng.getrandbits(32)
        self._expected = {}

    def expected(self, n, a):
        key = (n, a)
        if key not in self._expected:
            runs = ref.constant_runs(n, ref.remark3_weight(n, a))
            self._expected[key] = {
                "influence": ref.unit_norm_influence(runs),
                "entropy": ref.unit_norm_entropy(runs),
                "bound": ref.entropy_lower_bound(runs),
                "raw": ref.raw_pair(runs),
            }
        return self._expected[key]

    def warm(self):
        cs.normalized_closed_form(cs.remark3_params(16, 4.0))
        cs.closed_form(cs.remark3_params(16, 4.0))
        cs.certify_remark3(64, 4.0)
        cs.modulus_spotcheck(cs.remark3_params(SPOT_N, 4.0), samples=4, seed=1)

    def run_pass(self, ledger, check, pass_id, in_process):
        for n in SWEEP_NS:
            for a in self.scales:
                ncf = ledger.call("cf", n, f"sweep n={n}",
                                  lambda: cs.normalized_closed_form(cs.remark3_params(n, a)))
                if ncf is not FAILED:
                    exp = self.expected(n, a)
                    check.rel(f"sweep n={n} a={a} influence", ncf.influence, exp["influence"])
                    check.rel(f"sweep n={n} a={a} entropy", ncf.entropy, exp["entropy"])
                    check.rel(f"sweep n={n} a={a} bound", ncf.entropy_lower_bound, exp["bound"])
        n, a = SWEEP_NS[-1], self.scales[0]
        cf = ledger.call("cf", n, f"closed_form n={n}", lambda: cs.closed_form(cs.remark3_params(n, a)))
        if cf is not FAILED:
            raw = self.expected(n, a)["raw"]
            for field in ("l2_norm", "influence", "entropy", "total_mass"):
                check.rel(f"closed_form n={n} {field}", getattr(cf, field), raw[field])
        for n, a in zip(BIG_NS, self.scales[1:]):
            cert = ledger.call("cf", n, f"certify_remark3 n={n}", lambda: cs.certify_remark3(n, a))
            if cert is not FAILED:
                check.true(f"certify_remark3 n={n} overall", cert.overall is True)
                for c in cert.checks:
                    check.true(f"certify_remark3 n={n} {c.name} margin {c.margin!r} > 0", c.margin > 0)
                infl = [c.lhs for c in cert.checks if c.name == "cf_influence_below_scale"]
                check.true(f"certify_remark3 n={n} has cf_influence_below_scale", len(infl) == 1)
                for value in infl:
                    check.rel(f"certify_remark3 n={n} influence", value, self.expected(n, a)["influence"])
        for n, a, samples, kw in ((SPOT_N, self.scales[0], SPOT_SAMPLES, {"seed": self.spot_seed}),
                                  (WIDE_SPOT_N, 4.0, WIDE_SPOT_SAMPLES, {})):
            dev = ledger.call("spot", samples * n, f"modulus_spotcheck n={n}",
                              lambda: cs.modulus_spotcheck(cs.remark3_params(n, a), samples=samples, **kw))
            if dev is not FAILED:
                check.at_most(f"modulus_spotcheck n={n}", dev, ref.ABS_TOL)


# ------------------------------------------------------------------------ cli


class Cli(Workload):
    name = "cli"
    work_in_children = True
    rates = (
        ("cli_cmds_per_s", "cmds/s", ("cmd.file", "cmd.other"), "calls"),
        ("file_points_per_s", "points/s", ("cmd.file",), "work"),
    )
    REAL_N, COMPLEX_N = 16, 15

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.weight = self.rng.uniform(0.3, 0.95)
        self.scales = sorted(self.rng.uniform(1.5, 12.0) for _ in range(2))
        w = repr(self.weight)
        real, cplx = str(workdir / "real.txt"), str(workdir / "complex.txt")
        self.files = {"real": real, "complex": cplx}
        self.commands = [
            ("file", 1 << self.REAL_N,
             ["gen", "--n", str(self.REAL_N), "--kind", "real", "--a", f"constant:{w}", "--out", real]),
            ("file", 1 << self.COMPLEX_N,
             ["gen", "--n", str(self.COMPLEX_N), "--kind", "complex", "--a", f"constant:{w}", "--out", cplx]),
            ("file", 1 << self.REAL_N, ["stats", "--file", real, "--format", "json"]),
            ("file", 1 << self.COMPLEX_N, ["stats", "--file", cplx, "--format", "json"]),
            ("other", 1, ["verify", "--kind", "real", "--n", "10"]),
            ("other", 1, ["sweep", "--n", "16,1024,65536", "--a", ",".join(map(repr, self.scales)),
                          "--format", "csv"]),
            ("other", 1, ["neeman", "--n", "6,8,10", "--format", "csv"]),
        ]

    def warm(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._in_process(["sweep", "--n", "16", "--a", "4"])

    def trace_prelude(self, tracer):
        # a fresh interpreter plus `import cubespec`, the fixed cost every
        # command pays before its subcommand runs
        for _ in range(5):
            with tracer.span("cli.start"):
                rc, _, err = run_child([sys.executable, "-c", "import cubespec.cli"], self.root)
            if rc != 0:
                raise RuntimeError(f"import cubespec.cli failed: {err.strip()[-500:]}")

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cubespec.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def _child(self, argv):
        return run_child([sys.executable, "-m", "cubespec.cli", *argv], self.root)

    def run_pass(self, ledger, check, pass_id, in_process):
        run = self._in_process if in_process else self._child
        summaries = {}
        for klass, points, argv in self.commands:
            res = ledger.call(f"cmd.{klass}", points, " ".join(argv[:1] + argv[1:3]), lambda: run(argv))
            if res is FAILED:
                continue
            rc, out, err = res
            where = f"cubespec {' '.join(argv)}"
            if rc != 0:
                check.fail(f"{where}: exit code {rc}: {err.strip()[-300:]}")
                continue
            getattr(self, f"_check_{argv[0]}")(argv, out, check, where, summaries)

    def _expected(self, n):
        runs = ref.constant_runs(n, self.weight)
        return ref.unit_norm_influence(runs), ref.unit_norm_entropy(runs)

    def _check_gen(self, argv, out, check, where, summaries):
        kind, n = argv[4], int(argv[2])
        fields = dict(tok.split("=", 1) for tok in out.split()[1:])
        summaries[kind] = fields
        infl, ent = self._expected(n)
        check.rel(f"{where} influence", float(fields["influence"]), infl)
        check.rel(f"{where} entropy", float(fields["entropy"]), ent)
        with open(self.files[kind], encoding="ascii") as fh:
            header = fh.readline().split()
            rows = sum(1 for _ in fh)
        check.true(f"{where}: header {header}", header == [f"n={n}", f"kind={kind}"])
        check.true(f"{where}: {rows} value rows", rows == 1 << n)

    def _check_stats(self, argv, out, check, where, summaries):
        rec = json.loads(out)
        kind = "real" if argv[2] == self.files["real"] else "complex"
        n = self.REAL_N if kind == "real" else self.COMPLEX_N
        check.true(f"{where}: n={rec['n']} kind={rec['kind']}", rec["n"] == n and rec["kind"] == kind)
        check.near(f"{where} l2", rec["l2"], 1.0)
        if kind == "real":
            check.at_most(f"{where} linf", rec["linf"], ref.SQRT2 + ref.ABS_TOL)
        else:
            check.near(f"{where} linf (modulus one)", rec["linf"], 1.0)
        gen = summaries.get(kind)
        if gen is None:
            check.fail(f"{where}: no gen summary to compare with")
            return
        check.rel(f"{where} influence against gen", rec["influence"], float(gen["influence"]))
        check.rel(f"{where} entropy against gen", rec["entropy"], float(gen["entropy"]))

    def _check_verify(self, argv, out, check, where, summaries):
        n = int(argv[4])
        lines = out.splitlines()
        check.true(f"{where}: overall=true", "overall=true" in lines)
        margins = [float(tok[len("margin="):]) for line in lines if line.startswith("check ")
                   for tok in line.split() if tok.startswith("margin=")]
        check.true(f"{where}: {len(margins)} checks, all margins > 0",
                   len(margins) >= 5 and all(m > 0 for m in margins))
        infl = [line for line in lines if "name=influence_equals_target" in line]
        if infl:
            check.rel(f"{where} influence", float(infl[0].split()[2][len("lhs="):]), n / (n + 1.0))
        else:
            check.fail(f"{where}: no influence_equals_target check")

    def _check_sweep(self, argv, out, check, where, summaries):
        rows = out.strip().splitlines()[1:]
        check.true(f"{where}: {len(rows)} rows", len(rows) == 3 * len(self.scales))
        for row in rows:
            n, a, infl, ent, bound, ratio = row.split(",")
            n, a = int(n), float(a)
            runs = ref.constant_runs(n, ref.remark3_weight(n, a))
            exp_i, exp_h = ref.unit_norm_influence(runs), ref.unit_norm_entropy(runs)
            check.rel(f"{where} n={n} a={a} influence", float(infl), exp_i)
            check.rel(f"{where} n={n} a={a} entropy", float(ent), exp_h)
            check.rel(f"{where} n={n} a={a} bound", float(bound), ref.entropy_lower_bound(runs))
            check.rel(f"{where} n={n} a={a} ratio", float(ratio), exp_h / exp_i)

    def _check_neeman(self, argv, out, check, where, summaries):
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        check.true(f"{where}: {len(rows)} rows", len(rows) == 3)
        entropies = []
        for n, clamp, infl, ent in rows:
            n, clamp = int(n), float(clamp)
            check.rel(f"{where} n={n} influence", float(infl), ref.clamped_sum(n, clamp)["influence"])
            entropies.append(float(ent))
        check.true(f"{where}: entropy strictly increasing",
                   all(b > a for a, b in zip(entropies, entropies[1:])))


WORKLOADS = {w.name: w for w in (Tables, Certify, AnyN, Cli)}
