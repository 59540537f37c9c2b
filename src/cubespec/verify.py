"""Brute-force oracle and certification of the counterexample claims.

Certificates re-derive every claimed inequality from raw value tables
(2^n enumeration plus the transform), never from the closed forms being
certified.  Before a certificate is issued, the closed forms themselves
are gated against the enumeration oracle and the maximum relative
discrepancy is recorded as the certificate's first check.

The oracle builds its tables in extended precision (np.longdouble) so
that per-mask coefficient comparisons stay meaningful: the smallest
squared coefficient of a pair with weights a_i is prod a_i^2, which for
small weights sits many orders below the double-precision noise floor
of a 2^n transform.  Extended precision is an oracle-side measure only;
the library under test stays in double precision.  `oracle_compare`
is the one entry point to the enumeration; it caches the six error
figures per weight vector and table cap (least recently used, at most
256 entries), so certificates that share weights enumerate them once.

Margins are reported for every check, pass or fail: for strict
inequalities the margin is the distance to the threshold (positive
means pass); for approximate equalities it is tolerance minus observed
error.  Strict claims get no epsilon forgiveness.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .construct import (
    ParamSeq,
    clamped_sum_l2_norm,
    evaluate_many,
    neeman_function,
    normalized_closed_form,
    normalized_real,
    remark3_params,
    subset_products,
    theorem_params,
    unimodular_complex,
    _pq_tables,
    _unit_modulus_factor,
)
from .errors import ParameterError
from .spectrum import (
    DEFAULT_TABLE_CAP,
    _BLOCK,
    _norm_sums,
    _spectral_sums,
    check_table_dim,
    fwht_inplace,
    lift_zero_mean,
    stats,
)

SQRT2 = math.sqrt(2.0)

CERTIFICATE_KINDS = ("theorem1", "theorem2", "remark2", "remark3", "classical_rs", "neeman")

#: Influence band of the clamp=2 family, pinned from this repo's first
#: oracle run over n in [5, 22]: brute-force values ranged over
#: [1.00557, 1.02882] there, and the inactive-clamp limit is exactly 1.
#: The band includes 1.0 so degenerate rows pass too.  Checked only for
#: clamp == 2.
NEEMAN_INFLUENCE_BAND = (0.99, 1.04)
NEEMAN_BAND_RANGE = (5, 22)


@dataclass(frozen=True)
class Check:
    name: str
    lhs: float
    relation: str  # '<', '>', '<=', '>=', '~abs', '~rel'
    rhs: float
    margin: float
    passed: bool


def check_lt(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), "<", float(rhs), float(rhs - lhs), lhs < rhs)


def check_gt(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), ">", float(rhs), float(lhs - rhs), lhs > rhs)


def check_le(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), "<=", float(rhs), float(rhs - lhs), lhs <= rhs)


def check_ge(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), ">=", float(rhs), float(lhs - rhs), lhs >= rhs)


def check_abs(name: str, lhs: float, target: float, tol: float) -> Check:
    """|lhs - target| <= tol; margin is tol minus the observed error."""
    err = abs(lhs - target)
    return Check(name, float(lhs), "~abs", float(target), float(tol - err), err <= tol)


def check_rel(name: str, lhs: float, target: float, tol: float) -> Check:
    """|lhs - target| <= tol * |target|; margin is tol minus the relative error."""
    err = abs(lhs - target) / max(abs(target), 1e-300)
    return Check(name, float(lhs), "~rel", float(target), float(tol - err), err <= tol)


@dataclass(frozen=True)
class Certificate:
    kind: str
    n: int
    inputs: dict
    checks: tuple[Check, ...]
    overall: bool
    log_base: int = 2  # entropy and bounds use base-2 logs throughout

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "log_base": self.log_base,
            "inputs": dict(self.inputs),
            "checks": [
                {
                    "name": c.name,
                    "lhs": c.lhs,
                    "relation": c.relation,
                    "rhs": c.rhs,
                    "margin": c.margin,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_text(self) -> str:
        lines = [f"certificate kind={self.kind} n={self.n} log_base={self.log_base}"]
        for k, v in self.inputs.items():
            lines.append(f"input {k}={v}")
        for c in self.checks:
            lines.append(
                f"check name={c.name} lhs={c.lhs!r} relation={c.relation} "
                f"rhs={c.rhs!r} margin={c.margin!r} pass={str(c.passed).lower()}"
            )
        lines.append(f"overall={str(self.overall).lower()}")
        return "\n".join(lines)


def make_certificate(kind: str, n: int, inputs: dict, checks: Iterable[Check]) -> Certificate:
    if kind not in CERTIFICATE_KINDS:
        raise ParameterError(f"unknown certificate kind {kind!r}")
    checks = tuple(checks)
    return Certificate(kind, n, dict(inputs), checks, all(c.passed for c in checks))


@dataclass(frozen=True)
class OracleReport:
    """Max relative discrepancies, closed forms vs direct enumeration.

    The entropy error is measured relative to max(|target|, Parseval
    mass): near the degenerate all-weights-one corner the true entropy
    is ~0 and a plain relative error would divide by it.
    """

    trials: int
    seed: int | None
    err_constancy: float      # pointwise |P|^2+|Q|^2 against 2 prod(1+a_i^2)
    err_l2: float
    err_linf_bracket: float   # relative overshoot outside [L, sqrt(2) L]
    err_coefficients: float   # per-mask squared coefficient vs subset product
    err_influence: float
    err_entropy: float

    def errors(self) -> tuple[float, ...]:
        """The six error figures, in field order."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name.startswith("err_"))

    def max_error(self) -> float:
        return max(self.errors())

    def passed(self, tol: float) -> bool:
        return self.max_error() < tol


def _max_deviation(p: np.ndarray, q: np.ndarray, target) -> np.floating:
    """max |p*p + q*q - target| (pointwise constancy), one block at a time."""
    block = min(p.size, _BLOCK)
    scratch = np.empty((2, block), dtype=p.dtype)
    peaks = []
    for lo in range(0, p.size, block):
        s = np.multiply(p[lo : lo + block], p[lo : lo + block], out=scratch[0])
        np.add(s, np.multiply(q[lo : lo + block], q[lo : lo + block], out=scratch[1]), out=s)
        np.subtract(s, target, out=s)
        peaks.append(np.max(np.abs(s, out=s)))
    return np.max(peaks)


@functools.lru_cache(maxsize=256)
def _oracle_errors(a_bytes: bytes, max_table_n: int | None, per_mask: bool) -> tuple[float, ...]:
    # Whole-table figures taken block by block (spectrum._norm_sums and
    # _spectral_sums) keep the bits of the whole-array expressions; p and q
    # are transformed in place once their norms are taken, so the tables held
    # are p, q and, for the per-mask figure (0.0 without per_mask), the products.
    ld = np.longdouble
    a64 = np.frombuffer(a_bytes)
    n = a64.size
    check_table_dim(n, max_table_n)
    a = a64.astype(ld)
    a2 = a * a
    one_plus = 1.0 + a2
    big_l = ld(np.prod(one_plus))

    p, q = _pq_tables(a64, dtype=ld)
    target_const = 2.0 * big_l
    err_const = float(_max_deviation(p, q, target_const) / target_const)

    # independent closed-form targets, linear domain (no log/exp route)
    others = np.array([np.prod(np.delete(one_plus, i)) for i in range(n)], dtype=ld)
    target_l2 = np.sqrt(big_l)
    target_infl = ld(np.sum(a2 * others))
    log2_a2 = np.log2(a2)
    target_ent = ld(-np.sum(others * a2 * log2_a2))

    prod_table = subset_products(a2, dtype=ld) if per_mask else None
    size_ld = ld(1 << n)
    w = np.empty(min(1 << n, _BLOCK), dtype=ld)

    worst = (0.0,) * 5
    for table in (p, q):
        l2_sq, linf = _norm_sums(table)
        l2 = np.sqrt(l2_sq / size_ld)
        fwht_inplace(table)
        coeff_peaks = []

        def weights(lo, hi):
            # coefficients on the expectation scale, squared; then the
            # per-mask error |w - prod| / prod in the spent block
            c = table[lo:hi]
            c /= size_ld
            sq = np.multiply(c, c, out=w[: c.size])
            if per_mask:
                np.subtract(sq, prod_table[lo:hi], out=c)
                np.abs(c, out=c)
                np.divide(c, prod_table[lo:hi], out=c)
                coeff_peaks.append(np.max(c))
            return sq

        infl, _, ent = _spectral_sums(n, weights, table)
        lo, hi = target_l2, SQRT2 * target_l2
        errs = (
            abs(l2 - target_l2) / target_l2,
            max((lo - linf) / lo, (linf - hi) / hi, ld(0.0)),
            np.max(coeff_peaks) if per_mask else 0.0,
            abs(infl - target_infl) / max(abs(target_infl), ld(1e-300)),
            abs(ent - target_ent) / max(abs(target_ent), big_l),
        )
        worst = tuple(map(max, worst, map(float, errs)))
    return (err_const, *worst)


def oracle_compare(params: ParamSeq, *, max_table_n: int | None = None) -> OracleReport:
    """Re-derive every closed-form quantity by enumeration; report max errors."""
    return OracleReport(1, None, *_oracle_errors(params.a.tobytes(), max_table_n, True))


def oracle_campaign(
    n: int,
    trials: int = 100,
    seed: int = 12345,
    max_table_n: int | None = None,
    low: float = 0.05,
) -> OracleReport:
    """Aggregate oracle_compare over seeded random weight draws.

    Weights are uniform on (low, 1]; very small a_i are legal but their
    coefficients sink below any enumeration's precision, so the draw
    floor keeps the comparison informative.
    """
    if n < 0:
        raise ParameterError(f"dimension must be >= 0, got {n}")
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if not 0.0 <= low <= 1.0:
        raise ParameterError(f"low must lie in [0, 1], got {low}")
    rng = np.random.default_rng(seed)
    worst = (0.0,) * 6
    for _ in range(trials):
        a = 1.0 - rng.uniform(0.0, 1.0 - low, size=n)
        rep = oracle_compare(ParamSeq(a), max_table_n=max_table_n)
        worst = tuple(map(max, worst, rep.errors()))
    return OracleReport(trials, seed, *worst)


def _entropy_bound(n: int) -> float:
    # (n/(n+1)) log2 n, the strict lower bound both unit-norm families beat
    return (n / (n + 1.0)) * math.log2(n) if n >= 1 else 0.0


#: Largest n at which the per-mask coefficient comparison still resolves:
#: the smallest squared coefficient shrinks like prod a_i^2 while the
#: enumeration noise does not, and measured discrepancies cross 1e-12
#: between n = 14 and n = 17 even in extended precision.  Above this the
#: certificate gate drops that one field; aggregate quantities (norms,
#: constancy, influence, entropy) stay gated at every n.  A float64
#: longdouble needs 12 (1.5e-9 at n = 14, simulated; never run there).
COEFF_GATE_MAX_N = 14 if np.finfo(np.longdouble).nmant >= 63 else 12


def _gate(params: ParamSeq, tol: float, max_table_n: int | None) -> Check:
    # above the cutoff the per-mask figure is 0.0, out of the maximum (the rest
    # are >= 0, or nan, which max() passes over unless it comes first); passed
    # positionally as oracle_compare does, so the two share one cache entry
    errors = _oracle_errors(params.a.tobytes(), max_table_n, params.n <= COEFF_GATE_MAX_N)
    return check_lt("closed_form_oracle_agreement", OracleReport(1, None, *errors).max_error(), tol)


def certify_theorem1(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Unit-norm real family: bounded by sqrt(2), influence below one,
    entropy above (n/(n+1)) log2 n."""
    params = theorem_params(n)
    gate = _gate(params, tol, max_table_n)
    f = normalized_real(params, max_table_n)
    st = stats(f, max_table_n)
    target_i = n / (n + 1.0)
    checks = [
        gate,
        check_abs("l2_norm_unit", st.l2_norm, 1.0, 1e-12),
        check_le("linf_at_most_sqrt2", st.linf_norm, SQRT2 + 1e-12),
        check_rel("influence_equals_target", st.influence, target_i, tol),
        check_lt("influence_below_one", st.influence, 1.0),
        check_gt("entropy_above_bound", st.entropy, _entropy_bound(n)),
    ]
    return make_certificate("theorem1", n, {"weights": "1/sqrt(n)", "tol": tol}, checks)


def certify_theorem2(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Modulus-one complex family: same influence/entropy split."""
    params = theorem_params(n)
    gate = _gate(params, tol, max_table_n)
    f = unimodular_complex(params, max_table_n)
    dev = float(np.max(np.abs(np.abs(f.values) - 1.0)))
    st = stats(f, max_table_n)
    checks = [
        gate,
        check_lt("modulus_deviation", dev, 1e-12),
        check_lt("influence_below_one", st.influence, 1.0),
        check_rel("influence_equals_target", st.influence, n / (n + 1.0), tol),
        check_gt("entropy_above_bound", st.entropy, _entropy_bound(n)),
    ]
    return make_certificate("theorem2", n, {"weights": "1/sqrt(n)", "tol": tol}, checks)


def certify_remark2(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Lifting by a fresh sign keeps norms and entropy, adds one to influence."""
    params = theorem_params(n)
    gate = _gate(params, tol, max_table_n)
    f = normalized_real(params, max_table_n)
    g = lift_zero_mean(f, max_table_n)
    sf = stats(f, max_table_n)
    sg = stats(g, max_table_n)
    mean_g = float(np.mean(g.values.real))
    checks = [
        gate,
        check_abs("l2_preserved", sg.l2_norm, sf.l2_norm, 1e-12),
        check_abs("linf_preserved", sg.linf_norm, sf.linf_norm, 1e-12),
        check_abs("entropy_preserved", sg.entropy, sf.entropy, 1e-12),
        check_rel("influence_gains_l2_sq", sg.influence, sf.influence + sf.l2_norm**2, tol),
        check_lt("lifted_influence_below_two", sg.influence, 2.0),
        check_abs("lifted_mean_zero", mean_g, 0.0, 1e-12),
    ]
    return make_certificate("remark2", n, {"weights": "1/sqrt(n)", "tol": tol}, checks)


def certify_remark3(n: int, a: float, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Scaled family sqrt(a/n): influence inside (a/2, a), entropy above
    (a/2)(log2 n - log2 a); closed forms for any n, enumeration when the
    table fits."""
    params = remark3_params(n, a)
    ncf = normalized_closed_form(params)
    bound = (a / 2.0) * (math.log2(n) - math.log2(a))
    checks = [
        check_gt("cf_influence_above_half_scale", ncf.influence, a / 2.0),
        check_lt("cf_influence_below_scale", ncf.influence, a),
        check_gt("cf_entropy_above_bound", ncf.entropy, bound),
    ]
    cap = DEFAULT_TABLE_CAP if max_table_n is None else max_table_n
    if n <= cap:
        checks.insert(0, _gate(params, tol, max_table_n))
        for label, fn in (("real", normalized_real), ("complex", unimodular_complex)):
            st = stats(fn(params, max_table_n), max_table_n)
            checks += [
                check_gt(f"{label}_influence_above_half_scale", st.influence, a / 2.0),
                check_lt(f"{label}_influence_below_scale", st.influence, a),
                check_gt(f"{label}_entropy_above_bound", st.entropy, bound),
                check_rel(f"{label}_influence_matches_closed_form", st.influence, ncf.influence, tol),
                check_rel(f"{label}_entropy_matches_closed_form", st.entropy, ncf.entropy, tol),
            ]
    return make_certificate(
        "remark3", n, {"weights": "sqrt(a/n)", "scale": a, "tol": tol}, checks
    )


def certify_classical_rs(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Weight-one case: every coefficient of the raw pair has magnitude
    one, and the unit-norm rescaling has influence n/2 and entropy n."""
    params = ParamSeq(np.ones(n))
    gate = _gate(params, tol, max_table_n)
    p = _pq_tables(params.a)[0]  # raw P alone; the gate has refused n above the cap
    l2_sq, linf = _norm_sums(p)
    l2 = math.sqrt(float(l2_sq) * math.ldexp(1.0, -n))
    np.multiply(fwht_inplace(p), math.ldexp(1.0, -n), out=p)  # walsh_transform's real plane
    coeff_dev = float(np.max(np.abs(np.subtract(np.abs(p, out=p), 1.0, out=p), out=p)))
    del p  # freed before the normalized table is built
    norm = stats(normalized_real(params, max_table_n), max_table_n)
    checks = [
        gate,
        check_le("coefficient_magnitude_deviation", coeff_dev, 1e-12),
        check_rel("l2_norm_target", l2, 2.0 ** (n / 2.0), 1e-12),
        check_le("linf_over_l2", float(linf) / l2, SQRT2 + 1e-12),
        check_rel("normalized_influence_half_n", norm.influence, n / 2.0, tol),
        check_rel("normalized_entropy_n", norm.entropy, float(n), tol),
    ]
    return make_certificate("classical_rs", n, {"weights": "1", "tol": tol}, checks)


def certify_neeman(
    n: int, clamp: float = 2.0, tol: float = 1e-9, max_table_n: int | None = None
) -> Certificate:
    """Clamped-sum family: unit norm, bounded values; degenerates to the
    plain normalized sum when the clamp never binds, otherwise held to
    the pinned influence band (clamp == 2 only)."""
    f = neeman_function(n, clamp, normalize=True, max_table_n=max_table_n)
    st = stats(f, max_table_n)
    raw_norm = clamped_sum_l2_norm(n, clamp)
    checks = [
        check_abs("l2_norm_unit", st.l2_norm, 1.0, 1e-12),
        check_le("linf_bound", st.linf_norm, clamp / raw_norm + 1e-12),
    ]
    if clamp >= math.sqrt(n):
        checks += [
            check_rel("influence_degenerates_to_one", st.influence, 1.0, tol),
            check_rel("entropy_degenerates_to_log_n", st.entropy, math.log2(n), tol),
        ]
    elif clamp == 2.0 and NEEMAN_BAND_RANGE[0] <= n <= NEEMAN_BAND_RANGE[1]:
        lo, hi = NEEMAN_INFLUENCE_BAND
        checks += [
            check_ge("influence_above_band_low", st.influence, lo),
            check_le("influence_below_band_high", st.influence, hi),
            check_gt("entropy_positive", st.entropy, 0.0),
        ]
    return make_certificate("neeman", n, {"clamp": clamp, "tol": tol}, checks)


@dataclass(frozen=True)
class NeemanReport:
    clamp: float
    rows: tuple[tuple[int, float, float], ...]  # (n, influence, entropy)
    entropy_increasing: bool
    band: tuple[float, float] | None
    influence_in_band: bool
    overall: bool


def neeman_regression(
    ns: Sequence[int], clamp: float = 2.0, max_table_n: int | None = None
) -> NeemanReport:
    """Brute-force (influence, entropy) per dimension for the clamped sum.

    Asserts entropy strictly increases along `ns` and, for clamp == 2,
    that influence stays inside the pinned band.
    """
    ns = list(ns)
    if not ns:
        raise ParameterError("need at least one dimension")
    rows = []
    for n in ns:
        st = stats(neeman_function(n, clamp, normalize=True, max_table_n=max_table_n), max_table_n)
        rows.append((n, st.influence, st.entropy))
    entropies = [r[2] for r in rows]
    increasing = all(b > a for a, b in zip(entropies, entropies[1:]))
    band = NEEMAN_INFLUENCE_BAND if clamp == 2.0 else None
    in_band = band is None or all(band[0] <= r[1] <= band[1] for r in rows)
    return NeemanReport(clamp, tuple(rows), increasing, band, in_band, increasing and in_band)


def modulus_spotcheck(params: ParamSeq, samples: int = 10_000, seed: int = 2024) -> float:
    """Max | |f| - 1 | of the modulus-one family over sampled points.

    Each sample point is n independent fair coordinate bits packed into
    a Python int (`random.Random(seed).getrandbits(n)`), so points are
    uniform on {-1,1}^n for every n, far past 64.  The draws go lazily
    through one evaluate_many call, so working memory is a few MiB at
    any n plus about 110 bytes per sample for the values and their
    deviations (1 MiB for the default 10 000 samples); the time is about
    samples * n steps of the doubling recursion (0.15 s for the default
    10 000 samples at n = 1000 on a 2-CPU x86-64 host).  This is the
    only modulus check available past the table cap.  The same integer
    seed gives the same points and result.  It is nan, with no point
    evaluated, where |P + iQ| = sqrt(2L) > 2^1023 (1 + log2 L > 2046).
    """
    if samples < 1:
        raise ParameterError(f"need at least one sample, got {samples}")
    factor = _unit_modulus_factor(params)
    if factor < 2.0**-1023:
        return math.nan
    p, q = evaluate_many(params, map(random.Random(seed).getrandbits, repeat(params.n, samples)))
    devs = (abs(math.hypot(pv, qv) * factor - 1.0) for pv, qv in zip(p.tolist(), q.tolist()))
    # a left fold from 0.0 in sample order: a NaN deviation never
    # replaces the running maximum, as in the one-sample-at-a-time loop
    return max(0.0, *devs)
