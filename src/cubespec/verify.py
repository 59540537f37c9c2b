"""Brute-force oracle and certification of the counterexample claims.

Certificates re-derive every claimed inequality from raw value tables
(2^n enumeration plus the transform), not from the closed forms being
certified, with one exception: certify_remark3's `cf_` checks read the
closed forms alone, and above the table cap they are its only checks.
Before a certificate is issued, the closed forms themselves are gated
against the enumeration oracle and the maximum relative discrepancy is
recorded as the certificate's first check.

The oracle enumerates in extended precision (np.longdouble) through a
rank-2 split of the pair: every value and coefficient is a sum of two
products of 2^(n/2)-entry half tables or their transforms, taken one
block at a time.  It holds no 2^n-entry table (under 3 MiB at n = 20),
and resolves each squared coefficient against prod a_i^2 up to
COEFF_GATE_MAX_N; the library under test stays in double precision.
`oracle_compare` is the one entry point; it caches the six error figures
per weight vector and table cap (least recently used, at most 256
entries), so certificates that share weights enumerate them once.

Margins are reported for every check, pass or fail: for strict
inequalities the margin is the distance to the threshold (positive
means pass); for approximate equalities it is tolerance minus observed
error.  Strict claims get no epsilon forgiveness.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import astuple, dataclass, fields, replace
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
from .errors import ParameterError, _clamp, _count, _float, _tolerance
from .spectrum import (
    ZERO_WEIGHT_CUTOFF,
    _BLOCK,
    _norm_sums,
    _pairwise_sum,
    _table_cap,
    check_table_dim,
    fwht_inplace,
    lift_zero_mean,
    popcounts,
    stats,
)

SQRT2 = math.sqrt(2.0)

CERTIFICATE_KINDS = ("theorem1", "theorem2", "remark2", "remark3", "classical_rs", "neeman")

#: Influence band of the clamp=2 family, pinned from this repo's first
#: oracle run over n in [5, 22] and measured again up to the table cap:
#: brute-force values range over [1.00557, 1.02981] for n in [5, 26], and
#: the inactive-clamp limit is exactly 1.  The band includes 1.0 so
#: degenerate rows pass too.  Checked only for clamp == 2, at every n.
NEEMAN_INFLUENCE_BAND = (0.99, 1.04)


@dataclass(frozen=True)
class Check:
    name: str
    lhs: float
    relation: str  # '<', '>', '<=', '>=', '~abs', '~rel'
    rhs: float
    margin: float
    passed: bool


def check_lt(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), "<", float(rhs), float(rhs - lhs), bool(lhs < rhs))


def check_gt(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), ">", float(rhs), float(lhs - rhs), bool(lhs > rhs))


def check_le(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), "<=", float(rhs), float(rhs - lhs), bool(lhs <= rhs))


def check_ge(name: str, lhs: float, rhs: float) -> Check:
    return Check(name, float(lhs), ">=", float(rhs), float(lhs - rhs), bool(lhs >= rhs))


def check_abs(name: str, lhs: float, target: float, tol: float) -> Check:
    """|lhs - target| <= tol; margin is tol minus the observed error."""
    err = abs(lhs - target)
    return Check(name, float(lhs), "~abs", float(target), float(tol - err), bool(err <= tol))


def check_rel(name: str, lhs: float, target: float, tol: float) -> Check:
    """|lhs - target| <= tol * |target|; margin is tol minus the relative error."""
    err = abs(lhs - target) / max(abs(target), 1e-300)
    return Check(name, float(lhs), "~rel", float(target), float(tol - err), bool(err <= tol))


_CHECK_KEYS = ("name", "lhs", "relation", "rhs", "margin", "pass")


def _cell(v):
    """One report value for text and csv: floats round-trip, booleans lower-case."""
    if isinstance(v, bool):
        return str(v).lower()
    return repr(float(v)) if isinstance(v, float) else v


def _kv(record: dict) -> str:
    return " ".join(f"{k}={_cell(v)}" for k, v in record.items())


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
            # Check's fields in order, `passed` written as "pass"
            "checks": [dict(zip(_CHECK_KEYS, astuple(c))) for c in self.checks],
            "overall": self.overall,
        }

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"certificate {_kv({k: d[k] for k in ('kind', 'n', 'log_base')})}"]
        lines += [f"input {_kv({k: v})}" for k, v in d["inputs"].items()]
        lines += [f"check {_kv(c)}" for c in d["checks"]]
        lines.append(_kv({"overall": d["overall"]}))
        return "\n".join(lines)


def make_certificate(kind: str, n: int, inputs: dict, checks: Iterable[Check]) -> Certificate:
    if kind not in CERTIFICATE_KINDS:
        raise ParameterError(f"unknown certificate kind {kind!r}")
    checks = tuple(checks)
    n = _count("dimension", n, 0)  # a Python int, so to_dict is JSON
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
        """The largest figure; nan if any figure is nan."""
        return float(np.max(self.errors()))

    def passed(self, tol: float) -> bool:
        return self.max_error() < tol


@functools.lru_cache(maxsize=256)
def _oracle_errors(a_bytes: bytes, max_table_n: int | None) -> tuple[float, ...]:
    # The doubling step is linear in (P, Q): with m ~ n / 2, (p, q) the pair
    # of a[:m] and (u1, v1), (u2, v2) that of a[m:] from (1, 0) and (0, 1),
    # P(xl + 2^m xh) = u1(xh) p(xl) + u2(xh) q(xl) and Q = v1 p + v2 q.  The
    # transform of a product over disjoint variables is the product of the
    # transforms: P^(A + 2^m B) = u1^(B) p^(A) + u2^(B) q^(A).  Both are
    # multiplied out one block of rows (xh or B) at a time, and block sums
    # recombine along np.sum's split.
    ld = np.longdouble
    a64 = np.frombuffer(a_bytes)
    n = a64.size
    check_table_dim(n, max_table_n)
    a2 = np.square(a64.astype(ld))
    one_plus = 1.0 + a2
    big_l = ld(np.prod(one_plus))

    # independent closed-form targets, linear domain (no log/exp route)
    others = np.array([np.prod(np.delete(one_plus, i)) for i in range(n)], dtype=ld)
    target_const = 2.0 * big_l
    target_l2 = np.sqrt(big_l)
    target_infl = ld(np.sum(a2 * others))
    target_ent = ld(-np.sum(others * a2 * np.log2(a2)))

    m = min(n // 2, _BLOCK.bit_length() - 1)  # a block holds whole rows
    low = _pq_tables(a64[:m], ld)
    (u1, v1), (u2, v2) = (_pq_tables(a64[m:], ld, start) for start in ((1.0, 0.0), (0.0, 1.0)))
    # normalized transforms of the half tables; then the (high-half pair,
    # low-half pair) of P, Q, P^ and Q^, and the per-mask targets
    low_hat, *high_hats = [[fwht_inplace(t.copy()) / ld(t.size) for t in pair]
                           for pair in (low, (u1, u2), (v1, v2))]
    factors = [((u1, u2), low), ((v1, v2), low), *((h, low_hat) for h in high_hats)]
    products = subset_products(a2[m:], dtype=ld), subset_products(a2[:m], dtype=ld)

    size = 1 << n
    block = min(size, _BLOCK)
    buf = np.empty((4, block), dtype=ld)
    grid = buf.reshape(4, block >> m, 1 << m)
    pc_low = popcounts(block.bit_length() - 1)
    peaks = []

    def leaf(lo, hi):
        rows = slice(lo >> m, hi >> m)

        def outer(k, x, y):  # x[rows] (x) y, into buf[k]
            return np.multiply(x[rows, None], y, out=grid[k]).reshape(-1)

        def mix(k, highs, lows):  # the sum of two outer products, into buf[k]
            return np.add(outer(k, highs[0], lows[0]), outer(2, highs[1], lows[1]), out=buf[k])

        pq = [mix(k, *f) for k, f in enumerate(factors[:2])]
        linf = [np.max(np.abs(x, out=buf[2])) for x in pq]
        l2_sq = [np.sum(np.multiply(x, x, out=x)) for x in pq]
        s = np.add(*pq, out=pq[0])
        dev = np.max(np.abs(np.subtract(s, target_const, out=s), out=s))

        target = outer(3, *products)
        pc = pc_low + np.uint8(lo.bit_count())
        per_mask, infl, ent = [], [], []
        for f in factors[2:]:
            w = mix(0, *f)
            np.multiply(w, w, out=w)
            e = np.abs(np.subtract(w, target, out=buf[1]), out=buf[1])
            per_mask.append(np.max(np.divide(e, target, out=e)))
            infl.append(np.sum(np.multiply(w, pc, out=buf[1])))
            keep = w >= ZERO_WEIGHT_CUTOFF
            terms = np.log2(w, out=buf[1], where=keep)
            ent.append(-np.sum(np.multiply(w, terms, out=terms, where=keep), where=keep))
        peaks.append((dev, *linf, *per_mask))
        return np.array((l2_sq, infl, ent))

    sums = _pairwise_sum(leaf, 0, size)
    dev, *peaks = np.max(peaks, axis=0)
    lo, hi = target_l2, SQRT2 * target_l2
    planes = [(  # the five figures of P, then of Q
        abs(np.sqrt(l2_sq / ld(size)) - target_l2) / target_l2,
        max((lo - linf) / lo, (linf - hi) / hi, ld(0.0)),
        per_mask,
        abs(infl - target_infl) / max(abs(target_infl), ld(1e-300)),
        abs(ent - target_ent) / max(abs(target_ent), big_l),
    ) for l2_sq, infl, ent, linf, per_mask in zip(*sums, peaks[:2], peaks[2:])]
    # np.max keeps a nan figure, where a fold with Python max passes over it
    return (float(dev / target_const), *map(float, np.max(planes, axis=0)))


def oracle_compare(params: ParamSeq, *, max_table_n: int | None = None) -> OracleReport:
    """Re-derive every closed-form quantity by enumeration; report max errors."""
    return OracleReport(1, None, *_oracle_errors(params.a.tobytes(), max_table_n))


def oracle_campaign(n: int, trials: int = 100, seed: int = 12345,
                    max_table_n: int | None = None, low: float = 0.05) -> OracleReport:
    """Aggregate oracle_compare over seeded random weight draws.

    Weights are uniform on (low, 1]; very small a_i are legal but their
    coefficients sink below any enumeration's precision, so the draw
    floor keeps the comparison informative.
    """
    n, trials, low = _count("dimension", n, 0), _count("trials", trials, 1), _float("low", low)
    if not 0.0 <= low <= 1.0:
        raise ParameterError(f"low must lie in [0, 1], got {low}")
    rng = np.random.default_rng(seed)
    worst = np.zeros(6)
    for _ in range(trials):
        a = 1.0 - rng.uniform(0.0, 1.0 - low, size=n)
        rep = oracle_compare(ParamSeq(a), max_table_n=max_table_n)
        np.maximum(worst, rep.errors(), out=worst)  # a nan figure stays nan
    return OracleReport(trials, seed, *map(float, worst))


def _entropy_bound(n: int) -> float:
    # (n/(n+1)) log2 n, the strict lower bound both unit-norm families beat
    return (n / (n + 1.0)) * math.log2(n) if n >= 1 else 0.0


#: Largest n at which the certificate gate holds the per-mask figure: for
#: the theorem weights it reads 1.4e-13 at n = 20 and 4.6e-11 at n = 26 in
#: x87 extended precision, and 1.7e-10 at n = 20 and 7.2e-9 at n = 24 in a
#: float64 simulation (never run there).  Above it that one figure is left
#: out; the aggregate figures are gated at every n.
COEFF_GATE_MAX_N = 26 if np.finfo(np.longdouble).nmant >= 63 else 20


def _gate(params: ParamSeq, tol: float, max_table_n: int | None) -> Check:
    # oracle_compare's cache entry; above the cutoff the per-mask figure reads
    # 0.0, out of the maximum (the rest are >= 0, or nan, which max_error
    # keeps, so the gate fails)
    report = oracle_compare(params, max_table_n=max_table_n)
    if params.n > COEFF_GATE_MAX_N:
        report = replace(report, err_coefficients=0.0)
    return check_lt("closed_form_oracle_agreement", report.max_error(), tol)


def certify_theorem1(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Unit-norm real family: bounded by sqrt(2), influence below one,
    entropy above (n/(n+1)) log2 n."""
    params, tol = theorem_params(n), _tolerance(tol)
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
    params, tol = theorem_params(n), _tolerance(tol)
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
    params, tol = theorem_params(n), _tolerance(tol)
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
    params, a, tol = remark3_params(n, a), _float("scale", a), _tolerance(tol)
    ncf = normalized_closed_form(params)
    bound = (a / 2.0) * (math.log2(n) - math.log2(a))
    checks = [
        check_gt("cf_influence_above_half_scale", ncf.influence, a / 2.0),
        check_lt("cf_influence_below_scale", ncf.influence, a),
        check_gt("cf_entropy_above_bound", ncf.entropy, bound),
    ]
    if n <= _table_cap(max_table_n):
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
    n, tol = _count("dimension", n, 0), _tolerance(tol)
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
    clamp, tol = _clamp(clamp), _tolerance(tol)
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
    elif clamp == 2.0:
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
    ns = [_count("dimension", n, 1) for n in ns]  # Python ints, so the rows are JSON
    if not ns:
        raise ParameterError("need at least one dimension")
    clamp, rows = _clamp(clamp), []
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
    samples = _count("samples", samples, 1)
    factor = _unit_modulus_factor(params)
    if factor < 2.0**-1023:
        return math.nan
    p, q = evaluate_many(params, map(random.Random(seed).getrandbits, repeat(params.n, samples)))
    devs = (abs(math.hypot(pv, qv) * factor - 1.0) for pv, qv in zip(p.tolist(), q.tolist()))
    # a left fold from 0.0 in sample order: a NaN deviation never
    # replaces the running maximum, as in the one-sample-at-a-time loop
    return max(0.0, *devs)
