"""Brute-force oracle and certification of the counterexample claims.

Every certificate is built by one rule.  A check named `cf_` reads the
closed forms alone and runs at every n (only certify_remark3 has them).
Any other name is table or oracle work, done only within the table cap:
the oracle gate on the closed forms comes first, as check 0, and only
then are the 2^n value tables built and each claim re-derived from them.
With no `cf_` checks, n above the cap is refused by the gate before any
table (certify_neeman has no gate: its table builder refuses).

The oracle enumerates in extended precision (np.longdouble) through a
rank-2 split of the pair into 2^(n/2)-entry half tables, in two stages:
the half-table stage (_half_stage) takes the targets and the per-mask,
influence and entropy figures from the half transforms alone, and the
value stage (_value_stage) walks the 2^n values of P, one block at a
time, for the constancy, L2 and L-inf figures (Q is P mirrored).  No
2^n-entry table is held (1.1 MiB at n = 20); each squared coefficient is
resolved against prod a_i^2 up to COEFF_GATE_MAX_N, and the library under
test stays in double precision.  `oracle_compare` checks n against the
table cap and caches the six error figures per weight vector (least
recently used, at most 256 entries), so certificates that share weights
enumerate them once.  `oracle_campaign` runs its seeded draws in batches,
the half-table stage once a batch, and bypasses that cache; each draw's
figures have the bits of a batch of one.

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
from typing import Callable, Iterable, Sequence

import numpy as np

from . import spectrum
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
    _constant_weights,
    _mirror,
    _p_table,
    _unimodular_table,
    _unit_modulus_factor,
)
from .errors import ParameterError, _clamp, _count, _float, _tolerance
from .spectrum import (
    ZERO_WEIGHT_CUTOFF,
    _fwht,
    _norm_sums,
    _pairwise_sum,
    _table_cap,
    _table_stats,
    check_table_dim,
    fwht_inplace,
    lift_zero_mean,
    popcounts,
    stats,
)

SQRT2 = math.sqrt(2.0)

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
    log_base = 2  # not a field: entropy and bounds use base-2 logs throughout

    @property
    def overall(self) -> bool:
        """Whether every check passed, read from the checks themselves."""
        return all(c.passed for c in self.checks)

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


def _high_half(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u1, v1): the pair of the weights `a` from (1, 0), a start that is not
    its own mirror, in longdouble (at most 2^13 entries within the cap).
    Weights of shape (..., k) give one pair per row, along the last axis."""
    a = np.asarray(a, dtype=np.longdouble)
    u = np.ones((*a.shape[:-1], 1), dtype=np.longdouble)
    v = np.zeros_like(u)
    for i in range(a.shape[-1]):
        ai = a[..., i, None]
        av, au = ai * v, ai * u
        u = np.concatenate([u + av, u - av], axis=-1)
        v = np.concatenate([au - v, -au - v], axis=-1)
    return u, v


def _low_bits(n: int) -> int:
    # m, the low half's dimension: n // 2, capped so that a block holds whole rows
    return min(n // 2, spectrum._BLOCK.bit_length() - 1)


def _hat(t: np.ndarray) -> np.ndarray:
    # the normalized transforms of a stack of half tables, in a fresh array
    return _fwht(t.copy()) / np.longdouble(t.shape[-1])


def _half_stage(a64: np.ndarray) -> tuple:
    """The oracle's half-table stage for the weight rows of a64 (draws, n),
    in longdouble, one row per draw: ((L, influence target, entropy target),
    (per-mask error, influence, entropy), highs, lows), L = prod(1 + a_i^2).

    With m ~ n / 2, lows (draws, 2, 2^m) holds (p, q), the pair of a[:m],
    and (u1, v1), (u2, v2) are the pairs of a[m:] from (1, 0) and (0, 1);
    highs (draws, 2^(n-m), 2) holds (u1, u2).  The doubling step is linear
    in (P, Q), so P(xl + 2^m xh) = u1(xh) p(xl) + u2(xh) q(xl), and the
    transform of a product over disjoint variables is the product of the
    transforms: P^(A + 2^m B) = u1^(B) p^(A) + u2^(B) q^(A), one scalar
    times p^ or q^ (_row_figures).  It all runs once for the batch, one row
    per draw: elementwise operations, and sums, products and extremes along
    the last axis of C-contiguous rows, which numpy reduces row by row as
    one row alone, so each row has the bits of a batch of one.
    """
    ld = np.longdouble
    draws, n = a64.shape
    a2 = np.square(a64.astype(ld))
    one_plus = 1.0 + a2
    # independent closed-form targets, linear domain (no log/exp route); others[:, i]
    # is np.prod(np.delete(one_plus, i, axis=-1), axis=-1), the same left fold
    others = np.ones_like(a2)
    for i in range(n):
        f = one_plus[:, i, None]
        others[:, :i] *= f
        others[:, i + 1 :] *= f
    targets = (np.prod(one_plus, axis=-1), np.sum(a2 * others, axis=-1),
               -np.sum(others * a2 * np.log2(a2), axis=-1))

    m = _low_bits(n)
    lows = np.empty((draws, 2, 1 << m), dtype=ld)
    _mirror(_p_table(a64[:, :m], lows[:, 0]), m, lows[:, 1])
    highs = np.stack(_high_half(a64[:, m:]), axis=-1)  # (u1, v1), then (u1, u2):
    highs[..., 1] = (-1) ** (n - m) * highs[:, ::-1, 1]  # the run from (0, 1)
    # the low subset products once per plane, so that none is held at the peak
    low_sums = [_low_sums(_hat(lows[:, i]), subset_products(a2[:, :m], dtype=ld), popcounts(m))
                for i in (0, 1)]
    sums = _row_figures([_hat(highs[..., i]) for i in (0, 1)], low_sums,
                        subset_products(a2[:, m:], dtype=ld), popcounts(n - m))
    return targets, sums, highs, lows


def _value_stage(highs: np.ndarray, lows: np.ndarray) -> np.ndarray:
    """The oracle's value stage: P = u1 p + u2 q (_half_stage) at all 2^n
    points, draw by draw, one block of rows at a time, block sums recombined
    along np.sum's split; a longdouble array (draws, 5) of max and min of
    P^2 + Q^2, sum P^2, sum Q^2 and max |P|.

    Q(x) = (-1)^n P(~x) bit for bit, and by the same proof
    (construct._mirror) the k high steps from (0, 1) = J (1, 0), J the
    swap, give (u2, v2)(xh) = (-1)^k (v1, u1)(~xh): the low half is P and
    its mirror, and u2 is v1 reversed with that sign.  Q's values are P's,
    negated or not, in reverse order: max |Q| is max |P|, and Q^2 of block
    j is P^2 of block nb - 1 - j reversed (np.sum adds a reversed view in
    logical order), so P^2 on blocks j and nb - 1 - j gives both planes'
    block sums and P^2 + Q^2 on both.  |Q^(A)| = |P^(A)|, since the
    butterflies of a negated or reversed table are its own, negated or
    mirrored: every figure has the bits of walking both planes.
    """
    size = highs.shape[1] * lows.shape[-1]
    block = min(size, spectrum._BLOCK)
    nb, rows = size // block, block // lows.shape[-1]
    buf = np.empty((2, block), dtype=lows.dtype)
    grid = buf.reshape(2, rows, -1)
    sums = np.empty((2, nb), dtype=lows.dtype)  # block sums of P^2, then of Q^2
    values = np.empty((len(lows), 5), dtype=lows.dtype)
    for d, (high, pq) in enumerate(zip(highs, lows)):
        peaks = []
        for j in range((nb + 1) // 2):
            k = nb - 1 - j
            # P on blocks j and k (one block if j = k): u1 p + u2 q of each row, a sum
            # of two products in either order, so einsum's bits are the products'
            pv = [np.einsum("rk,kc->rc", high[b * rows : (b + 1) * rows], pq, out=grid[i]).reshape(-1)
                  for i, b in enumerate(dict.fromkeys((j, k)))]
            linf = np.max([np.maximum(x[np.argmax(x)], -x[np.argmin(x)]) for x in pv])
            sq = [np.multiply(x, x, out=x) for x in pv]
            sq_j, sq_k = sq[0], sq[-1]
            sums[:, j] = np.sum(sq_j), np.sum(sq_k[::-1])
            if j < k:
                sums[:, k] = np.sum(sq_k), np.sum(sq_j[::-1])
            # over block j, or the free buf[1] if j = k, whose reversed read it would overwrite
            s = np.add(sq_j, sq_k[::-1], out=buf[0] if j < k else buf[1])
            peaks.append((s[np.argmax(s)], s[np.argmin(s)], linf))
        top, bottom, linf = np.array(peaks).T
        l2_sums = _pairwise_sum(lambda lo, hi: sums[:, lo // block], 0, size)
        values[d] = np.max(top), np.min(bottom), *l2_sums, np.max(linf)
    return values


def _oracle_batch(a64: np.ndarray) -> np.ndarray:
    """The six error figures of each weight row of a64 (draws, n), float64,
    assembled over the batch elementwise from the two stages, so each row has
    the bits of a batch of one; s - target is monotone in s = P^2 + Q^2."""
    (big_l, target_infl, target_ent), (per_mask, infl, ent), highs, lows = _half_stage(a64)
    top, bottom, sum_p, sum_q, linf = _value_stage(highs, lows).T
    target_const, target_l2 = 2.0 * big_l, np.sqrt(big_l)
    l2 = np.sqrt(np.stack((sum_p, sum_q)) / (1 << a64.shape[1]))
    lo, hi = target_l2, SQRT2 * target_l2
    figures = (
        np.maximum(top - target_const, target_const - bottom) / target_const,
        np.max(abs(l2 - target_l2) / target_l2, axis=0),  # the worse of P's and Q's
        np.maximum(np.maximum((lo - linf) / lo, (linf - hi) / hi), 0.0),
        per_mask,
        abs(infl - target_infl) / np.maximum(abs(target_infl), 1e-300),
        abs(ent - target_ent) / np.maximum(abs(target_ent), big_l),
    )
    return np.stack(figures, axis=-1).astype(np.float64)


@functools.lru_cache(maxsize=256)
def _oracle_errors(a_bytes: bytes) -> tuple[float, ...]:
    """The six error figures of the weights in `a_bytes`: a batch of one."""
    return tuple(_oracle_batch(np.frombuffer(a_bytes).reshape(1, -1))[0].tolist())


def _low_sums(t: np.ndarray, products: np.ndarray, pc: np.ndarray) -> tuple:
    """(M, D, E, min rho, max rho) of normalized low transforms t, one per row.

    M = sum t^2, D = sum |A| t^2, E = sum t^2 log2 t^2 over the live
    terms (t^2 >= ZERO_WEIGHT_CUTOFF), and rho = t^2 / prod_{i in A} a_i^2,
    each along the last axis.
    """
    sq = t * t
    rho = sq / products
    extremes = np.min(rho, axis=-1), np.max(rho, axis=-1)
    logs = np.log2(sq, out=np.zeros_like(sq), where=sq >= ZERO_WEIGHT_CUTOFF)
    return np.sum(sq, axis=-1), np.sum(sq * pc, axis=-1), np.sum(sq * logs, axis=-1), *extremes


def _row_figures(highs, lows, products: np.ndarray, pc: np.ndarray) -> tuple:
    """(per-mask error, influence, entropy) of the plane h1^(B) l1 + h2^(B) l2,
    one of each per row of the highs (the last axis B).

    The highs transform the high runs from (1, 0) and (0, 1), and in exact
    arithmetic no mask has two nonzeros, for any weights.  For B free of a
    fresh coordinate k, the step u' = u + e a v, v' = e a u - v in k gives
    u'^(B) = u^(B), u'^(B + {k}) = a v^(B), v'^(B) = -v^(B) and
    v'^(B + {k}) = a u^(B).  So two runs whose u^ have disjoint supports,
    and whose v^ do, keep both so.  The runs start with u^ on {0} and {},
    v^ on {} and {0}; by induction the invariant holds, and a nonzero left
    by rounding where the exact coefficient is zero takes the nan path.

    Row B is h^2 times the squares of one low transform, h the nonzero
    of (h1^(B), h2^(B)) (0 if both are), so the influence is
    sum_B h^2 (D + |B| M) and the entropy -sum_B h^2 (E + log2(h^2) M).
    The per-mask error |c rho - 1|, c = h^2 / prod_{i in B} a_i^2, is
    largest at the row's least or greatest rho: the rounded c rho - 1 is
    monotone in rho for c > 0, and constant for c = 0.  A row with two
    nonzeros is not of this form: all three of its figures are nan.
    """
    h1, h2 = highs
    second = h2 != 0  # the masks that scale the second low transform
    sq = np.square(np.where(second, h2, h1))

    def pick(i):
        # figure i of the low transform that each mask's row scales
        return np.where(second, lows[1][i][..., None], lows[0][i][..., None])

    c = sq / products
    per_mask = np.max(np.maximum(np.abs(c * pick(4) - 1), np.abs(c * pick(3) - 1)), axis=-1)
    del c
    mass = pick(0)
    influence = np.sum(sq * (pick(1) + pc * mass), axis=-1)
    logs = np.log2(sq, out=np.zeros_like(sq), where=sq >= ZERO_WEIGHT_CUTOFF)
    entropy = -np.sum(sq * (pick(2) + logs * mass), axis=-1)
    two = np.any((h1 != 0) & (h2 != 0), axis=-1)
    return tuple(np.where(two, np.longdouble(np.nan), f) for f in (per_mask, influence, entropy))


def oracle_compare(params: ParamSeq, *, max_table_n: int | None = None) -> OracleReport:
    """Re-derive every closed-form quantity by enumeration; report max errors."""
    check_table_dim(params.n, max_table_n)
    return OracleReport(1, None, *_oracle_errors(params.a.tobytes()))


def _campaign_draws(n: int, trials: int, seed: int | None, low: float):
    """oracle_campaign's weight draws, batch by batch, each a (draws, n) array.

    Row for row, in trial order, these are the draws of one
    1.0 - rng.uniform(0.0, 1.0 - low, size=n) per trial.  A batch holds as
    many draws as keep each half table of the batch within _BLOCK entries
    (at least one draw), so a campaign holds one batch at a time at any
    number of trials.
    """
    rng = np.random.default_rng(seed)
    batch = max(1, spectrum._BLOCK >> (n - _low_bits(n)))
    for start in range(0, trials, batch):
        yield 1.0 - rng.uniform(0.0, 1.0 - low, size=(min(batch, trials - start), n))


def oracle_campaign(n: int, trials: int = 100, seed: int | None = 12345,
                    max_table_n: int | None = None, low: float = 0.05) -> OracleReport:
    """The worst of each oracle figure over seeded random weight draws.

    Weights are uniform on (low, 1]; very small a_i are legal but their
    coefficients sink below any enumeration's precision, so the draw
    floor keeps the comparison informative.  The seed is an integer >= 0,
    or None for fresh draws.  n is checked against the table cap before
    any draw.  The draws are evaluated batch by batch (_campaign_draws):
    every draw's six figures have the bits oracle_compare gives it, and the
    report is their elementwise maximum folded in trial order, so a nan
    figure stays nan.  A campaign bypasses oracle_compare's cache: it
    neither reads nor fills it.
    """
    n, trials, low = _count("dimension", n, 0), _count("trials", trials, 1), _float("low", low)
    seed = seed if seed is None else _count("seed", seed, 0)
    if not 0.0 <= low <= 1.0:
        raise ParameterError(f"low must lie in [0, 1], got {low}")
    check_table_dim(n, max_table_n)
    worst = np.zeros(6)
    for a in _campaign_draws(n, trials, seed, low):
        for figures in _oracle_batch(a):
            np.maximum(worst, figures, out=worst)  # a nan figure stays nan
    return OracleReport(trials, seed, *map(float, worst))


def _entropy_bound(n: int) -> float:
    # (n/(n+1)) log2 n, the strict lower bound both unit-norm families beat
    return (n / (n + 1.0)) * math.log2(n) if n >= 1 else 0.0


#: Largest n at which the certificate gate holds the per-mask figure: for
#: the theorem weights it reads 1.35e-13 at n = 20 and 4.60e-11 at n = 26
#: in x87 extended precision, and 1.7e-10 at n = 20 and 7.2e-9 at n = 24
#: with a float64 longdouble (tier-1 runs that route up to n = 22 with
#: np.longdouble patched to float64).  Above it that one figure is left
#: out; the aggregate figures are gated at every n.
COEFF_GATE_MAX_N = 26 if np.finfo(np.longdouble).nmant >= 63 else 20


def _gate(params: ParamSeq, tol: float, max_table_n: int | None) -> Check:
    # oracle_compare's cache entry; above the cutoff the per-mask figure reads 0.0,
    # out of the maximum (the rest are >= 0, or nan, which max_error keeps: a fail)
    report = oracle_compare(params, max_table_n=max_table_n)
    if params.n > COEFF_GATE_MAX_N:
        report = replace(report, err_coefficients=0.0)
    return check_lt("closed_form_oracle_agreement", report.max_error(), tol)


def _certificate(kind: str, n: int, inputs: dict, tol: float, max_table_n: int | None,
                 tables: Callable[[], Iterable[Check]], gated: ParamSeq | None = None,
                 any_n: Sequence[Check] = ()) -> Certificate:
    """The module's rule: `any_n` at every n; within the table cap, or at any n
    with no `any_n`, first the gate on `gated` (if given), then tables(); `tol` last."""
    in_cap = not any_n or n <= _table_cap(max_table_n)
    gate = [_gate(gated, tol, max_table_n)] if in_cap and gated is not None else []
    checks = (*gate, *any_n, *(tables() if in_cap else ()))  # the tables after the gate
    n = _count("dimension", n, 0)  # a Python int, so to_dict is JSON
    return Certificate(kind, n, {**inputs, "tol": tol}, checks)


def certify_theorem1(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Unit-norm real family: bounded by sqrt(2), influence below one,
    entropy above (n/(n+1)) log2 n."""
    params, tol = theorem_params(n), _tolerance(tol)

    def tables():
        st = stats(normalized_real(params, max_table_n), max_table_n)
        return [
            check_abs("l2_norm_unit", st.l2_norm, 1.0, 1e-12),
            check_le("linf_at_most_sqrt2", st.linf_norm, SQRT2 + 1e-12),
            check_rel("influence_equals_target", st.influence, n / (n + 1.0), tol),
            check_lt("influence_below_one", st.influence, 1.0),
            check_gt("entropy_above_bound", st.entropy, _entropy_bound(n)),
        ]
    return _certificate("theorem1", n, {"weights": "1/sqrt(n)"}, tol, max_table_n, tables, params)


def _modulus_deviation(values: np.ndarray) -> float:
    """max | |v| - 1 | over a table, one _BLOCK of float64 scratch at a time.

    The max is exact, so this is the float of
    np.max(np.abs(np.abs(values) - 1.0)), nan included, without its two
    table-sized temporaries.
    """
    block = spectrum._BLOCK
    scratch = np.empty(min(values.size, block))
    peaks = []
    for lo in range(0, values.size, block):
        seg = values[lo : lo + block]
        x = np.abs(seg, out=scratch[: seg.size])
        peaks.append(np.max(np.abs(np.subtract(x, 1.0, out=x), out=x)))
    return float(np.max(peaks))


def certify_theorem2(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Modulus-one complex family: same influence/entropy split."""
    params, tol = theorem_params(n), _tolerance(tol)

    def tables():
        # unimodular_complex's values, which stats then transforms in place
        table = _unimodular_table(params)
        dev = _modulus_deviation(table)
        st = _table_stats(params.n, table)
        return [
            check_lt("modulus_deviation", dev, 1e-12),
            check_lt("influence_below_one", st.influence, 1.0),
            check_rel("influence_equals_target", st.influence, n / (n + 1.0), tol),
            check_gt("entropy_above_bound", st.entropy, _entropy_bound(n)),
        ]
    return _certificate("theorem2", n, {"weights": "1/sqrt(n)"}, tol, max_table_n, tables, params)


def certify_remark2(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Lifting by a fresh sign keeps norms and entropy, adds one to influence;
    the lift's n + 1 meets the table cap before any oracle or table work."""
    params, tol = theorem_params(n), _tolerance(tol)
    check_table_dim(n + 1, max_table_n)

    def tables():
        f = normalized_real(params, max_table_n)
        g = lift_zero_mean(f, max_table_n)
        sf = stats(f, max_table_n)
        sg = stats(g, max_table_n)
        mean_g = float(np.mean(g.values))
        return [
            check_abs("l2_preserved", sg.l2_norm, sf.l2_norm, 1e-12),
            check_abs("linf_preserved", sg.linf_norm, sf.linf_norm, 1e-12),
            check_abs("entropy_preserved", sg.entropy, sf.entropy, 1e-12),
            check_rel("influence_gains_l2_sq", sg.influence, sf.influence + sf.l2_norm**2, tol),
            check_lt("lifted_influence_below_two", sg.influence, 2.0),
            check_abs("lifted_mean_zero", mean_g, 0.0, 1e-12),
        ]
    return _certificate("remark2", n, {"weights": "1/sqrt(n)"}, tol, max_table_n, tables, params)


def certify_remark3(n: int, a: float, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Scaled family sqrt(a/n): influence inside (a/2, a), entropy above
    (a/2)(log2 n - log2 a); closed forms for any n, enumeration when the
    table fits."""
    params, a, tol = remark3_params(n, a), _float("scale", a), _tolerance(tol)
    ncf = normalized_closed_form(params)
    bound = (a / 2.0) * (math.log2(n) - math.log2(a))
    closed_forms = [
        check_gt("cf_influence_above_half_scale", ncf.influence, a / 2.0),
        check_lt("cf_influence_below_scale", ncf.influence, a),
        check_gt("cf_entropy_above_bound", ncf.entropy, bound),
    ]

    def tables():
        for label, fn in (("real", normalized_real), ("complex", unimodular_complex)):
            st = stats(fn(params, max_table_n), max_table_n)
            yield from [
                check_gt(f"{label}_influence_above_half_scale", st.influence, a / 2.0),
                check_lt(f"{label}_influence_below_scale", st.influence, a),
                check_gt(f"{label}_entropy_above_bound", st.entropy, bound),
                check_rel(f"{label}_influence_matches_closed_form", st.influence, ncf.influence, tol),
                check_rel(f"{label}_entropy_matches_closed_form", st.entropy, ncf.entropy, tol),
            ]
    return _certificate("remark3", n, {"weights": "sqrt(a/n)", "scale": a}, tol, max_table_n,
                        tables, params, closed_forms)


def certify_classical_rs(n: int, tol: float = 1e-9, max_table_n: int | None = None) -> Certificate:
    """Weight-one case: every coefficient of the raw pair has magnitude
    one, and the unit-norm rescaling has influence n/2 and entropy n."""
    n, tol = _count("dimension", n, 0), _tolerance(tol)
    params = _constant_weights(1.0, n)

    def tables():
        p = _p_table(params.a, np.empty(1 << n))  # raw P alone
        l2_sq, linf = _norm_sums(p)
        l2 = math.sqrt(float(l2_sq) * math.ldexp(1.0, -n))
        np.multiply(fwht_inplace(p), math.ldexp(1.0, -n), out=p)  # walsh_transform's table
        coeff_dev = _modulus_deviation(p)
        del p  # freed before the normalized table is built
        norm = stats(normalized_real(params, max_table_n), max_table_n)
        return [
            check_le("coefficient_magnitude_deviation", coeff_dev, 1e-12),
            check_rel("l2_norm_target", l2, 2.0 ** (n / 2.0), 1e-12),
            check_le("linf_over_l2", float(linf) / l2, SQRT2 + 1e-12),
            check_rel("normalized_influence_half_n", norm.influence, n / 2.0, tol),
            check_rel("normalized_entropy_n", norm.entropy, float(n), tol),
        ]
    return _certificate("classical_rs", n, {"weights": "1"}, tol, max_table_n, tables, params)


def certify_neeman(
    n: int, clamp: float = 2.0, tol: float = 1e-9, max_table_n: int | None = None
) -> Certificate:
    """Clamped-sum family: unit norm, bounded values; degenerates to the
    plain normalized sum when the clamp never binds, otherwise held to
    the pinned influence band (clamp == 2 only)."""
    clamp, tol = _clamp(clamp), _tolerance(tol)

    def tables():
        st = stats(neeman_function(n, clamp, normalize=True, max_table_n=max_table_n), max_table_n)
        checks = [
            check_abs("l2_norm_unit", st.l2_norm, 1.0, 1e-12),
            check_le("linf_bound", st.linf_norm, clamp / clamped_sum_l2_norm(n, clamp) + 1e-12),
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
        return checks
    return _certificate("neeman", n, {"clamp": clamp}, tol, max_table_n, tables)


@dataclass(frozen=True)
class NeemanReport:
    """Brute-force rows of the clamped sum; every verdict is read from them."""

    clamp: float
    rows: tuple[tuple[int, float, float], ...]  # (n, influence, entropy)

    @property
    def entropy_increasing(self) -> bool:
        return all(b[2] > a[2] for a, b in zip(self.rows, self.rows[1:]))

    @property
    def band(self) -> tuple[float, float] | None:
        return NEEMAN_INFLUENCE_BAND if self.clamp == 2.0 else None

    @property
    def influence_in_band(self) -> bool:
        return self.band is None or all(self.band[0] <= r[1] <= self.band[1] for r in self.rows)

    @property
    def overall(self) -> bool:
        return self.entropy_increasing and self.influence_in_band


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
    return NeemanReport(clamp, tuple(rows))


def modulus_spotcheck(params: ParamSeq, samples: int = 10_000, seed: int = 2024) -> float:
    """Max | |f| - 1 | of the modulus-one family over sampled points.

    Each sample point is n independent fair coordinate bits packed into
    a Python int (`random.Random(seed).getrandbits(n)`), so points are
    uniform on {-1,1}^n for every n, far past 64.  The draws go lazily
    through one evaluate_many call, so working memory is a few MiB at
    any n plus about 90 bytes per sample for the values and their
    deviations (1 MiB for the default 10 000 samples); the time is about
    samples * n steps of the doubling recursion (the default 10 000
    samples take 0.05 s at n = 1000 and 0.5 s at n = 10^4, one sample
    0.06 s at n = 10^6, on a 2-CPU x86-64 host).  This is the only
    modulus check available past the table cap.  The same integer seed
    gives the same points and result.  It is nan, with no point
    evaluated, where |P + iQ| = sqrt(2L) > 2^1023 (1 + log2 L > 2046).
    """
    samples = _count("samples", samples, 1)
    factor = _unit_modulus_factor(params)
    if factor < 2.0**-1023:
        return math.nan
    p, q = evaluate_many(params, map(random.Random(seed).getrandbits, repeat(params.n, samples)))
    # math.hypot (np.hypot may round otherwise), then the same IEEE ops in
    # place; fmax passes over a NaN deviation, as a left fold from 0.0 did
    devs = np.fromiter(map(math.hypot, p.tolist(), q.tolist()), np.float64, count=samples)
    devs *= factor
    devs -= 1.0
    return float(np.fmax.reduce(np.abs(devs, out=devs), initial=0.0))
