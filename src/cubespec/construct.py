"""Builders for the generalized Rudin-Shapiro pair and derived families.

The pair (P_n, Q_n) over {-1,1}^n is defined by P_0 = Q_0 = 1 and the
doubling step in a fresh coordinate eps with weight a in (0,1]:

    P' = P + eps * a * Q,       Q' = eps * a * P - Q.

Everything else here is a rescaling or recombination of one such pair:
the unit-norm real function P / ||P||_2, the modulus-one complex
function (P + iQ) / (sqrt(2) * ||P||_2), its four sign/swap variants,
the classical polynomials (a_i = 1), plus two unrelated reference
families (the normalized coordinate sum and its clamped version).

Closed forms: with L = prod(1 + a_i^2),

    |P|^2 + |Q|^2 = 2 L                  pointwise,
    ||P||_2^2     = L,
    |Phat(A)|^2   = prod_{i in A} a_i^2  for every subset A,
    I(P)          = sum_i a_i^2 prod_{j != i} (1 + a_j^2),
    H(Phat^2)     = -sum_i prod_{j != i}(1 + a_j^2) * a_i^2 log2 a_i^2,

and identically for Q.  The report builders below evaluate these in
log2 domain with prefix/suffix sums so they stay finite and O(n) far
beyond table scale (n up to 10^6 and more); tables are only built on
request and under the cap from `spectrum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .spectrum import HypercubeFunction, check_table_dim, popcounts

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ParamSeq:
    """Weight sequence a_1..a_n, each in (0,1]; index i drives step i."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=np.float64).reshape(-1).copy()
        if arr.size and not np.isfinite(arr).all():
            raise ParameterError("weights must be finite")
        if arr.size and (np.any(arr <= 0.0) or np.any(arr > 1.0)):
            bad = arr[(arr <= 0.0) | (arr > 1.0)][0]
            raise ParameterError(f"weights must lie in (0, 1], got {bad!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def total_mass(self) -> float:
        """K = sum a_i^2."""
        return float(np.sum(self.a * self.a))


@dataclass(frozen=True)
class RSPair:
    p: HypercubeFunction
    q: HypercubeFunction

    def __post_init__(self):
        if self.p.n != self.q.n:
            raise ParameterError(
                f"pair dimensions differ: {self.p.n} != {self.q.n}"
            )

    @property
    def n(self) -> int:
        return self.p.n


@dataclass(frozen=True)
class ClosedFormReport:
    """Exact spectral quantities of the raw (unnormalized) pair."""

    n: int
    l2_norm: float
    linf_lower: float      # ||P||_2: pointwise |P| reaches at least this
    linf_upper: float      # sqrt(2) * ||P||_2
    influence: float
    entropy: float
    coeff_log_magnitude: np.ndarray  # per-index log2 a_i^2; sum over A gives log2 |Phat(A)|^2
    total_mass: float                # K = sum a_i^2
    remark1_bound: float             # K * e^K, a strict upper bound for the influence
    log2_l2_sq: float                # sum log2(1 + a_i^2); finite even when l2_norm overflows


@dataclass(frozen=True)
class NormalizedClosedForm:
    """Influence and entropy of the unit-norm variants, plus the proof bound."""

    influence: float           # sum a_i^2 / (1 + a_i^2), always in [0, n)
    entropy: float
    entropy_lower_bound: float


def _log2_one_plus_sq(a: np.ndarray) -> np.ndarray:
    # log1p keeps full accuracy for small a; /ln2 maps exactly onto
    # log2 for a = 1 (both constants are the same correctly rounded ln 2).
    return np.log1p(a * a) / _LN2


def _pq_tables(a: Sequence[float], dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """Raw value tables of the pair, via the doubling step, in `dtype`.

    The first half of each table is the eps = +1 branch (new index bit
    clear), the second half eps = -1, matching the point convention in
    `spectrum`.  Each step doubles in place inside the final arrays,
    with the same per-element operations as concatenating
    [p + aq, p - aq] and [ap - q, -ap - q], signed zeros included.
    """
    size = 1 << len(a)
    p = np.empty(size, dtype=dtype)
    q = np.empty(size, dtype=dtype)
    aq_buf = np.empty(size // 2, dtype=dtype)
    ap_buf = np.empty(size // 2, dtype=dtype)
    p[0] = q[0] = 1.0
    m = 1
    for ai in a:
        ai = dtype(ai)
        p_lo, p_hi, q_lo, q_hi = p[:m], p[m : 2 * m], q[:m], q[m : 2 * m]
        aq = np.multiply(ai, q_lo, out=aq_buf[:m])
        ap = np.multiply(ai, p_lo, out=ap_buf[:m])
        # upper halves first: they read the lower halves before these change
        np.subtract(p_lo, aq, out=p_hi)
        np.add(p_lo, aq, out=p_lo)
        np.negative(ap, out=q_hi)
        np.subtract(q_hi, q_lo, out=q_hi)
        np.subtract(ap, q_lo, out=q_lo)
        m *= 2
    return p, q


def subset_products(factors: Sequence[float], dtype=np.float64) -> np.ndarray:
    """Table t with t[m] = prod of factors[i] over the set bits of m.

    Built by the same doubling as the value tables, so t is generated
    in ascending mask order; linear domain, for mask counts within cap.
    """
    t = np.ones(1, dtype=dtype)
    for f in factors:
        t = np.concatenate([t, t * dtype(f)])
    return t


def build_pq(params: ParamSeq, max_table_n: int | None = None) -> RSPair:
    """Value tables of the pair for these weights."""
    check_table_dim(params.n, max_table_n)
    p, q = _pq_tables(params.a)
    return RSPair(HypercubeFunction(params.n, p), HypercubeFunction(params.n, q))


def evaluate_at(params: ParamSeq, point: int) -> tuple[complex, complex]:
    """Pair values at one point, O(n) time, no table.

    Runs the doubling step as a scalar recursion in the same operation
    order as the table builder, so for in-cap n the results are
    bit-identical to build_pq entries.
    """
    if not 0 <= point < (1 << params.n):
        raise ParameterError(
            f"point index {point} out of range for dimension {params.n}"
        )
    # bits[i] is bit i of point; shifting the big int at every step
    # would cost O(n) each and O(n^2) in all
    bits = format(point, f"0{params.n}b")[::-1]
    p = 1.0
    q = 1.0
    for ai, bit in zip(params.a.tolist(), bits):
        aq = ai * q
        ap = ai * p
        if bit == "1":
            p, q = p - aq, -ap - q
        else:
            p, q = p + aq, ap - q
    return complex(p), complex(q)


def closed_form(params: ParamSeq) -> ClosedFormReport:
    """Exact norms, influence and entropy of the raw pair, any n.

    All products run in log2 domain with prefix/suffix sums, so the
    cost is O(n) and nothing overflows on the way; only the final
    linear-scale fields can saturate to inf for extreme inputs, and
    log2_l2_sq plus coeff_log_magnitude stay finite regardless.
    """
    a = params.a
    a2 = a * a
    lg = _log2_one_plus_sq(a)        # log2(1 + a_i^2), entrywise
    total = float(np.sum(lg))
    if a.size:
        # log2 prod_{j != i} (1 + a_j^2): sums strictly left and right of i
        pre = np.concatenate([[0.0], np.cumsum(lg)[:-1]])
        suf = np.concatenate([np.cumsum(lg[::-1])[-2::-1], [0.0]])
        others = np.exp2(pre + suf)
        log2_a2 = 2.0 * np.log2(a)
    else:
        others = np.zeros(0)
        log2_a2 = np.zeros(0)
    influence = float(np.sum(a2 * others))
    entropy = float(-np.sum(others * a2 * log2_a2))
    k = params.total_mass
    l2 = 2.0 ** (0.5 * total)
    log2_a2.setflags(write=False)
    return ClosedFormReport(
        n=params.n,
        l2_norm=l2,
        linf_lower=l2,
        linf_upper=math.sqrt(2.0) * l2,
        influence=influence,
        entropy=entropy,
        coeff_log_magnitude=log2_a2,
        total_mass=k,
        remark1_bound=k * math.exp(k),
        log2_l2_sq=total,
    )


def normalized_closed_form(params: ParamSeq) -> NormalizedClosedForm:
    """Influence and entropy after scaling the pair to unit L2 norm.

    influence = sum a_i^2 / (1 + a_i^2)
    entropy   = -sum (a_i^2 / (1 + a_i^2)) log2 a_i^2  +  sum log2(1 + a_i^2)
    and the lower bound (-1 / (1 + max a_i^2)) sum a_i^2 log2 a_i^2,
    which the entropy strictly exceeds whenever some a_i < 1.
    """
    a = params.a
    if a.size == 0:
        return NormalizedClosedForm(0.0, 0.0, 0.0)
    a2 = a * a
    frac = a2 / (1.0 + a2)
    log2_a2 = 2.0 * np.log2(a)
    influence = float(np.sum(frac))
    entropy = float(-np.sum(frac * log2_a2) + np.sum(_log2_one_plus_sq(a)))
    bound = float(-np.sum(a2 * log2_a2) / (1.0 + float(np.max(a2))))
    return NormalizedClosedForm(influence, entropy, bound)


def _l2_scale_factor(params: ParamSeq) -> float:
    # 1 / ||P||_2, from the same log2 sums as closed_form
    return 2.0 ** (-0.5 * float(np.sum(_log2_one_plus_sq(params.a))))


def normalized_real(params: ParamSeq, max_table_n: int | None = None) -> HypercubeFunction:
    """P scaled to unit L2 norm; bounded by sqrt(2) pointwise."""
    check_table_dim(params.n, max_table_n)
    p, _ = _pq_tables(params.a)
    return HypercubeFunction(params.n, p * _l2_scale_factor(params))


def unimodular_complex(params: ParamSeq, max_table_n: int | None = None) -> HypercubeFunction:
    """(P + iQ) / (sqrt(2) ||P||_2): every value on the unit circle."""
    check_table_dim(params.n, max_table_n)
    p, q = _pq_tables(params.a)
    c = 2.0 ** (-0.5 * (1.0 + float(np.sum(_log2_one_plus_sq(params.a)))))
    return HypercubeFunction(params.n, (p + 1j * q) * c)


def four_variants(params: ParamSeq, max_table_n: int | None = None):
    """P+iQ, P-iQ, Q+iP, Q-iP, unnormalized.

    Each has coefficient magnitude sqrt(2) * prod_{i in A} |a_i| at
    every mask A, which is what makes the pointwise modulus of the
    normalized combination rigid.
    """
    check_table_dim(params.n, max_table_n)
    p, q = _pq_tables(params.a)
    n = params.n
    return (
        HypercubeFunction(n, p + 1j * q),
        HypercubeFunction(n, p - 1j * q),
        HypercubeFunction(n, q + 1j * p),
        HypercubeFunction(n, q - 1j * p),
    )


def theorem_params(n: int) -> ParamSeq:
    """The constant sequence a_i = 1/sqrt(n) of length n (n >= 1)."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    return ParamSeq(np.full(n, 1.0 / math.sqrt(n)))


def remark3_params(n: int, a: float) -> ParamSeq:
    """Constant sequence sqrt(a/n) for a strictly inside (1, n).

    Downstream, the unit-norm variants then have influence strictly
    between a/2 and a, and entropy above (a/2)(log2 n - log2 a).
    """
    a = float(a)
    if not 1.0 < a < n:
        raise ParameterError(f"scale must satisfy 1 < a < n, got a={a}, n={n}")
    return ParamSeq(np.full(n, math.sqrt(a / n)))


def normalized_sum(n: int, max_table_n: int | None = None) -> HypercubeFunction:
    """(eps_1 + ... + eps_n) / sqrt(n): unit norm, influence 1, entropy log2 n."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    check_table_dim(n, max_table_n)
    pc = popcounts(n).astype(np.float64)
    return HypercubeFunction(n, (n - 2.0 * pc) / math.sqrt(n))


def clamped_sum_l2_norm(n: int, clamp: float) -> float:
    """Exact L2 norm of clamp((eps_1+..+eps_n)/sqrt(n), +-clamp).

    The sum of coordinates is binomial over Hamming levels, so the norm
    needs only n+1 exact level weights, no 2^n enumeration.
    """
    if n < 1:
        raise ParameterError("dimension must be at least 1")
    if not clamp > 0.0:
        raise ParameterError(f"clamp must be positive, got {clamp!r}")
    inv_s = 1.0 / math.sqrt(n)
    terms = []
    for k in range(n + 1):
        v = (n - 2 * k) * inv_s
        v = max(-clamp, min(clamp, v))
        terms.append(math.comb(n, k) * (v * v))
    return math.sqrt(math.ldexp(math.fsum(terms), -n))


def neeman_function(
    n: int,
    clamp: float = 2.0,
    normalize: bool = True,
    max_table_n: int | None = None,
) -> HypercubeFunction:
    """The coordinate sum clamped into [-clamp, clamp], optionally unit-norm.

    For clamp >= sqrt(n) the clamp never binds and the raw table equals
    normalized_sum(n) exactly.  The unit-norm rescaling divides by the
    exact binomial-weight L2 norm from clamped_sum_l2_norm, keeping the
    values bounded by clamp / that norm.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    clamp = float(clamp)
    if not clamp > 0.0:
        raise ParameterError(f"clamp threshold must be positive, got {clamp}")
    check_table_dim(n, max_table_n)
    pc = popcounts(n).astype(np.float64)
    values = np.clip((n - 2.0 * pc) / math.sqrt(n), -clamp, clamp)
    if normalize:
        values = values / clamped_sum_l2_norm(n, clamp)
    return HypercubeFunction(n, values)
