"""Builders for the generalized Rudin-Shapiro pair and derived families.

The pair (P_n, Q_n) over {-1,1}^n is defined by P_0 = Q_0 = 1 and the
doubling step in a fresh coordinate eps with weight a in (0,1]:

    P' = P + eps * a * Q,       Q' = eps * a * P - Q.

Only P is built by the doubling step (_p_table): the pair obeys
Q(x) = (-1)^n P(~x) bit for bit, ~x flipping every sign of x, so each
step reads its Q from P, and every Q table is P's mirror (_mirror).

Everything else here is a rescaling or recombination of one such pair:
the unit-norm real function P / ||P||_2, the modulus-one complex
function (P + iQ) / (sqrt(2) * ||P||_2), the classical polynomials
(a_i = 1), plus two unrelated reference families (the normalized
coordinate sum and its clamped version).

Closed forms: with L = prod(1 + a_i^2),

    |P|^2 + |Q|^2 = 2 L                  pointwise,
    ||P||_2^2     = L,
    |Phat(A)|^2   = prod_{i in A} a_i^2  for every subset A,
    I(P)          = sum_i a_i^2 prod_{j != i} (1 + a_j^2),
    H(Phat^2)     = -sum_i prod_{j != i}(1 + a_j^2) * a_i^2 log2 a_i^2,

and identically for Q.  Since prod_{j != i}(1 + a_j^2) = L / (1 + a_i^2),
I and H are L times sums of per-weight terms.  Every sum over the
weights goes through one blockwise reducer, with the bits of whole-array
sums, and L stays in log2 domain, so the closed forms stay finite far
beyond table scale: O(n) for distinct weights, O(log n) for a constant
sequence; tables are only built on request and under the cap from
`spectrum`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Sequence

import numpy as np

from . import spectrum
from .errors import ParameterError, _clamp, _count, _float
from .spectrum import (
    HypercubeFunction,
    _adopt,
    _doubled,
    _pairwise_sum,
    _run_sum,
    check_table_dim,
)

_LN2 = math.log(2.0)


def _constant_layout(a: np.ndarray) -> bool:
    # a nonempty 1-D array of one value repeated by a zero stride, as in
    # ParamSeq's one-value layout
    return a.size > 0 and a.strides == (0,)


@dataclass(frozen=True)
class ParamSeq:
    """Weight sequence a_1..a_n, each in (0,1]; index i drives step i.

    `a` is stored read-only and float64, in one of two layouts, decided
    here once from the smallest and largest weight that validation
    takes.  Weights that are all equal, however given (np.full, a list,
    any shape or float dtype, a broadcast), are stored as one value
    broadcast to n: a private 0-d array of 8 bytes at any n.  Any other
    input is copied.  Readers see an ordinary length-n array either way.
    A zero-stride input is validated on its one value, so it costs O(1)
    at any n.  The weight reducer takes the one-value layout as one run
    of equal weights, so the closed forms, scale factors and total_mass
    of a constant sequence cost O(log n) time and O(1) memory at any n.
    """

    a: np.ndarray
    #: the smallest and largest weight (inf and -inf for no weights)
    _extremes: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=np.float64)
        values = arr[:1] if _constant_layout(arr) else arr
        low, high = values.min(initial=math.inf), values.max(initial=-math.inf)
        # a nan makes the test fail too, and only then do the checks below
        # run, in the order of their messages
        if not (0.0 < low and high <= 1.0):
            if not np.isfinite(values).all():
                raise ParameterError("weights must be finite")
            bad = values[(values <= 0.0) | (values > 1.0)][0]
            raise ParameterError(f"weights must lie in (0, 1], got {float(bad)}")
        if low == high:
            arr = np.broadcast_to(np.array(low), arr.size)
        else:
            arr = arr.reshape(-1).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "_extremes", (float(low), float(high)))

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def total_mass(self) -> float:
        """K = sum a_i^2, with the bits of np.sum(a * a)."""
        return float(_weight_sums(self.a, lambda x, piece, scratch: np.multiply(
            x, x, out=scratch[0])))


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
    coeff_log_magnitude: np.ndarray  # log2 a_i^2 per index, in a's layout; sum over A: log2 |Phat(A)|^2
    total_mass: float                # K = sum a_i^2
    remark1_bound: float             # K * e^K, a strict upper bound for the influence
    log2_l2_sq: float                # sum log2(1 + a_i^2); finite even when l2_norm overflows


@dataclass(frozen=True)
class NormalizedClosedForm:
    """Influence and entropy of the unit-norm variants, plus the proof bound."""

    influence: float           # sum a_i^2 / (1 + a_i^2), always in [0, n)
    entropy: float
    entropy_lower_bound: float


def _log2_one_plus(a2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # log2(1 + a2) for squared weights a2.  log1p keeps full accuracy for
    # small a; /ln2 maps exactly onto log2 for a = 1 (both constants are
    # the same correctly rounded ln 2).
    lg = np.log1p(a2, out=out)
    return np.divide(lg, _LN2, out=lg)


def _step(ai, k: int, rows: list, children: list, t: np.ndarray) -> None:
    # step k of a row and its mirror row, or of a row that is its own: each
    # row becomes its eps = +1 child in place, its child the eps = -1 one.
    # Q_k is (-1)^k P_k reversed, so with t = a times the mirror row read
    # backwards, p + aQ and p - aQ are p + t and p - t, swapped for odd k
    for ti, mirror in zip(t, rows[::-1]):
        np.multiply(ai, mirror[::-1], out=ti)  # both before either row changes
    plus, minus = (np.add, np.subtract) if k % 2 == 0 else (np.subtract, np.add)
    for row, child, ti in zip(rows, children, t):
        minus(row, ti, out=child)  # the eps = -1 child first: it reads the parent
        plus(row, ti, out=row)


def _p_table(a: Sequence[float], p: np.ndarray) -> np.ndarray:
    """Fill the 2^n table p with P by the doubling step, in p's dtype; return p.

    The first half of the table is the eps = +1 branch (new index bit
    clear), the second half eps = -1, as in `spectrum`.  Each step reads
    Q from P (see _mirror), with the bits of the two-table step
    [p + aq, p - aq], [ap - q, -ap - q], signed zeros included.  The first
    15 steps double in place inside one block.  Above it, of r block-rows,
    row i's mirror is row r - 1 - i, and a step turns that pair into the
    pairs (i, 2r - 1 - i) and (r - 1 - i, r + i), depth first, so it writes
    the children while the parents are in cache.  Scratch is two blocks.

    p may also be a C-contiguous stack of tables along its last axis, one
    per weight row of `a` (shape (..., n)), each with the bits of its own;
    scratch is then two blocks per table.  The steps run along axis 0 of
    the transposes, which for one table are the table and its weights.
    """
    table, p = p, p.T
    a = np.asarray(a, dtype=p.dtype).T  # a[k]: step k's weight of each table
    n = len(a)
    block = min(len(p), spectrum._BLOCK)
    low = block.bit_length() - 1
    t = np.empty((2, block, *p.shape[1:]), dtype=p.dtype)
    p[0] = 1.0
    for k in range(low):
        m = 1 << k
        _step(a[k], k, [p[:m]], [p[m : 2 * m]], t[:, :m])

    grid = p.reshape(-1, block, *p.shape[1:])  # block-rows, views into p
    stack = [(0, low)] if n > low else []
    while stack:
        i, k = stack.pop()
        r = 1 << (k - low)
        pair = list(dict.fromkeys((i, r - 1 - i)))  # one row at r = 1: its own mirror
        _step(a[k], k, [grid[j] for j in pair], [grid[j + r] for j in pair], t)
        stack += [(j, k + 1) for j in pair if k + 1 < n]
    return table


def _mirror(p: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Q from the 2^n table p of P: out[x] = (-1)^n p[~x]; returns out.

    ~x flips every sign of x: the table read backwards.  With J the swap
    of (P, Q), the step D_e = [[1, e a], [e a, -1]] has J D_e J = -D_{-e},
    and the start is (1, 1) = J (1, 1), so Q(x) = (-1)^n P(~x).  Each step
    of the mirrored run negates or swaps the operands of the same products
    and two-term sums, and round to nearest commutes with both, so this
    holds bit for bit but for the sign of zeros.  No table holds -0.0 (a
    sum is -0.0 only of two -0.0s), so out is 0.0 - x or 0.0 + x, keeping
    +0.0; one block at a time, so out may be the other plane of p's array.
    A stack of tables along the last axis is mirrored table by table,
    along axis 0 of the transposes.
    """
    q, p = out.T, p.T
    size = len(p)
    block = min(size, spectrum._BLOCK)
    sign = np.subtract if n % 2 else np.add
    for lo in range(0, size, block):
        sign(0.0, p[size - lo - block : size - lo][::-1], out=q[lo : lo + block])
    return out


def subset_products(factors: Sequence[float], dtype=np.float64) -> np.ndarray:
    """Table t with t[m] = prod of factors[i] over the set bits of m.

    Built by the same doubling as the value tables, in place inside the
    final array (t[m:2m] = t[:m] * factors[i]), so t is generated in
    ascending mask order; linear domain, for mask counts within cap.
    Factors of shape (..., n) give one such table per row, shape (..., 2^n).
    """
    factors = np.asarray(factors, dtype=dtype)
    t = np.empty((*factors.shape[:-1], 1 << factors.shape[-1]), dtype=dtype)
    t[..., 0] = 1.0
    _doubled(t.T, np.multiply, factors.T)  # along axis 0 of the transposes
    return t


def build_pq(params: ParamSeq, max_table_n: int | None = None) -> RSPair:
    """Value tables of the pair for these weights, float64 like every real table."""
    check_table_dim(params.n, max_table_n)
    p = _p_table(params.a, np.empty(1 << params.n))
    q = _mirror(p, params.n, np.empty_like(p))
    return RSPair(*(_adopt(HypercubeFunction, params.n, t) for t in (p, q)))


#: Packed point bits held per chunk: bounds the working memory of
#: evaluate_many at any n.
_CHUNK_BYTES = 1 << 20
#: Largest chunk of points: keeps the wide loop's four per-point
#: vectors (4 x 32 KiB) cache-resident.
_CHUNK_MAX_POINTS = 4096
#: Chunks of up to this many points run the doubling step as a Python
#: float loop per point; wider chunks run it as four numpy ufuncs per
#: coordinate across the chunk.  Measured at n = 1000 (2 CPUs, Python
#: 3.11, numpy 2.4): the ufunc loop costs ~3 us per coordinate at any
#: width up to 64 points, the float loop ~0.12 us per point and
#: coordinate, so the two meet at 24 to 32 points.
_SCALAR_LOOP_MAX_POINTS = 24


def _points_per_chunk(n: int) -> int:
    return max(1, min(_CHUNK_MAX_POINTS, _CHUNK_BYTES // max(1, (n + 7) // 8)))


def _point_bytes(points: list, n: int) -> bytes:
    # little-endian bytes of each point, concatenated: bit i of a point
    # is bit i % 8 of its byte i // 8
    size = 1 << n
    width = (n + 7) // 8
    out = []
    for x in points:
        try:
            x = operator.index(x)
        except TypeError:
            raise ParameterError(f"point index must be an integer, got {x!r}") from None
        if not 0 <= x < size:
            raise ParameterError(f"point index {x} out of range for dimension {n}")
        out.append(x.to_bytes(width, "little"))
    return b"".join(out)


def _signed_weight_blocks(a: np.ndarray, packed: np.ndarray):
    """Blocks sa[j, s] = -a_i if bit i of point s is set else a_i, i = lo + j.

    `packed` holds one row of little-endian point bytes per point; the
    blocks cover i = 0..n-1 in order, about _BLOCK entries each.
    """
    n = a.size
    step = 8 * max(1, spectrum._BLOCK // (8 * packed.shape[0]))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        bits = np.unpackbits(
            packed[:, lo // 8 : (hi + 7) // 8].T, axis=0, count=hi - lo, bitorder="little"
        )
        w = a[lo:hi, None]
        yield np.where(bits.view(np.bool_), -w, w)


def _scalar_doubling(blocks, p: np.ndarray, q: np.ndarray) -> None:
    ps, qs = p.tolist(), q.tolist()
    for sa in blocks:
        for s, col in enumerate(sa.T.tolist()):
            pv, qv = ps[s], qs[s]
            for x in col:
                pv, qv = pv + x * qv, x * pv - qv
            ps[s], qs[s] = pv, qv
    p[:] = ps
    q[:] = qs


def _ufunc_doubling(blocks, p: np.ndarray, q: np.ndarray) -> None:
    t1 = np.empty_like(p)
    t2 = np.empty_like(p)
    # positional out= arguments: ufunc call overhead is most of the
    # cost per coordinate at these widths
    mul, add, sub = np.multiply, np.add, np.subtract
    for sa in blocks:
        for row in sa:
            mul(row, q, t1)
            mul(row, p, t2)
            add(p, t1, p)
            sub(t2, q, q)


def evaluate_many(params: ParamSeq, points) -> tuple[np.ndarray, np.ndarray]:
    """Pair values at many points, O(n) time per point, no table.

    `points` is any iterable of integer point indices in [0, 2^n), bit i
    set meaning eps_{i+1} = -1.  Returns float64 arrays (p, q) in the
    order of `points`.  Each coordinate runs the doubling step with the
    signed weight s = -a_i or a_i as p, q = p + s*q, s*p - q: the same
    roundings as build_pq (negation is exact and x - y is x + (-y)),
    so in-cap results are bit-identical to build_pq entries, signed
    zeros included.  Points are read lazily, one chunk of at most 1 MiB
    of packed bits and 4096 points at a time, so working memory stays a
    few MiB at any n and any number of points (beyond the 16 bytes per
    point of the result).
    """
    n = params.n
    points = iter(points)
    chunk = _points_per_chunk(n)
    ps, qs = [np.ones(0)], [np.ones(0)]
    while pts := list(islice(points, chunk)):
        m = len(pts)
        packed = np.frombuffer(_point_bytes(pts, n), dtype=np.uint8).reshape(m, -1)
        doubling = _scalar_doubling if m <= _SCALAR_LOOP_MAX_POINTS else _ufunc_doubling
        ps.append(np.ones(m))
        qs.append(np.ones(m))
        doubling(_signed_weight_blocks(params.a, packed), ps[-1], qs[-1])
        del pts, packed  # before islice reads the next chunk
    return np.concatenate(ps), np.concatenate(qs)


def evaluate_at(params: ParamSeq, point: int) -> tuple[complex, complex]:
    """Pair values at one point, O(n) time, no table.

    A batch of one through evaluate_many, so for in-cap n the results
    are bit-identical to build_pq entries.
    """
    p, q = evaluate_many(params, [point])
    return complex(p[0]), complex(q[0])


def _or_inf(fn, *args) -> float:
    # float ** and math.exp raise OverflowError where the value passes
    # the float range; the closed-form report saturates to inf instead
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


def _weight_sums(a: np.ndarray, terms, rows: int = 1):
    """The one walk over the weights: per-weight terms, each row summed.

    terms(x, piece, scratch) returns per-weight terms of x = a[piece]: one
    row, or several as a 2-D array such as scratch, which holds `rows` rows
    of x.size.  Each row comes back summed, with the bits of np.sum over
    the whole row.

    ParamSeq's one-value layout is one run of n equal weights, whose
    terms are equal too, and the pairwise sum of n copies of t depends on
    (t, n) alone: so terms sees the one weight, and each row is summed by
    spectrum._run_sum(t, n), in O(log n) time and O(1) memory at any n.
    Dense weights are walked in pieces of at most 2^15 along np.sum's
    pairwise split (spectrum._pairwise_sum), each piece's rows added by
    np.add.reduce along the last axis.
    """
    if _constant_layout(a):
        # the weight as a contiguous copy, which numpy's loops treat as
        # they treat a dense piece
        return _run_sum(terms(a[:1].copy(), slice(0, 1), np.empty((rows, 1)))[..., 0], a.size)
    scratch = np.empty((rows, min(a.size, spectrum._BLOCK)))
    return _pairwise_sum(lambda lo, hi: np.add.reduce(
        terms(a[lo:hi], slice(lo, hi), scratch[:, : hi - lo]), axis=-1), 0, a.size)


def _closed_form_sums(a: np.ndarray, log2_out: np.ndarray | None = None):
    """_weight_sums of p_i, p_i log2 a_i^2, log2(1 + a_i^2), a_i^2 log2 a_i^2
    and a_i^2, where p_i = a_i^2 / (1 + a_i^2); 2 log2 a_i goes to log2_out."""

    def terms(x, piece, scratch):
        frac, weighted, log2_one_plus, mass_log, a2 = scratch
        np.multiply(x, x, out=a2)
        np.divide(a2, np.add(a2, 1.0, out=frac), out=frac)    # a_i^2 / (1 + a_i^2)
        log2_a2 = np.log2(x, out=weighted if log2_out is None else log2_out[piece])
        log2_a2 *= 2.0
        np.multiply(a2, log2_a2, out=mass_log)
        np.multiply(frac, log2_a2, out=weighted)
        _log2_one_plus(a2, out=log2_one_plus)
        return scratch

    return _weight_sums(a, terms, 5)


def _log2_domain_entropy(a: np.ndarray, log2_a2: np.ndarray, total: float) -> float:
    # entropy term by term, term i being -2^t_i a_i^2 log2 a_i^2 with
    # t_i = total - log2(1 + a_i^2): as 2^(t_i + log2 a_i^2) it keeps the
    # share of an a_i^2 that underflows, and stays finite where the
    # product passes the float range
    def terms(x, piece, scratch):
        lg2 = log2_a2[piece]
        t = _log2_one_plus(np.multiply(x, x, out=scratch[0]), out=scratch[0])
        np.subtract(total, t, out=t)
        t = np.exp2(np.add(t, lg2, out=t), out=t)
        t *= lg2
        t[lg2 == 0.0] = 0.0          # a_i = 1 adds exactly 0 (not inf * 0)
        return t

    # terms past the range read inf; inf * 0 reads nan until masked
    with np.errstate(over="ignore", invalid="ignore"):
        return float(-_weight_sums(a, terms))


def closed_form(params: ParamSeq) -> ClosedFormReport:
    """Exact norms, influence and entropy of the raw pair, any n.

    With p_i = a_i^2 / (1 + a_i^2), T = sum log2(1 + a_i^2) and
    L = 2^T = ||P||_2^2,

        I = sum_i a_i^2 prod_{j != i}(1 + a_j^2) = L * sum p_i,
        H = -L * sum p_i log2 a_i^2,

    so both come from the sums normalized_closed_form takes (one
    blockwise pass, _closed_form_sums), with no per-index products.
    I is L times its sum, inf past the float range (exact for unit
    weights: I = n 2^(n-1)).  H is L times its sum when L is finite and
    every a_i^2 is a normal float (a_i >= 2^-511); otherwise H is taken
    term by term in log2 domain, 2^(T - log2(1 + a_i^2) + log2 a_i^2)
    times -log2 a_i^2, so a weight whose square underflows still adds
    its share.  Unit weights add exactly 0 to H either way.

    Linear-scale fields saturate to inf past the float range, with no
    warning; log2_l2_sq and coeff_log_magnitude stay finite.
    log2_l2_sq, total_mass, the norms, remark1_bound and
    coeff_log_magnitude (2 log2 a_i, read-only) have the bits of
    whole-array numpy expressions; I and H agree with a 60-digit
    reference to about 1e-15 relative for the paper's weights at
    n = 10^6.  coeff_log_magnitude takes the layout of params.a: an
    n-array for dense weights, and for equal weights their one value
    broadcast to n (8 bytes), so equal weights cost O(log n) time and
    O(1) memory here at any n.
    """
    a = params.a
    constant = _constant_layout(a)
    log2_a2 = np.empty(1 if constant else a.size)
    sums = _closed_form_sums(a, log2_a2)
    if constant:
        log2_a2 = np.broadcast_to(log2_a2.reshape(()), a.shape)
    log2_a2.setflags(write=False)
    frac, weighted, total, _, k = map(float, sums)
    l2 = _or_inf(pow, 2.0, 0.5 * total)
    l2_sq = _or_inf(pow, 2.0, total)
    # past the float range each p_i >= a_i^2 / 2 >= (ln 2 / 2) log2(1 + a_i^2),
    # so sum p_i >= 0.34 T > 1 and L * sum p_i passes the range too
    influence = l2_sq * frac if l2_sq < math.inf else math.inf
    if l2_sq < math.inf and params._extremes[0] >= 2.0**-511:
        entropy = l2_sq * -weighted
    else:
        entropy = _log2_domain_entropy(a, log2_a2, total)
    return ClosedFormReport(
        n=params.n,
        l2_norm=l2,
        linf_lower=l2,
        linf_upper=math.sqrt(2.0) * l2,
        influence=influence,
        entropy=entropy,
        coeff_log_magnitude=log2_a2,
        total_mass=k,
        remark1_bound=k * _or_inf(math.exp, k),
        log2_l2_sq=total,
    )


def normalized_closed_form(params: ParamSeq) -> NormalizedClosedForm:
    """Influence and entropy after scaling the pair to unit L2 norm.

    influence = sum a_i^2 / (1 + a_i^2)
    entropy   = -sum (a_i^2 / (1 + a_i^2)) log2 a_i^2  +  sum log2(1 + a_i^2)
    and the lower bound (-1 / (1 + max a_i^2)) sum a_i^2 log2 a_i^2,
    which the entropy strictly exceeds whenever some a_i < 1.

    The sums come from _closed_form_sums, so every result has the bits
    of the whole-array sums; max a_i is the one ParamSeq validated.
    Dense weights take O(n) time in 1.3 MiB of scratch (five rows of
    one 2^15-weight piece).  Equal weights, which ParamSeq stores as one
    value, are one run: O(log n) time and under 10 KiB at any n, about
    25-55 us from n = 10^3 to 10^8 (2-CPU x86-64 host).
    """
    a = params.a
    if a.size == 0:
        return NormalizedClosedForm(0.0, 0.0, 0.0)
    influence, weighted, log2_l2_sq, mass_log, _ = _closed_form_sums(a)
    amax = params._extremes[1]
    # squaring is monotone under rounding, so this is the largest a_i^2
    bound = -mass_log / (1.0 + amax * amax)
    return NormalizedClosedForm(float(influence), float(-weighted + log2_l2_sq), float(bound))


def _log2_l2_sq(params: ParamSeq) -> float:
    # log2 ||P||_2^2 = sum log2(1 + a_i^2), the same sum as closed_form's
    return float(_weight_sums(params.a, lambda x, piece, scratch: _log2_one_plus(
        np.multiply(x, x, out=scratch[0]), out=scratch[0])))


def _l2_scale_factor(params: ParamSeq) -> float:
    # 1 / ||P||_2
    return 2.0 ** (-0.5 * _log2_l2_sq(params))


def _unit_modulus_factor(params: ParamSeq) -> float:
    # 1 / (sqrt(2) ||P||_2), which puts (P + iQ) on the unit circle
    return 2.0 ** (-0.5 * (1.0 + _log2_l2_sq(params)))


def normalized_real(params: ParamSeq, max_table_n: int | None = None) -> HypercubeFunction:
    """P scaled to unit L2 norm; bounded by sqrt(2) pointwise."""
    check_table_dim(params.n, max_table_n)
    p = _p_table(params.a, np.empty(1 << params.n))
    p *= _l2_scale_factor(params)
    return _adopt(HypercubeFunction, params.n, p)


def unimodular_complex(params: ParamSeq, max_table_n: int | None = None) -> HypercubeFunction:
    """(P + iQ) / (sqrt(2) ||P||_2): every value on the unit circle.

    P is built and scaled in the real plane and mirrored into the
    imaginary one, as Q * c = +-(P * c) reversed: the bits of
    (p + 1j*q) * c, signed zeros included, as the tables never hold -0.0
    and are never both zero at a point (so p*c - q*0 is p*c, p*0 + q*c q*c).
    """
    check_table_dim(params.n, max_table_n)
    return _adopt(HypercubeFunction, params.n, _unimodular_table(params))


def _unimodular_table(params: ParamSeq) -> np.ndarray:
    # unimodular_complex's values as a writable table, with no cap check
    out = np.empty(1 << params.n, dtype=np.complex128)
    _p_table(params.a, out.real)
    out.real *= _unit_modulus_factor(params)
    _mirror(out.real, params.n, out.imag)
    return out


#: The most weights numpy can broadcast one float64 to: n * 8 bytes must
#: fit in np.intp
_MAX_WEIGHTS = np.iinfo(np.intp).max // 8


def _constant_weights(value: float, n: int) -> ParamSeq:
    """n copies of value, in ParamSeq's one-value layout (8 bytes at any n)."""
    if n > _MAX_WEIGHTS:
        raise ParameterError(f"dimension must be <= {_MAX_WEIGHTS} for a weight sequence, got {n}")
    if n == 0:
        ParamSeq(np.broadcast_to(value, 1))  # zero copies check nothing; check the value
    return ParamSeq(np.broadcast_to(value, n))


def theorem_params(n: int) -> ParamSeq:
    """The constant sequence a_i = 1/sqrt(n) of length n (n >= 1)."""
    n = _count("dimension", n, 1)
    return _constant_weights(1.0 / math.sqrt(n), n)


def remark3_params(n: int, a: float) -> ParamSeq:
    """Constant sequence sqrt(a/n) for a strictly inside (1, n).

    Downstream, the unit-norm variants then have influence strictly
    between a/2 and a, and entropy above (a/2)(log2 n - log2 a).
    """
    n, a = _count("dimension", n, 0), _float("scale", a)
    if not 1.0 < a < n:
        raise ParameterError(f"scale must satisfy 1 < a < n, got a={a}, n={n}")
    return _constant_weights(math.sqrt(a / n), n)


def normalized_sum(n: int, max_table_n: int | None = None) -> HypercubeFunction:
    """(eps_1 + ... + eps_n) / sqrt(n): unit norm, influence 1, entropy log2 n."""
    return neeman_function(n, math.inf, normalize=False, max_table_n=max_table_n)


def clamped_sum_l2_norm(n: int, clamp: float) -> float:
    """Exact L2 norm of clamp((eps_1+..+eps_n)/sqrt(n), +-clamp).

    The sum of coordinates is binomial over Hamming levels, so the norm
    needs only the n+1 level weights C(n, k) / 2^n, each a correctly
    rounded quotient of exact integers: finite at any n, no 2^n table;
    3 ms at n = 1024, 55 ms at 10^4, 3 s at 10^5 on a 2-CPU x86-64 host.
    """
    n = _count("dimension", n, 1)
    clamp = _clamp(clamp)
    inv_s = 1.0 / math.sqrt(n)
    size = 1 << n
    c = 1  # C(n, k)
    terms = []
    for k in range(n + 1):
        v = (n - 2 * k) * inv_s
        v = max(-clamp, min(clamp, v))
        terms.append(c / size * (v * v))
        c = c * (n - k) // (k + 1)
    return math.sqrt(math.fsum(terms))


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
    n = _count("dimension", n, 1)
    clamp = _clamp(clamp)
    check_table_dim(n, max_table_n)
    values = np.empty(1 << n)  # (n - 2 popcount) / sqrt(n), clamped, in place
    values[0] = n
    _doubled(values, np.subtract, repeat(2.0, n))  # values[m:2m] = values[:m] - 2: exact
    values /= math.sqrt(n)
    np.clip(values, -clamp, clamp, out=values)
    if normalize:
        values /= clamped_sum_l2_norm(n, clamp)
    return _adopt(HypercubeFunction, n, values)
