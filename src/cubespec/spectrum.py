"""Fourier-Walsh analysis of functions on the hypercube {-1,1}^n.

Conventions, fixed once so that tables, files and tests are bit-exact:

* A point of {-1,1}^n is an index x in [0, 2^n).  Bit (i-1) of x stores
  coordinate eps_i: bit value 0 means eps_i = +1, bit value 1 means
  eps_i = -1.
* A subset A of {1..n} is a mask m in [0, 2^n): bit (i-1) is set iff
  i belongs to A.  The character W_A evaluates as
      W_A(x) = prod_{i in A} eps_i = (-1)^popcount(m & x).
* The forward transform returns expectations,
      coeff[m] = 2^-n * sum_x f(x) * (-1)^popcount(m & x),
  so coefficients sit on the E(f * W_A) scale and the inverse transform
  carries no normalization factor.

From the squared coefficient weights w_m = |coeff[m]|^2 the module
computes the degree-weighted spectral mass (influence)
    I = sum_m w_m * popcount(m)
and the base-2 spectral entropy
    H = -sum_m w_m * log2(w_m),        0 * log 0 := 0,
which is the Shannon entropy of {w_m} when the function has unit L2
norm, and is used unchanged for non-normalized functions as well.

Values are stored as float64 for real input and complex128 for complex
input.  The dtype is the one record of realness (`is_real` reads it), and
transforms, `conjugate`, `lift_zero_mean` and `scale` by a real factor
keep a real table real.  Every transform runs through one in-place
kernel, `fwht_inplace`, with one block of scratch: constant-geometry
passes within each 2^15-element block, then butterflies between whole
block-rows for the higher index bits.  Tables of size 2^n are refused
above a configurable cap (default n = 26, about 1 GiB of values).  All
operations are pure and the stored arrays are frozen, so values are
safe to share across threads; reductions run in a fixed order for
run-to-run determinism.

Norms, influence, Parseval mass and entropy are reduced block by block:
each aligned 2^15-element block is squared, weighted and summed while
it sits in L2, with no table-sized temporary.  The per-block partial
sums are recombined along np.sum's own pairwise split (above the block
size a length L splits at L//2 - (L//2) % 8), so every sum is
bit-identical to np.sum over the whole table.  The live entropy terms
are compacted, in mask order, into the already-read front of the
transformed table and summed there with one np.sum, so the entropy has
the whole-array bits too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .errors import ParameterError, ResourceLimitError, _count

#: Largest dimension for which 2^n tables are built by default.
DEFAULT_TABLE_CAP = 26

#: Squared weights below this count as exact zero in entropy sums,
#: matching the 0*log(0) = 0 convention without log underflow noise.
ZERO_WEIGHT_CUTOFF = 1e-300


def _table_cap(max_table_n: int | None = None) -> int:
    return DEFAULT_TABLE_CAP if max_table_n is None else _count("table cap", max_table_n, 0)


def check_table_dim(n: int, max_table_n: int | None = None) -> None:
    """Raise ResourceLimitError when a 2^n table would exceed the cap."""
    if n > (cap := _table_cap(max_table_n)):
        raise ResourceLimitError(f"dimension n={n} exceeds the table cap {cap}; "
                                 f"a 2^{n}-entry table was refused")


def _freeze(obj, n, values, copy: bool = True):
    # checks n and the table, then stores n as a Python int and the table
    # frozen: complex128 for complex input, float64 for any other
    n = _count("dimension", n, 0)
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    arr = (np.array if copy else np.asarray)(values, dtype=dtype, order="C").reshape(-1)
    if arr.size != (1 << n):
        raise ParameterError(f"table length {arr.size} does not match 2^{n} = {1 << n}")
    # block by block: a table-sized bool temporary would outgrow a build's scratch
    if not all(np.isfinite(arr[lo : lo + _BLOCK]).all() for lo in range(0, arr.size, _BLOCK)):
        raise ParameterError("table contains non-finite values")
    arr.setflags(write=False)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, fields(obj)[1].name, arr)
    return obj


@dataclass(frozen=True)
class HypercubeFunction:
    """A function {-1,1}^n -> C as a frozen table of 2^n values."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        _freeze(self, self.n, self.values)

    @property
    def is_real(self) -> bool:
        """True iff the table is float64; complex128 is not real even when
        every imaginary part is zero."""
        return self.values.dtype.kind != "c"


@dataclass(frozen=True)
class FourierSpectrum:
    """Coefficient table indexed by subset masks (see module docstring)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _freeze(self, self.n, self.coeffs)


def _adopt(cls, n: int, table: np.ndarray):
    # cls(n, table) for a fresh float64 or complex128 table held nowhere else: checked
    # and frozen in place like the constructor does, but not copied again
    return _freeze(object.__new__(cls), n, table, copy=False)


@dataclass(frozen=True)
class SpectralStats:
    """Norms plus the two spectral functionals of one function."""

    l2_norm: float
    linf_norm: float
    influence: float
    entropy: float
    total_weight: float  # sum of squared coefficient weights (Parseval mass)


def _doubled(t: np.ndarray, op, steps) -> np.ndarray:
    # t[m:2m] = op(t[:m], step) for m = 1, 2, 4, ... in turn: fills t in place from t[0]
    for k, step in enumerate(steps):
        op(t[: 1 << k], step, out=t[1 << k : 2 << k])
    return t


def popcounts(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), in ascending mask order; a fresh table."""
    n = _count("dimension", n, 0)
    pc = np.zeros(1 << n, dtype=np.uint8)
    _doubled(pc, np.add, repeat(np.uint8(1), n))  # pc[m:2m] = pc[:m] + 1
    pc.setflags(write=False)
    return pc


# Kernel, table-build and reduction blocking.  A block of 2^15 elements
# is 256 KiB of float64 or 512 KiB of complex128, so two blocks and the
# scratch stay in a core's L2.  Reductions need at least 128 (np.sum's
# own pairwise leaf) and refuse a smaller block.
_BLOCK = 1 << 15


def _passes(x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    # `count` constant-geometry passes along axis 0, ping-ponging between
    # x and y; returns whichever of the two holds the result
    m = x.shape[0] // 2
    for _ in range(count):
        np.add(x[0::2], x[1::2], out=y[:m])
        np.subtract(x[0::2], x[1::2], out=y[m:])
        x, y = y, x
    return x


def _butterfly(x: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> None:
    # x, y = x + y, x - y for two block-rows, through one block of scratch
    np.add(x, y, out=scratch)
    np.subtract(x, y, out=y)
    np.copyto(x, scratch)


def fwht_inplace(table: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform of a 2^n table.

    `table`: 1-D, C-contiguous, length 2^n, any real or complex float dtype.
    The low 15 index bits run per aligned 2^15-element block as Pease's
    constant-geometry passes y[:m] = x[0::2] + x[1::2], y[m:] = x[0::2] -
    x[1::2] (m = len/2): the butterfly on index bit 0, then a rotation of
    the index bits, back in natural order after the last pass.  They
    ping-pong with the scratch block, copying back after an odd pass
    count.  The higher bits run as butterflies between whole contiguous
    block-rows, for h = 1, 2, 4, ... rows: rows j and j + h become their
    sum and difference, while both sit in cache.  Every output is the
    same sum or difference of the same operands, bit by bit in the same
    order, as in the plain butterfly loop (pass h maps (t[i], t[i+h]) to
    (t[i] + t[i+h], t[i] - t[i+h])), so results are bit-identical to it,
    signed zeros, inf and nan too.  Scratch is one block at every n.
    """
    size = table.size
    if table.ndim != 1 or not table.flags.c_contiguous or size < 1 or size & (size - 1):
        raise ParameterError("fwht_inplace needs a contiguous 1-D table of length 2^n")
    return _fwht(table)


def _fwht(table: np.ndarray) -> np.ndarray:
    """fwht_inplace of each row of a C-contiguous stack of 2^n tables, the
    last axis the table's: the same operations on every row, so each row
    gets the bits of its own transform.  Scratch is one block per row.

    The work runs along axis 0 of the transposes, which for one table are
    the table itself, so a stack of tables takes the one-table code."""
    t = table.T
    size = t.shape[0]
    block = min(size, _BLOCK)
    scratch = np.empty((*table.shape[:-1], block), dtype=table.dtype).T

    for start in range(0, size, block):
        seg = t[start : start + block]
        done = _passes(seg, scratch, block.bit_length() - 1)
        if done is not seg:
            np.copyto(seg, done)

    grid = t.reshape(-1, block, *t.shape[1:])
    rows = grid.shape[0]
    h = 1
    while h < rows:
        for j in range(rows):
            if not j & h:
                _butterfly(grid[j], grid[j + h], scratch)
        h *= 2
    return table


def walsh_transform(f: HypercubeFunction, max_table_n: int | None = None) -> FourierSpectrum:
    """Forward transform: coeff[m] = 2^-n sum_x f(x) (-1)^popcount(m & x)."""
    check_table_dim(f.n, max_table_n)
    table = f.values.copy()
    fwht_inplace(table)
    table *= math.ldexp(1.0, -f.n)  # exact power-of-two scaling
    return _adopt(FourierSpectrum, f.n, table)


def inverse_transform(s: FourierSpectrum, max_table_n: int | None = None) -> HypercubeFunction:
    """Inverse transform: value[x] = sum_m coeff[m] (-1)^popcount(m & x)."""
    check_table_dim(s.n, max_table_n)
    table = s.coeffs.copy()
    fwht_inplace(table)
    return _adopt(HypercubeFunction, s.n, table)


#: np.sum's pairwise leaf: a length of at most this many is added in one
#: unrolled loop, a longer one is split in two at _pairwise_split
_PAIRWISE_LEAF = 128


def _pairwise_split(length: int) -> int:
    # where np.sum's pairwise add splits a length above _PAIRWISE_LEAF
    half = length // 2
    return half - half % 8


def _pairwise_sum(leaf, start: int, stop: int):
    """Sum of [start, stop) in np.sum's order, one piece of at most _BLOCK at a time.

    np.sum adds pairwise: a length L above 128 splits at
    L//2 - (L//2) % 8 and the halves are summed recursively.  This makes
    the same splits down to pieces of at most _BLOCK elements and adds
    leaf(lo, hi) -- the np.sum of one piece, or an array of several such
    sums -- along them, calling leaf on the pieces in ascending order.
    The result is bit-identical to np.sum over the whole range (up to
    the sign of a zero total), for a _BLOCK of at least _PAIRWISE_LEAF:
    a smaller one splits pieces np.sum adds whole, so it is refused.
    """
    if _BLOCK < _PAIRWISE_LEAF:
        raise ValueError(f"reductions need a block of at least {_PAIRWISE_LEAF} entries "
                         f"(np.sum's pairwise leaf), got spectrum._BLOCK = {_BLOCK}")
    length = stop - start
    if length <= _BLOCK:
        return leaf(start, stop)
    mid = start + _pairwise_split(length)
    return _pairwise_sum(leaf, start, mid) + _pairwise_sum(leaf, mid, stop)


def _run_sum(t, length: int):
    """np.sum(np.full(length, t)), bit for bit, in O(log length) time and memory.

    A run of equal values is added along np.sum's pairwise split like any
    array, but the sum of each part depends on its length alone.  So each
    distinct length of the split's tree (about two per level) is summed
    once, and the leaves, of at most 128 copies, by np.add.reduce on a
    materialized copy.  An array `t` gives one run per value, summed along
    the last axis as np.sum(..., axis=-1) sums C-contiguous rows.
    """
    t = np.asarray(t, dtype=np.float64)
    memo = {}

    def total(m):
        if m not in memo:
            if m <= _PAIRWISE_LEAF:
                memo[m] = np.add.reduce(np.full((*t.shape, m), t[..., None]), axis=-1)
            else:
                half = _pairwise_split(m)
                memo[m] = total(half) + total(m - half)
        return memo[m]

    return total(length)


def _abs_squared(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    # |x|^2 into out[0]: re^2 + im^2 (im^2 goes through out[1]), not
    # abs()**2, so exact cases stay exact; x * x for real x
    if x.dtype.kind != "c":
        return np.multiply(x, x, out=out[0, : x.size])
    sq = np.multiply(x.real, x.real, out=out[0, : x.size])
    return np.add(sq, np.multiply(x.imag, x.imag, out=out[1, : x.size]), out=sq)


def _norm_sums(table: np.ndarray, source: np.ndarray | None = None):
    """(sum |x|^2, max |x|) over `table`, in np.sum/np.max order, block by block.

    With `source`, each block is first copied into `table` from it, so
    the copy and the norms take one pass.
    """
    block = min(table.size, _BLOCK)
    scratch = np.empty((2 if table.dtype.kind == "c" else 1, block), dtype=table.real.dtype)
    peaks = []

    def leaf(lo, hi):
        x = table[lo:hi]
        if source is not None:
            np.copyto(x, source[lo:hi])
        total = np.sum(_abs_squared(x, scratch))
        peaks.append(np.max(np.abs(x, out=scratch[0, : x.size])))
        return total

    return _pairwise_sum(leaf, 0, table.size), np.max(peaks)


def _spectral_sums(n: int, weights, spent: np.ndarray | None = None):
    """(influence, Parseval mass, entropy) of a 2^n spectrum, block by block.

    weights(lo, hi) returns the squared weights of masks [lo, hi) in a
    buffer of its own; blocks come in ascending order.  Influence
    sum_m w_m popcount(m) and mass sum_m w_m are recombined along
    np.sum's split (_pairwise_sum).  With `spent`, the entropy terms
    w log2 w of the live weights (w >= ZERO_WEIGHT_CUTOFF) are written,
    in mask order, to the front of it, and 0.0 - np.sum of them is
    the entropy: `spent` may be the transformed table itself, since the
    terms never run past the blocks already handed out.  Without it the
    entropy is None.  Sums are in `spent`'s dtype, float64 without it.
    """
    size = 1 << n
    block = min(size, _BLOCK)
    # an aligned block's popcounts are those of its low bits plus the
    # popcount of its high bits (an exact uint8 add)
    pc_low = popcounts(block.bit_length() - 1)
    pc = np.empty(block, dtype=np.uint8)
    scratch = np.empty(block, dtype=np.float64 if spent is None else spent.dtype)
    live = np.empty(block, dtype=bool)
    count = 0

    def leaf(lo, hi):
        nonlocal count
        w = weights(lo, hi)
        buf = scratch[: w.size]
        np.add(pc_low, np.uint8(lo.bit_count()), out=pc)
        sums = np.array((np.sum(np.multiply(w, pc, out=buf)), np.sum(w)))
        if spent is not None:
            keep = np.greater_equal(w, ZERO_WEIGHT_CUTOFF, out=live[: w.size])
            k = int(np.count_nonzero(keep))
            if k < w.size:
                w = np.compress(keep, w, out=buf[:k])
            terms = np.log2(w, out=spent[count : count + k])
            np.multiply(w, terms, out=terms)
            count += k
        return sums

    influence_sum, mass = _pairwise_sum(leaf, 0, size)
    if spent is None:
        return influence_sum, mass, None
    if np.isnan(mass):
        # a nan weight fails the cutoff test and would drop out of the
        # entropy; the weights are >= 0, so the mass is nan exactly then
        return influence_sum, mass, mass
    # 0.0 - sum, not -sum: a point mass's 1 * log2(1) = 0 reads +0.0, not -0.0
    entropy_sum = 0.0 - np.sum(spent[:count]) if count else spent.dtype.type(0.0)
    return influence_sum, mass, entropy_sum


def _coefficient_sums(s: FourierSpectrum, spent: np.ndarray | None = None):
    scratch = np.empty((2, min(s.coeffs.size, _BLOCK)))
    return _spectral_sums(s.n, lambda lo, hi: _abs_squared(s.coeffs[lo:hi], scratch), spent)


def influence(s: FourierSpectrum) -> float:
    """Degree-weighted spectral mass sum_m |coeff[m]|^2 popcount(m)."""
    return float(_coefficient_sums(s)[0])


def entropy(s: FourierSpectrum) -> float:
    """Base-2 entropy -sum w_m log2 w_m of the squared weights.

    Zero weights contribute nothing; the sum is well defined (and used)
    for non-normalized spectra too.
    """
    return float(_coefficient_sums(s, np.empty(s.coeffs.size))[2])


def stats(f: HypercubeFunction, max_table_n: int | None = None) -> SpectralStats:
    """L2/Linf norms plus influence, entropy and Parseval mass of f.

    Equal, field for field and bit for bit, to the norms of f and the
    functionals of walsh_transform(f).  The transform copy has f's
    dtype, float64 for a real f.  It is the one table-sized allocation: the
    norms are taken block by block as the table is copied in, and after
    the transform each block is scaled and squared and its influence,
    mass and entropy terms taken while it is in cache (see the module
    docstring for the summation order).
    """
    check_table_dim(f.n, max_table_n)
    return _table_stats(f.n, np.empty_like(f.values), f.values)


def _table_stats(n: int, table: np.ndarray, source: np.ndarray | None = None) -> SpectralStats:
    """stats of `source` copied into `table`, or of `table` itself, which
    is transformed in place: a caller that owns a table it needs no more
    gets its stats with no copy."""
    l2_sq, linf = _norm_sums(table, source)
    fwht_inplace(table)
    factor = math.ldexp(1.0, -n)  # exact power-of-two scaling
    scratch = np.empty((2, min(table.size, _BLOCK)))

    def weights(lo, hi):
        c = table[lo:hi]
        c *= factor
        return _abs_squared(c, scratch)

    infl, mass, ent = _spectral_sums(n, weights, table.view(np.float64))
    return SpectralStats(
        l2_norm=math.sqrt(float(l2_sq) * factor),
        linf_norm=float(linf),
        influence=float(infl),
        entropy=float(ent),
        total_weight=float(mass),
    )


def scale(f: HypercubeFunction, a: complex) -> HypercubeFunction:
    """Pointwise multiple a*f.

    Downstream statistics obey I(a f) = |a|^2 I(f) and
    H(|a f|-spectrum) = |a|^2 H - (|a|^2 log2 |a|^2) ||f||_2^2.
    A real f scaled by a real a (zero imaginary part) stays real.
    """
    a = complex(a)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ParameterError(f"scale factor must be finite, got {a!r}")
    factor = a.real if f.is_real and not a.imag else a
    return _adopt(HypercubeFunction, f.n, f.values * factor)


def conjugate(f: HypercubeFunction) -> HypercubeFunction:
    """Pointwise complex conjugate; squared coefficient weights are unchanged."""
    return _adopt(HypercubeFunction, f.n, np.conj(f.values))


def lift_zero_mean(f: HypercubeFunction, max_table_n: int | None = None) -> HypercubeFunction:
    """Multiply by a fresh coordinate: g(x, eps_{n+1}) = eps_{n+1} f(x).

    g lives on {-1,1}^(n+1), has zero mean, keeps the L2/Linf norms and
    the entropy of f, and gains exactly ||f||_2^2 of influence (every
    coefficient moves up one degree).
    """
    check_table_dim(f.n + 1, max_table_n)
    return _adopt(HypercubeFunction, f.n + 1, np.concatenate([f.values, -f.values]))
