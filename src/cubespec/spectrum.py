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

Values are stored as complex128 (a pair of float64 per point); real
functions are the subcase with zero imaginary part.  `stats` transforms
only the float64 real plane of such a table, which gives bit-identical
results at half the memory traffic; every other operation treats real
and complex tables alike.  Every transform runs through one in-place
kernel, `fwht_inplace`: cache-blocked constant-geometry passes with one
block of scratch.  Tables of size 2^n are refused above a configurable
cap (default n = 26, about 1 GiB of values).  All operations are pure
and the stored arrays are frozen, so values are safe to share across
threads; reductions run in a fixed order for run-to-run determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ResourceLimitError

#: Largest dimension for which 2^n tables are built by default.
DEFAULT_TABLE_CAP = 26

#: Squared weights below this count as exact zero in entropy sums,
#: matching the 0*log(0) = 0 convention without log underflow noise.
ZERO_WEIGHT_CUTOFF = 1e-300


def check_table_dim(n: int, max_table_n: int | None = None) -> None:
    """Raise ResourceLimitError when a 2^n table would exceed the cap."""
    cap = DEFAULT_TABLE_CAP if max_table_n is None else max_table_n
    if n > cap:
        raise ResourceLimitError(f"dimension n={n} exceeds the table cap {cap}; "
                                 f"a 2^{n}-entry table was refused")


def _frozen_table(values, n: int, copy: bool = True) -> np.ndarray:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ParameterError(f"dimension must be a non-negative integer, got {n!r}")
    arr = (np.array if copy else np.asarray)(values, dtype=np.complex128, order="C").reshape(-1)
    if arr.size != (1 << n):
        raise ParameterError(f"table length {arr.size} does not match 2^{n} = {1 << n}")
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise ParameterError("table contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HypercubeFunction:
    """A function {-1,1}^n -> C as a frozen table of 2^n values."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_table(self.values, self.n))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


@dataclass(frozen=True)
class FourierSpectrum:
    """Coefficient table indexed by subset masks (see module docstring)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_table(self.coeffs, self.n))


def _adopt(cls, n: int, table: np.ndarray):
    # cls(n, table) for a fresh complex128 table held nowhere else: checked
    # and frozen in place like the constructor does, but not copied again
    obj = object.__new__(cls)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, fields(cls)[1].name, _frozen_table(table, n, copy=False))
    return obj


@dataclass(frozen=True)
class SpectralStats:
    """Norms plus the two spectral functionals of one function."""

    l2_norm: float
    linf_norm: float
    influence: float
    entropy: float
    total_weight: float  # sum of squared coefficient weights (Parseval mass)


@lru_cache(maxsize=None)
def popcounts(n: int) -> np.ndarray:
    """popcount of every mask in [0, 2^n), in ascending mask order."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    pc.setflags(write=False)
    return pc


# Kernel blocking.  A block of 2^15 elements is 256 KiB of float64 or
# 512 KiB of complex128, so it and the scratch stay in a core's L2.
_BLOCK = 1 << 15
# Narrowest column slab for the high passes (rows of at least 128 bytes).
_MIN_SLAB_WIDTH = 16


def _passes(x: np.ndarray, y: np.ndarray, count: int) -> np.ndarray:
    # `count` constant-geometry passes along axis 0, ping-ponging between
    # x and y; returns whichever of the two holds the result
    m = x.shape[0] // 2
    for _ in range(count):
        np.add(x[0::2], x[1::2], out=y[:m])
        np.subtract(x[0::2], x[1::2], out=y[m:])
        x, y = y, x
    return x


def fwht_inplace(table: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform of a 2^n table.

    `table`: 1-D, C-contiguous, length 2^n, any real or complex float dtype.
    Each pass is Pease's constant-geometry step y[:m] = x[0::2] + x[1::2],
    y[m:] = x[0::2] - x[1::2] (m = len/2): the butterfly on index bit 0,
    then a rotation of the index bits, back in natural order after the
    last pass.  The low 15 bits run per aligned 2^15-element block,
    ping-ponging with a scratch buffer (one copy back after an odd pass
    count); the higher bits run per narrow column slab of the block-rows,
    ping-ponging between two halves of the scratch.  Every output is the
    same sum or difference of the same operands as in the plain butterfly
    loop (pass h maps (t[i], t[i+h]) to (t[i] + t[i+h], t[i] - t[i+h])),
    so results are bit-identical to it, signed zeros, inf and nan too.
    Scratch is one block (two _MIN_SLAB_WIDTH slabs above 2^25 elements).
    """
    size = table.size
    if table.ndim != 1 or not table.flags.c_contiguous or size < 1 or size & (size - 1):
        raise ParameterError("fwht_inplace needs a contiguous 1-D table of length 2^n")
    block = min(size, _BLOCK)
    rows = size // block
    width = min(block, max(block // (2 * rows), _MIN_SLAB_WIDTH))  # two slabs fill a block
    scratch = np.empty(max(block, 2 * rows * width), dtype=table.dtype)

    for start in range(0, size, block):
        seg = table[start : start + block]
        done = _passes(seg, scratch[:block], block.bit_length() - 1)
        if done is not seg:
            np.copyto(seg, done)

    if rows > 1:
        grid = table.reshape(rows, block)
        halves = scratch[: 2 * rows * width].reshape(2, rows, width)
        for col in range(0, block, width):
            slab = grid[:, col : col + width]
            np.copyto(halves[0], slab)
            np.copyto(slab, _passes(halves[0], halves[1], rows.bit_length() - 1))
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


def _squared_weights(coeffs: np.ndarray) -> np.ndarray:
    # re^2 + im^2 rather than abs()**2: keeps exact cases exact.
    return coeffs.real ** 2 + coeffs.imag ** 2


def _influence_sum(w: np.ndarray, n: int):
    """sum_m w[m] popcount(m), in w's dtype."""
    return np.sum(w * popcounts(n))


def _entropy_sum(w: np.ndarray):
    """-sum w log2 w over the weights at or above ZERO_WEIGHT_CUTOFF, in w's dtype."""
    live = w >= ZERO_WEIGHT_CUTOFF
    if not live.any():
        return w.dtype.type(0.0)
    if not live.all():
        w = w[live]
    terms = np.log2(w)
    np.multiply(w, terms, out=terms)
    return -np.sum(terms)


def influence(s: FourierSpectrum) -> float:
    """Degree-weighted spectral mass sum_m |coeff[m]|^2 popcount(m)."""
    return float(_influence_sum(_squared_weights(s.coeffs), s.n))


def entropy(s: FourierSpectrum) -> float:
    """Base-2 entropy -sum w_m log2 w_m of the squared weights.

    Zero weights contribute nothing; the sum is well defined (and used)
    for non-normalized spectra too.
    """
    return float(_entropy_sum(_squared_weights(s.coeffs)))


def stats(f: HypercubeFunction, max_table_n: int | None = None) -> SpectralStats:
    """L2/Linf norms plus influence, entropy and Parseval mass of f.

    Equal, field for field, to the norms of f and the functionals of
    walsh_transform(f).  A table whose imaginary parts are all zero is
    transformed in its float64 real plane alone: the complex butterfly
    adds and subtracts the two planes independently and the imaginary
    plane would only contribute +0.0 to every squared weight.
    """
    check_table_dim(f.n, max_table_n)
    values = f.values
    real = f.is_real
    if real:
        plane = values.real
        l2_sq = np.sum(plane * plane)
        linf = np.max(np.abs(plane))  # |x + 0j| == |x| exactly
        table = plane.copy()
    else:
        l2_sq = np.sum(_squared_weights(values))
        linf = np.max(np.abs(values))
        table = values.copy()
    fwht_inplace(table)
    table *= math.ldexp(1.0, -f.n)
    if real:
        w = np.multiply(table, table, out=table)
    else:
        # square both planes in place, then one float64 sum of the two
        np.multiply(table.real, table.real, out=table.real)
        np.multiply(table.imag, table.imag, out=table.imag)
        w = np.add(table.real, table.imag)
        del table  # the reductions below need only w
    return SpectralStats(
        l2_norm=math.sqrt(float(l2_sq) * math.ldexp(1.0, -f.n)),
        linf_norm=float(linf),
        influence=float(_influence_sum(w, f.n)),
        entropy=float(_entropy_sum(w)),
        total_weight=float(np.sum(w)),
    )


def scale(f: HypercubeFunction, a: complex) -> HypercubeFunction:
    """Pointwise multiple a*f.

    Downstream statistics obey I(a f) = |a|^2 I(f) and
    H(|a f|-spectrum) = |a|^2 H - (|a|^2 log2 |a|^2) ||f||_2^2.
    """
    a = complex(a)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ParameterError(f"scale factor must be finite, got {a!r}")
    return _adopt(HypercubeFunction, f.n, f.values * a)


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
