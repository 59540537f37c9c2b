"""Expected values the benchmark checks cubespec's outputs against.

Plain Python only: math.fsum / math.log1p and exact binomials, no numpy
and no call into cubespec.  Weight sequences are given as runs of
(weight, count) pairs, so a constant sequence of length 10^6 costs one
term while a seeded random sequence is one run per coordinate; the sums
are the O(n) product closed forms of the paper, never a 2^n enumeration.

Conventions match the library: base-2 logs, coefficients on the
expectation scale, influence = sum_A |A| fhat(A)^2.
"""

from __future__ import annotations

import math

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

#: Relative tolerance for brute-force or closed-form values against the
#: references here; the certificates themselves use the same figure.
REL_TOL = 1e-9
#: Absolute tolerance for norms that are exactly 1 (or sqrt(2)) in exact
#: arithmetic; a 2^22-term pairwise float64 sum stays far inside it.
ABS_TOL = 1e-12


def runs_of(weights) -> list[tuple[float, int]]:
    return [(float(w), 1) for w in weights]


def constant_runs(n: int, w: float) -> list[tuple[float, int]]:
    return [(float(w), n)]


def theorem_weight(n: int) -> float:
    return 1.0 / math.sqrt(n)


def remark3_weight(n: int, a: float) -> float:
    return math.sqrt(a / n)


def _fsum_runs(runs, term) -> float:
    return math.fsum(term(w) * k for w, k in runs)


def unit_norm_influence(runs) -> float:
    """Influence of P/||P||_2 (and of the modulus-one family): sum a^2/(1+a^2)."""
    return _fsum_runs(runs, lambda w: w * w / (1.0 + w * w))


def unit_norm_entropy(runs) -> float:
    """Entropy of the unit-norm families:
    sum [ -(a^2/(1+a^2)) log2 a^2 + log2(1+a^2) ]."""
    def term(w):
        w2 = w * w
        return -(w2 / (1.0 + w2)) * 2.0 * math.log2(w) + math.log1p(w2) / LN2
    return _fsum_runs(runs, term)


def entropy_lower_bound(runs) -> float:
    """(-1 / (1 + max a^2)) sum a^2 log2 a^2, the proof's bound."""
    top = max(w * w for w, _ in runs)
    return -_fsum_runs(runs, lambda w: w * w * 2.0 * math.log2(w)) / (1.0 + top)


def raw_pair(runs) -> dict:
    """Norm, influence and entropy of the unnormalized pair P (or Q).

    With L = prod(1 + a_i^2): ||P||_2^2 = L, I(P) = L sum a^2/(1+a^2) and
    H(P) = -L sum (a^2/(1+a^2)) log2 a^2.
    """
    log_l = _fsum_runs(runs, lambda w: math.log1p(w * w))
    big_l = math.exp(log_l)
    frac_log = _fsum_runs(runs, lambda w: (w * w / (1.0 + w * w)) * 2.0 * math.log2(w))
    return {
        "l2_norm": math.sqrt(big_l),
        "influence": big_l * unit_norm_influence(runs),
        "entropy": -big_l * frac_log,
        "total_mass": _fsum_runs(runs, lambda w: w * w),
    }


def clamped_levels(n: int, clamp: float) -> list[float]:
    """Value of clip((eps_1+..+eps_n)/sqrt(n), +-clamp) on Hamming level k
    (k coordinates at -1), for k = 0..n."""
    root = math.sqrt(n)
    return [max(-clamp, min(clamp, (n - 2 * k) / root)) for k in range(n + 1)]


def clamped_sum(n: int, clamp: float) -> dict:
    """Raw L2 norm and the unit-norm function's influence, from n+1 levels.

    Flipping one coordinate from +1 to -1 moves a point from level j to
    j+1, so I = n * E_j[((g(j) - g(j+1)) / 2)^2] with j ~ Binomial(n-1, 1/2).
    """
    g = clamped_levels(n, clamp)
    raw_sq = math.ldexp(math.fsum(math.comb(n, k) * g[k] * g[k] for k in range(n + 1)), -n)
    raw = math.sqrt(raw_sq)
    h = [v / raw for v in g]
    infl = n * math.ldexp(
        math.fsum(math.comb(n - 1, j) * ((h[j] - h[j + 1]) / 2.0) ** 2 for j in range(n)),
        -(n - 1),
    )
    return {"raw_l2_norm": raw, "influence": infl, "linf": max(abs(v) for v in h)}


def rel_err(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1e-300)


class Checker:
    """Collects failed expectations as readable strings."""

    def __init__(self):
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.problems.append(what)

    def rel(self, what: str, value, target: float, tol: float = REL_TOL) -> None:
        if not (isinstance(value, (int, float)) and math.isfinite(value)) or rel_err(value, target) > tol:
            self.fail(f"{what}: got {value!r}, expected {target!r} (rel tol {tol})")

    def near(self, what: str, value, target: float, tol: float = ABS_TOL) -> None:
        if not (isinstance(value, (int, float)) and abs(value - target) <= tol):
            self.fail(f"{what}: got {value!r}, expected {target!r} (abs tol {tol})")

    def at_most(self, what: str, value, limit: float) -> None:
        if not (isinstance(value, (int, float)) and value <= limit):
            self.fail(f"{what}: got {value!r}, limit {limit!r}")

    def true(self, what: str, cond: bool) -> None:
        if not cond:
            self.fail(what)
