"""Certificates, the extended-precision oracle, and the pinned regressions."""

import inspect
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cubespec as cs
import oracles as orc
from cubespec import verify
from cubespec.verify import (
    NEEMAN_INFLUENCE_BAND,
    check_abs,
    check_ge,
    check_le,
    check_lt,
    check_rel,
)

# brute-force (influence, entropy) of the normalized clamp=2 family,
# pinned from the first oracle run; guarded at 1e-12 relative
CLAMPED_SUM_PINS = {
    8: (1.0134006751184441, 3.0682819378695303),
    12: (1.0198383863205696, 3.690908190632437),
    16: (1.027694708100377, 4.131812432348207),
    20: (1.023534562822317, 4.460377975555527),
}


def rel_close(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


#: Public entry points that take an integer dimension or count, as (call
#: with that integer, least accepted value); each call is valid at 4.
COUNT_TAKERS = {
    "HypercubeFunction": (lambda n: cs.HypercubeFunction(n, np.ones(16)), 0),
    "FourierSpectrum": (lambda n: cs.FourierSpectrum(n, np.ones(16)), 0),
    "popcounts": (cs.popcounts, 0),
    "theorem_params": (cs.theorem_params, 1),
    "remark3_params": (lambda n: cs.remark3_params(n, 2.0), 0),
    "neeman_function": (cs.neeman_function, 1),
    "normalized_sum": (cs.normalized_sum, 1),
    "clamped_sum_l2_norm": (lambda n: cs.clamped_sum_l2_norm(n, 2.0), 1),
    "spotcheck samples": (lambda k: cs.modulus_spotcheck(cs.theorem_params(3), samples=k), 1),
    "certify_theorem1": (cs.certify_theorem1, 1),
    "certify_theorem2": (cs.certify_theorem2, 1),
    "certify_remark2": (cs.certify_remark2, 1),
    "certify_remark3": (lambda n: cs.certify_remark3(n, 2.0), 0),
    "certify_neeman": (cs.certify_neeman, 1),
    "neeman_regression": (lambda n: cs.neeman_regression([n]), 1),
    "certify_classical_rs": (cs.certify_classical_rs, 0),
    "oracle_campaign": (lambda n: cs.oracle_campaign(n, trials=2, seed=7), 0),
    "campaign trials": (lambda k: cs.oracle_campaign(3, trials=k, seed=7), 1),
}
BAD_COUNTS = [2.5, np.float64(4.0), "4", None]

#: Every certificate kind, called with a tolerance at n = 30: above the
#: table cap, so oracle or table work before the tolerance check raises
#: ResourceLimitError, not ParameterError.
TOL_TAKERS = {
    "theorem1": lambda tol: cs.certify_theorem1(30, tol),
    "theorem2": lambda tol: cs.certify_theorem2(30, tol),
    "remark2": lambda tol: cs.certify_remark2(30, tol),
    "remark3": lambda tol: cs.certify_remark3(30, 2.0, tol),
    "classical_rs": lambda tol: cs.certify_classical_rs(30, tol),
    "neeman": lambda tol: cs.certify_neeman(30, 2.0, tol),
}
#: 1e400 reads as inf, as `verify --tol 1e400` does, and so does an int past the float range
BAD_TOLS = {"0": 0.0, "-1e-9": -1e-9, "nan": math.nan, "inf": math.inf, "1e400": 1e400,
            "10**400": 10**400}

#: A scalar number that is a string, None or an int past the float range,
#: and a table cap that is not an integer >= 0, as (call, message)
_F3 = cs.normalized_real(cs.theorem_params(3))
BAD_NUMBERS = {
    "remark3_params a='2'": (lambda: cs.remark3_params(4, "2"), "scale must be a number, got '2'"),
    "remark3_params a=None": (lambda: cs.remark3_params(4, None),
                              "scale must be a number, got None"),
    "remark3_params a=10**400": (lambda: cs.remark3_params(4, 10**400), "got a=inf, n=4"),
    "certify_remark3 a='2'": (lambda: cs.certify_remark3(30, "2"), "scale must be a number"),
    "campaign low='0.5'": (lambda: cs.oracle_campaign(3, trials=1, low="0.5"),
                           "low must be a number"),
    "theorem1 cap='30'": (lambda: cs.certify_theorem1(3, max_table_n="30"),
                          "table cap must be an integer, got '30'"),
    "stats cap='30'": (lambda: cs.stats(_F3, "30"), "table cap must be an integer, got '30'"),
    "stats cap=2.5": (lambda: cs.stats(_F3, 2.5), "table cap must be an integer, got 2.5"),
    "stats cap=-1": (lambda: cs.stats(_F3, -1), "table cap must be >= 0, got -1"),
}


def _numpy_integers_are_counts():
    for call, _ in COUNT_TAKERS.values():
        result = call(np.int64(4))
        if isinstance(result, verify.Certificate):
            json.dumps(result.to_dict())  # n and the pass flags are Python types


class TestCheckHelpers:
    def test_strict_less_margin(self):
        c = check_lt("x", 1.0, 2.0)
        assert c.passed and c.margin == 1.0 and c.relation == "<"

    def test_strict_less_failure_keeps_negative_margin(self):
        c = check_lt("x", 3.0, 2.0)
        assert not c.passed and c.margin == -1.0

    def test_ge_le_pair(self):
        assert check_ge("x", 1.5, 1.0).passed
        assert not check_ge("x", 0.5, 1.0).passed
        assert check_le("x", 1.0, 1.5).passed

    def test_abs_tolerance_margin(self):
        c = check_abs("x", 1.0 + 3e-13, 1.0, 1e-12)
        assert c.passed and 0 < c.margin <= 1e-12

    def test_rel_tolerance_handles_tiny_targets(self):
        assert check_rel("x", 0.0, 0.0, 1e-9).passed


class TestCertificateObject:
    def test_to_dict_is_json_serializable(self):
        cert = cs.certify_theorem1(4)
        d = cert.to_dict()
        json.dumps(d)
        assert d["kind"] == "theorem1" and d["n"] == 4 and d["overall"] is True
        assert {c["name"] for c in d["checks"]} >= {"l2_norm_unit", "entropy_above_bound"}

    def test_to_text_layout(self):
        text = cs.certify_theorem1(4).to_text()
        lines = text.splitlines()
        assert lines[0].startswith("certificate kind=theorem1 n=4")
        assert lines[-1] == "overall=true"
        assert any(line.startswith("check name=entropy_above_bound") for line in lines)

    def test_overall_is_conjunction(self):
        # at tol 1e-30 the gate and the influence and entropy targets fail,
        # the rest pass
        cert = cs.certify_theorem1(8, 1e-30)
        passed = [c.passed for c in cert.checks]
        assert any(passed) and not all(passed) and not cert.overall
        assert [c.name for c in cert.checks if not c.passed] == [
            "closed_form_oracle_agreement", "influence_equals_target", "entropy_equals_target"]
        assert cs.certify_theorem1(8).overall

    def test_verdict_and_log_base_cannot_be_set_apart_from_the_checks(self):
        checks = (check_lt("ok", 1.0, 2.0), check_lt("bad", 3.0, 2.0))
        cert = cs.Certificate("theorem1", 4, {"tol": 1e-9}, checks)
        assert cert.overall is False and cert.log_base == 2
        assert cs.Certificate("theorem1", 4, {}, checks[:1]).overall is True
        assert [f.name for f in fields(cs.Certificate)] == ["kind", "n", "inputs", "checks"]
        for extra in ({"overall": True}, {"log_base": 10}):
            with pytest.raises(TypeError):
                cs.Certificate("theorem1", 4, {}, checks, **extra)
        d = cert.to_dict()
        assert list(d) == ["kind", "n", "log_base", "inputs", "checks", "overall"]
        assert d["log_base"] == 2 and d["overall"] is False
        assert cert.to_text().splitlines()[0] == "certificate kind=theorem1 n=4 log_base=2"
        assert cert.to_text().splitlines()[-1] == "overall=false"

    def test_verdict_and_log_base_cannot_be_assigned(self):
        cert = cs.certify_theorem1(4)
        for name, value in (("overall", False), ("log_base", 10)):
            with pytest.raises(AttributeError):
                setattr(cert, name, value)
        assert cert.overall is True and cert.log_base == 2

    def test_replaced_checks_carry_their_own_verdict(self):
        # a stored verdict would survive replace() and disagree with the
        # new checks; the derived one follows them both ways
        cert = cs.certify_theorem1(4)
        failing = replace(cert, checks=cert.checks + (check_lt("bad", 3.0, 2.0),))
        assert cert.overall is True and failing.overall is False
        assert replace(failing, checks=cert.checks).overall is True
        assert failing.to_text().splitlines()[-1] == "overall=false"


#: The certificates whose closed forms are gated against the oracle, by kind
GATED = {
    "theorem1": cs.certify_theorem1,
    "theorem2": cs.certify_theorem2,
    "remark2": cs.certify_remark2,
    "remark3": lambda n, **kw: cs.certify_remark3(n, 2.0, **kw),
    "classical_rs": cs.certify_classical_rs,
}
CERTIFY = {**GATED, "neeman": cs.certify_neeman}


class TestAssemblerRule:
    """One rule builds every certificate: the any-n `cf_` checks at every n;
    within the table cap the oracle gate as check 0, then the table checks."""

    @pytest.mark.parametrize("cap", [None, 17])
    @pytest.mark.parametrize("kind", ["theorem1", "theorem2", "remark2", "classical_rs", "neeman"])
    def test_no_any_n_checks_refused_above_the_cap_before_oracle_or_table(self, kind, cap):
        # a table at cap + 1 = 18 is 2 MiB; the refusal allocates almost nothing
        n = (cs.spectrum.DEFAULT_TABLE_CAP if cap is None else cap) + 1
        before = cs.verify._oracle_errors.cache_info()
        tracemalloc.start()
        try:
            with pytest.raises(cs.ResourceLimitError, match="exceeds the table cap"):
                CERTIFY[kind](n, max_table_n=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cs.verify._oracle_errors.cache_info() == before
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", list(CERTIFY))
    @pytest.mark.parametrize("n", [3, 8])
    def test_check_names_are_unique(self, kind, n):
        names = [c.name for c in CERTIFY[kind](n).checks]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("kind", list(CERTIFY))
    def test_gate_is_check_zero_of_every_gated_certificate(self, kind):
        names = [c.name for c in CERTIFY[kind](8).checks]
        gates = [i for i, name in enumerate(names) if name == "closed_form_oracle_agreement"]
        assert gates == ([0] if kind in GATED else [])

    @pytest.mark.parametrize("kind", list(CERTIFY))
    def test_cf_names_come_only_from_the_any_n_part(self, kind):
        # in the cap, the `cf_` checks are exactly those kept above it, and
        # only remark 3 has any
        inside = CERTIFY[kind](8).checks
        cf = [c for c in inside if c.name.startswith("cf_")]
        if kind == "remark3":
            above = cs.certify_remark3(8, 2.0, max_table_n=7)
            assert cf == list(above.checks) == list(inside[1:4])
        else:
            assert cf == []


class TestOracle:
    def test_matched_weights_all_small(self):
        rep = cs.oracle_compare(cs.ParamSeq([1 / math.sqrt(2)] * 2))
        assert rep.max_error() <= 1e-12 and rep.passed(1e-9)

    def test_dyadic_weights_agree_exactly_per_mask(self):
        rep = cs.oracle_compare(cs.ParamSeq([0.5] * 4))
        assert rep.err_coefficients == 0.0

    def test_degenerate_single_weight(self):
        rep = cs.oracle_compare(cs.ParamSeq([1.0]))
        assert rep.max_error() <= 1e-15

    def test_campaign_deterministic(self):
        a = cs.oracle_campaign(4, trials=5, seed=99)
        b = cs.oracle_campaign(4, trials=5, seed=99)
        assert a == b
        assert a.trials == 5 and a.seed == 99
        assert a.max_error() < 1e-9

    def test_campaign_different_seed_differs(self):
        a = cs.oracle_campaign(4, trials=5, seed=1)
        b = cs.oracle_campaign(4, trials=5, seed=2)
        assert a != b

    def test_tol_is_not_a_positional_argument(self):
        with pytest.raises(TypeError):
            cs.oracle_compare(cs.theorem_params(3), 1e-9)

    def test_repeated_compare_returns_an_equal_report_from_the_cache(self):
        params = cs.ParamSeq([0.3, 0.7, 0.9])
        first = cs.oracle_compare(params)
        hits = cs.verify._oracle_errors.cache_info().hits
        assert cs.oracle_compare(params) == first
        assert cs.verify._oracle_errors.cache_info().hits == hits + 1

    def test_the_cache_is_keyed_on_the_weights_alone(self):
        # the table cap decides only whether n is refused, before the cache
        cs.verify._oracle_errors.cache_clear()
        cs.certify_theorem1(12)
        cs.certify_theorem1(12, max_table_n=26)
        info = cs.verify._oracle_errors.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        with pytest.raises(cs.ResourceLimitError, match="n=12 exceeds the table cap 11"):
            cs.oracle_compare(cs.theorem_params(12), max_table_n=11)
        assert cs.verify._oracle_errors.cache_info() == info

    def test_cache_stays_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            cs.oracle_compare(cs.ParamSeq(1.0 - rng.uniform(0.0, 0.95, 3)))
        info = cs.verify._oracle_errors.cache_info()
        assert info.currsize == info.maxsize < 300

    def test_campaign_bypasses_the_cache(self):
        cs.oracle_campaign(3, trials=2, seed=7)
        before = cs.verify._oracle_errors.cache_info()
        cs.oracle_campaign(3, trials=2, seed=7)
        cs.oracle_campaign(8, trials=300, seed=4)
        assert cs.verify._oracle_errors.cache_info() == before

    @pytest.mark.parametrize("n", range(1, 21))
    def test_per_mask_error_of_the_theorem_weights_stays_resolved(self, n):
        # through the split every squared coefficient stays resolved against
        # prod a_i^2 (1.4e-13 at n = 20), far inside the gate's 1e-9
        assert cs.oracle_compare(cs.theorem_params(n)).err_coefficients <= 1e-12

    @pytest.mark.parametrize("low", [1.5, -0.5, -1e-300, math.nan, math.inf, -math.inf])
    def test_campaign_refuses_a_floor_outside_the_unit_interval(self, low):
        with pytest.raises(cs.ParameterError, match=r"low must lie in \[0, 1\]"):
            cs.oracle_campaign(3, trials=2, seed=7, low=low)

    @pytest.mark.parametrize("low", [0.0, 1.0])
    def test_campaign_runs_at_both_ends_of_the_floor(self, low):
        rep = cs.oracle_campaign(3, trials=2, seed=7, low=low)
        assert rep.trials == 2 and rep.max_error() < 1e-9

    @pytest.mark.parametrize("n", [-1, -20])
    def test_campaign_refuses_a_negative_dimension(self, n):
        with pytest.raises(cs.ParameterError, match=f"dimension must be >= 0, got {n}"):
            cs.oracle_campaign(n, trials=2, seed=7)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (np.float64(7.0), "seed must be an integer"),
        ("7", "seed must be an integer, got '7'"),
    ])
    def test_campaign_refuses_a_seed_that_is_not_a_count(self, seed, message):
        # numpy's own ValueError and TypeError used to escape for -1 and 1.5
        with pytest.raises(cs.ParameterError, match=message):
            cs.oracle_campaign(3, trials=2, seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, np.int64(7), 2**70])
    def test_campaign_takes_none_or_any_count_as_seed(self, seed):
        rep = cs.oracle_campaign(3, trials=2, seed=seed)
        assert rep.trials == 2 and rep.seed == seed and rep.max_error() < 1e-9
        assert seed is None or type(rep.seed) is int

    def test_campaign_runs_at_dimension_zero(self):
        rep = cs.oracle_campaign(0, trials=2, seed=7)
        assert rep.trials == 2 and rep.max_error() < 1e-9

    @pytest.mark.parametrize("call, expect", [
        (lambda: cs.certify_classical_rs(-1), pytest.raises(cs.ParameterError)),
        (lambda: cs.certify_classical_rs(2.5), pytest.raises(cs.ParameterError)),
        (lambda: cs.oracle_campaign(2.5), pytest.raises(cs.ParameterError)),
        (lambda: cs.oracle_campaign(3, trials=2.5), pytest.raises(cs.ParameterError)),
        *((lambda f=f, v=v: f(v), pytest.raises(cs.ParameterError))
          for f, least in COUNT_TAKERS.values() for v in (*BAD_COUNTS, least - 1)),
        # numpy integers are integers: the one check accepts them
        (_numpy_integers_are_counts, nullcontext()),
        # a tolerance that passes anything, or fails silently, is refused
        *((lambda f=f, tol=tol: f(tol),
           pytest.raises(cs.ParameterError, match="tolerance must be positive and finite"))
          for f in TOL_TAKERS.values() for tol in BAD_TOLS.values()),
        *((call, pytest.raises(cs.ParameterError, match=message))
          for call, message in BAD_NUMBERS.values()),
    ], ids=["classical n=-1", "classical n=2.5", "campaign n=2.5", "campaign trials=2.5",
            *(f"{name} {v!r}" for name, (_, least) in COUNT_TAKERS.items()
              for v in (*BAD_COUNTS, least - 1)),
            "numpy int64 accepted",
            *(f"{kind} tol={tol}" for kind in TOL_TAKERS for tol in BAD_TOLS),
            *BAD_NUMBERS])
    def test_bad_counts_raise_parameter_error(self, call, expect):
        with expect:
            call()

    def test_a_nan_figure_is_the_maximum(self):
        # a fold with Python max from 0.0 passes over a nan that is not first
        report = cs.OracleReport(1, None, 0.0, math.nan, 0.0, 0.0, 0.0, 0.0)
        assert math.isnan(report.max_error())
        assert not report.passed(1e-9)

    def test_campaign_keeps_a_nan_figure(self, monkeypatch):
        # the nan comes in the last draw's figures, after finite ones
        def figures(a):
            rows = np.tile([1e-17, 0.0, 0.0, 2e-16, 0.0, 0.0], (len(a), 1))
            rows[-1, 1] = math.nan
            return rows

        monkeypatch.setattr(verify, "_oracle_batch", figures)
        rep = cs.oracle_campaign(3, trials=2, seed=7)
        assert rep.err_constancy == 1e-17 and rep.err_coefficients == 2e-16
        assert math.isnan(rep.err_l2) and not rep.passed(1e-9)


def _uniform_draw(seed, n):
    return 1.0 - np.random.default_rng(seed).uniform(0.0, 0.95, n)


#: Weight sequences the oracle must match the whole-table code on: the
#: theorem weights across the block boundary (n = 0 is the empty
#: sequence), the classical all-ones pair, uniform(0.05, 1] draws, a
#: weight whose squares sink below the entropy cutoff in every other
#: mask, the same weight last (16 high rows whose coefficients read
#: zero), and weights small enough that most masks are dead.
ORACLE_WEIGHTS = {
    **{f"theorem n={n}": (lambda n=n: cs.theorem_params(n).a if n else np.zeros(0))
       for n in (0, 1, 2, 12, 14, 16, 18, 20)},
    **{f"ones n={n}": (lambda n=n: np.ones(n)) for n in (16, 18)},
    **{f"uniform n={n}": (lambda n=n: _uniform_draw(n, n)) for n in (3, 14, 17)},
    "tiny first weight": lambda: np.array([1e-170] + [0.5] * 9),
    "tiny last weight": lambda: np.array([0.5] * 9 + [1e-170]),
    "all 0.001": lambda: np.full(14, 0.001),
}


def _high_transforms(a):
    """Normalized transforms of the two-table high runs from (1, 0) and (0, 1)
    that the oracle's split takes, ((u1^, u2^), (v1^, v2^))."""
    m = min(a.size // 2, cs.spectrum._BLOCK.bit_length() - 1)
    (u1, v1), (u2, v2) = (orc.concatenated(a[m:], np.longdouble, start)
                          for start in ((1.0, 0.0), (0.0, 1.0)))
    return [[verify.fwht_inplace(t) / np.longdouble(t.size) for t in pair]
            for pair in ((u1, u2), (v1, v2))]


def _two_nonzero_masks(a):
    return sum(int(np.count_nonzero((h1 != 0) & (h2 != 0))) for h1, h2 in _high_transforms(a))


def _default_campaign_batches():
    """The batches of weight vectors oracle_campaign(14) draws, in order,
    from its own draw helper."""
    defaults = {k: v.default for k, v in inspect.signature(cs.oracle_campaign).parameters.items()}
    return list(verify._campaign_draws(14, defaults["trials"], defaults["seed"], defaults["low"]))


def _default_campaign_draws():
    """The weight vectors oracle_campaign(14) draws, in order."""
    return [a for batch in _default_campaign_batches() for a in batch]


def _family(name, n):
    # theorem_params needs n >= 1; at n = 0 both families are the empty sequence
    return cs.theorem_params(n).a if name == "theorem" and n else np.ones(n)


def _mirrored(a):
    """Whether the two-table half pairs of `a` obey the mirror, entry for entry:
    the low (p, q) from (1, 1) has q = (-1)^m p reversed, and the high run
    from (0, 1) is (-1)^k times the one from (1, 0) reversed and swapped."""
    ld = np.longdouble
    m = min(a.size // 2, cs.spectrum._BLOCK.bit_length() - 1)
    p, q = orc.concatenated(a[:m], ld)
    (u1, v1), (u2, v2) = (orc.concatenated(a[m:], ld, start) for start in ((1.0, 0.0), (0.0, 1.0)))
    low_sign, high_sign = ld((-1) ** m), ld((-1) ** (a.size - m))
    return (np.array_equal(q, low_sign * p[::-1])
            and np.array_equal(u2, high_sign * v1[::-1])
            and np.array_equal(v2, high_sign * u1[::-1]))


def _has_two_run_bits(a):
    """Whether the oracle's six figures are the two-run walk's, bit for bit."""
    got = verify._oracle_errors.__wrapped__(a.tobytes())
    return [x.hex() for x in got] == [x.hex() for x in orc.two_run_oracle_errors(a)]


class TestMirror:
    """The oracle walks and transforms P alone and reads Q from the mirror
    Q(x) = (-1)^n P(~x); its figures keep the bits of walking both."""

    @pytest.mark.parametrize("n", range(27))
    @pytest.mark.parametrize("family", ["theorem", "ones"])
    def test_half_tables_obey_the_mirror(self, family, n):
        assert _mirrored(_family(family, n))

    def test_half_tables_of_the_default_campaign_obey_the_mirror(self):
        assert all(map(_mirrored, _default_campaign_draws()))

    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_half_tables_of_the_oracle_weights_obey_the_mirror(self, name):
        assert _mirrored(ORACLE_WEIGHTS[name]())

    @pytest.mark.parametrize("n", range(23))
    @pytest.mark.parametrize("family", ["theorem", "ones"])
    def test_figures_have_the_two_run_bits(self, family, n):
        assert _has_two_run_bits(_family(family, n))

    def test_figures_of_the_default_campaign_have_the_two_run_bits(self):
        assert all(map(_has_two_run_bits, _default_campaign_draws()))

    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_figures_of_the_oracle_weights_have_the_two_run_bits(self, name):
        assert _has_two_run_bits(ORACLE_WEIGHTS[name]())

    @pytest.mark.parametrize("family", ["theorem", "ones"])
    def test_high_half_is_the_two_table_run_from_one_zero(self, family):
        # the oracle's own loop against the reference, bit for bit, up to
        # the 13 high steps the cap allows
        for k in range(14):
            a = _family(family, 2 * k)[k:]
            for got, want in zip(verify._high_half(a), orc.concatenated(a, np.longdouble, (1.0, 0.0))):
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), k

    def test_the_mirror_with_small_blocks(self, monkeypatch):
        # 2^7-entry blocks: 2^11 blocks at n = 18, walked in mirrored pairs
        monkeypatch.setattr(cs.spectrum, "_BLOCK", 1 << 7)
        for a in (cs.theorem_params(18).a, _uniform_draw(5, 17), np.ones(8)):
            assert _mirrored(a) and _has_two_run_bits(a)


class TestBlockwiseOracle:
    @pytest.mark.parametrize("n", range(1, 27))
    @pytest.mark.parametrize("family", ["theorem", "ones"])
    def test_no_high_mask_has_two_nonzero_coefficients(self, family, n):
        # the coefficient figures read each row of P^ and Q^ as one scalar
        # times p^ or q^; the half tables alone show it, up to the cap
        assert _two_nonzero_masks(_family(family, n)) == 0

    def test_no_high_mask_of_the_default_campaign_has_two_nonzeros(self):
        draws = _default_campaign_draws()
        assert len(draws) == 100 and all(a.size == 14 for a in draws)
        assert sum(map(_two_nonzero_masks, draws)) == 0

    def test_zero_high_rows_are_no_two_nonzero_rows(self):
        # a^2 = 1e-340 sinks every coefficient with the last bit below the
        # values' resolution: both entries of those rows read zero
        a = ORACLE_WEIGHTS["tiny last weight"]()
        zero_rows = sum(int(np.count_nonzero((h1 == 0) & (h2 == 0)))
                        for h1, h2 in _high_transforms(a))
        assert zero_rows == 32 and _two_nonzero_masks(a) == 0

    def test_a_high_mask_with_two_nonzeros_reads_nan_and_fails_the_gate(self, monkeypatch):
        # v1 + 2^-40 in the oracle's high-half loop moves v1^(0) off zero,
        # and with it u2^(0), since the oracle reads u2 as v1 reversed: next
        # to u1^(0) = 1, row 0 of P^ is no longer one scalar times p^ or q^
        real = verify._high_half

        def shifted(a):
            u1, v1 = real(a)
            return u1, v1 + 2.0**-40

        monkeypatch.setattr(verify, "_high_half", shifted)
        monkeypatch.setattr(verify, "_oracle_errors", verify._oracle_errors.__wrapped__)
        params = cs.theorem_params(6)
        u1, v1 = verify._high_half(params.a[3:])  # m = 3; the oracle's u2 is +-v1 reversed
        h1, h2 = (verify.fwht_inplace(t.copy()) for t in (u1, v1[::-1]))
        assert np.count_nonzero((h1 != 0) & (h2 != 0)) == 1
        rep = cs.oracle_compare(params)
        assert rep.err_constancy < 1e-9
        assert all(map(math.isnan, (rep.err_coefficients, rep.err_influence, rep.err_entropy)))
        assert not verify._gate(params, 1e-9, None).passed

    def test_a_plain_float64_oracle_reports_nan_not_zero(self, monkeypatch):
        # where longdouble is float64, a_1^2 = 1e-340 underflows to 0: the
        # per-mask comparison divides 0 by 0 and the entropy target is nan
        monkeypatch.setattr(np, "longdouble", np.float64)
        a = np.array([1e-170] + [0.5] * 9)
        with np.errstate(all="ignore"):
            errors = verify._oracle_errors.__wrapped__(a.tobytes())
        assert math.isnan(errors[3]) and math.isnan(errors[5])

    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_figures_match_the_whole_array_code(self, name):
        # the split takes other roundings than the whole 2^n tables: the
        # aggregate figures agree to 1e-16, and the per-mask figure is no
        # worse than the reference's (or within 1e-15 of exact)
        a = ORACLE_WEIGHTS[name]()
        got = cs.verify._oracle_errors.__wrapped__(a.tobytes())
        want = orc.whole_array_oracle_errors(a)
        for k, (g, w) in enumerate(zip(got, want)):
            if k == 3:
                assert g <= max(w, 1e-15)
            else:
                assert abs(g - w) <= 1e-16, (k, g, w)

    def test_low_half_is_capped_so_blocks_hold_whole_rows(self, monkeypatch):
        # 2^7-entry blocks cap the low half at 7 of n = 18 bits, the route
        # that n >= 32 takes with the real block size
        monkeypatch.setattr(cs.spectrum, "_BLOCK", 1 << 7)
        a = cs.theorem_params(18).a
        got = cs.verify._oracle_errors.__wrapped__(a.tobytes())
        want = orc.whole_array_oracle_errors(a)
        assert max(abs(g - w) for k, (g, w) in enumerate(zip(got, want)) if k != 3) <= 1e-16
        assert got[3] <= 1e-12 < want[3]

    def test_peak_stays_under_eight_mib_at_twenty(self):
        # no 2^n-entry table: one 2^20-entry longdouble table alone is 16 MiB
        a_bytes = cs.theorem_params(20).a.tobytes()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs.verify._oracle_errors.__wrapped__(a_bytes)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


def _per_draw_hex(a):
    return [x.hex() for x in verify._oracle_errors.__wrapped__(np.ascontiguousarray(a).tobytes())]


def _batch_hex(batch):
    return [[x.hex() for x in row] for row in verify._oracle_batch(np.asarray(batch)).tolist()]


def _stdlib_draw(rng, n, low):
    """One trial's weights, 1 - (1 - low) u for the next n draws u of
    random.Random, in Python floats."""
    return np.array([1.0 - (1.0 - low) * rng.random() for _ in range(n)])


def _campaign_fold(n, trials, seed, low, errors):
    """oracle_campaign's figures taken one draw at a time: `errors` of each
    trial's weights from random.Random(seed), folded by np.maximum in order."""
    rng = random.Random(seed)
    worst = np.zeros(6)
    for _ in range(trials):
        np.maximum(worst, errors(_stdlib_draw(rng, n, low)), out=worst)
    return [float(x).hex() for x in worst]


def _campaign_peak(n, trials):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cs.oracle_campaign(n, trials=trials, seed=1)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestBatchedOracle:
    """A campaign evaluates its draws a batch at a time; every draw's six
    figures keep the bits of oracle_compare, which is a batch of one."""

    def test_default_campaign_batch_has_per_draw_bits(self):
        batches = _default_campaign_batches()
        assert [len(b) for b in batches] == [100]
        assert _batch_hex(batches[0]) == [_per_draw_hex(a) for a in batches[0]]

    @pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
    def test_oracle_weights_in_a_batch_have_per_draw_bits(self, name):
        # between two uniform draws of the same length, and reversed
        a = ORACLE_WEIGHTS[name]()
        batch = np.stack([_uniform_draw(1, a.size), a, a[::-1], _uniform_draw(2, a.size)])
        assert _batch_hex(batch) == [_per_draw_hex(x) for x in batch]

    @pytest.mark.parametrize("n", range(23))
    def test_theorem_and_ones_weights_in_one_batch_have_per_draw_bits(self, n):
        batch = np.stack([_family("theorem", n), _family("ones", n)])
        assert _batch_hex(batch) == [_per_draw_hex(x) for x in batch]

    def test_a_two_nonzero_mask_makes_nan_only_in_its_own_draw(self, monkeypatch):
        # v1 + 2^-40 in the first draw's high half, as in the single-draw
        # fault test: that draw's coefficient figures read nan, the second
        # draw's keep the bits it has alone
        real = verify._high_half

        def shifted(a):
            u1, v1 = real(a)
            v1[0] += 2.0**-40
            return u1, v1

        batch = np.stack([cs.theorem_params(6).a, _uniform_draw(3, 6)])
        want = _per_draw_hex(batch[1])
        monkeypatch.setattr(verify, "_high_half", shifted)
        got = verify._oracle_batch(batch)
        assert got[0, 0] < 1e-9 and np.isnan(got[0, 3:]).all()
        assert [x.hex() for x in got[1].tolist()] == want

    @pytest.mark.parametrize("low", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 8, 14, 17])
    def test_campaign_is_the_fold_of_compare_over_its_draws(self, n, low):
        rep = cs.oracle_campaign(n, trials=5, seed=n + 11, low=low)
        want = _campaign_fold(n, 5, n + 11, low, lambda a: cs.oracle_compare(cs.ParamSeq(a)).errors())
        assert [x.hex() for x in rep.errors()] == want

    @pytest.mark.parametrize("n, trials, sizes", [
        (3, 70, [32, 32, 6]), (8, 21, [8, 8, 5]), (17, 3, [1, 1, 1]),
    ])
    def test_campaign_over_several_batches(self, monkeypatch, n, trials, sizes):
        # 2^7-entry blocks: a batch's half tables hold at most 2^7 entries
        # each (one draw at least), so the trials span several batches and
        # end in a partial one; the draws stay those of one stream, trial-major
        monkeypatch.setattr(cs.spectrum, "_BLOCK", 1 << 7)
        batches = list(verify._campaign_draws(n, trials, 5, 0.05))
        assert [len(b) for b in batches] == sizes
        rng = random.Random(5)
        assert all(np.array_equal(a, _stdlib_draw(rng, n, 0.05)) for b in batches for a in b)
        assert all(_batch_hex(b) == [_per_draw_hex(a) for a in b] for b in batches)
        rep = cs.oracle_campaign(n, trials=trials, seed=5)
        want = _campaign_fold(n, trials, 5, 0.05, lambda a: verify._oracle_errors.__wrapped__(a.tobytes()))
        assert [x.hex() for x in rep.errors()] == want

    def test_campaign_peak_does_not_grow_with_trials(self, monkeypatch):
        # draws are taken a batch at a time (16384 of them at n = 2), never
        # all at once: 10^5 draws at once would hold 3.2 MB of weights.  The
        # oracle costs about 1 ms a draw under tracemalloc, so 10^3 draws run
        # it and 10^5 draws run a stand-in that returns the batch's figures
        # as zeros
        bound = 2 << 20
        assert _campaign_peak(2, 10**3) <= bound
        monkeypatch.setattr(verify, "_oracle_batch", lambda a: np.zeros((len(a), 6)))
        assert _campaign_peak(2, 10**5) <= bound

    def test_campaign_peak_stays_under_eight_mib_at_twenty(self):
        # the single oracle's pin (TestBlockwiseOracle): 40 draws in batches
        # of 32, whose half tables hold 2^15 longdouble entries each
        assert _campaign_peak(20, 40) <= 8 << 20


class TestOracleStages:
    """_oracle_batch is a half-table stage, a value stage and an assembly:
    each stage can be replaced alone, as a split bound above the cap or
    another oracle dtype would replace it."""

    @pytest.mark.parametrize("n", [0, 1, 9, 14])
    def test_value_figures_follow_the_value_stage_alone(self, monkeypatch, n):
        # a stand-in returns fixed values, scaled from each draw's L, whose
        # figures are exact, with the other side of each figure smaller in
        # the middle draw: max and min of P^2 + Q^2 at 3L and 0, or 4L and
        # 1.5L, against the target 2L read 1; L2 norms 2 sqrt(L) and
        # sqrt(L) / 2 read 1 (and 1/2); max |P| at sqrt(L) / 2 lies 1/2 below
        # the bracket [sqrt(L), sqrt(2 L)], and at twice its top 1 above it
        batch = np.stack([_family("theorem", n), _uniform_draw(4, n), _family("ones", n)])
        want = _batch_hex(batch)
        ld = np.longdouble
        big_l = np.prod(1.0 + np.square(batch.astype(ld)), axis=-1)
        size, root = ld(1 << n), np.sqrt(big_l)
        wide, narrow = 4 * big_l * size, big_l * size / 4
        fixed = np.array([
            [3 * big_l[0], 0.0, wide[0], narrow[0], root[0] / 2],
            [4 * big_l[1], 1.5 * big_l[1], narrow[1], wide[1], 2 * (verify.SQRT2 * root[1])],
            [3 * big_l[2], 0.0, wide[2], narrow[2], root[2] / 2],
        ], dtype=ld)
        shapes = []

        def stand_in(highs, lows):
            shapes.append((highs.shape, lows.shape))
            return fixed

        monkeypatch.setattr(verify, "_value_stage", stand_in)
        got = _batch_hex(batch)
        m = verify._low_bits(n)
        assert shapes == [((3, 1 << (n - m), 2), (3, 2, 1 << m))]
        assert [row[3:] for row in got] == [row[3:] for row in want]
        assert [row[:3] for row in got] == [[x.hex() for x in row] for row in
                                            ((1.0, 1.0, 0.5), (1.0, 1.0, 1.0), (1.0, 1.0, 0.5))]

    @pytest.mark.parametrize("n", [12, 17])
    def test_value_stage_takes_the_operands_alone_row_by_row(self, n):
        # no target goes in, and each draw's row is the one it has alone,
        # in one block (n = 12) and in mirrored pairs of blocks (n = 17)
        assert list(inspect.signature(verify._value_stage).parameters) == ["highs", "lows"]
        batch = np.stack([cs.theorem_params(n).a, _uniform_draw(6, n), np.ones(n)])
        _, _, highs, lows = verify._half_stage(batch)
        rows = verify._value_stage(highs, lows)
        assert rows.shape == (3, 5) and rows.dtype == np.longdouble
        for d in range(3):
            assert np.array_equal(rows[d], verify._value_stage(highs[d : d + 1], lows[d : d + 1])[0])


class TestValueWalk:
    """The value stage reads max |P| as the root of the largest P^2, and a
    block that is its own mirror (n <= 15) takes the extremes of P^2 + Q^2
    over its first half; every figure keeps the two-run walk's bits."""

    @staticmethod
    def _finite_squares(dtype):
        # x = +-m 2^(e - nmant), m of nmant + 1 bits (built exactly from 32-bit
        # halves): x^2 neither overflows nor underflows
        fi = np.finfo(dtype)
        bits = fi.nmant + 1

        def value(m, e, negative):
            x = np.ldexp(dtype(m >> 32) * dtype(2.0**32) + dtype(m & 0xFFFFFFFF), e - fi.nmant)
            return -x if negative else x

        return st.builds(value, st.integers(1 << (bits - 1), (1 << bits) - 1),
                         st.integers(fi.minexp // 2 + 1, fi.maxexp // 2 - 2), st.booleans())

    @pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
    def test_the_root_of_a_square_is_the_magnitude(self, dtype):
        @given(self._finite_squares(dtype))
        def holds(x):
            assert x.dtype == dtype and np.isfinite(x)
            assert np.sqrt(np.square(x)) == abs(x)

        holds()

    @pytest.mark.parametrize("plane", ["lows", "highs"])
    @pytest.mark.parametrize("n", [0, 5, 12, 17])
    def test_a_nan_in_a_half_table_reads_nan_in_the_value_figures(self, monkeypatch, n, plane):
        # one nan entry in the first draw's low or high half: its five value
        # stage figures and its three value figures read nan, the other draw
        # and the coefficient figures keep their bits
        batch = np.stack([_family("theorem", n), _uniform_draw(8, n)])
        want = _batch_hex(batch)
        real = verify._half_stage

        def poisoned(a64):
            targets, sums, highs, lows = real(a64)
            (lows if plane == "lows" else highs)[0, 0, 0] = np.nan
            return targets, sums, highs, lows

        _, _, highs, lows = poisoned(batch)
        values = verify._value_stage(highs, lows)
        assert np.isnan(values[0]).all() and not np.isnan(values[1]).any()
        monkeypatch.setattr(verify, "_half_stage", poisoned)
        got = _batch_hex(batch)
        assert got[0][:3] == ["nan"] * 3 and got[0][3:] == want[0][3:] and got[1] == want[1]

    @pytest.mark.parametrize("n", range(16))
    def test_one_block_walks_have_the_two_run_bits(self, n):
        # uniform draws with low = 0, and a campaign's own draws, in one block
        assert 1 << n <= cs.spectrum._BLOCK
        draws = [_uniform_draw(n + 20, n), *next(verify._campaign_draws(n, 3, n, 0.0))]
        assert all(map(_has_two_run_bits, draws))


def test_no_library_path_loads_numpy_random():
    # a fresh interpreter runs a campaign, a certificate and a spotcheck; numpy
    # 1.x loads numpy.random on `import numpy`, so only a load the library adds
    # is checked
    code = ("import sys; import numpy; pre = 'numpy.random' in sys.modules; "
            "import cubespec as cs; cs.oracle_campaign(6, trials=2, seed=1); "
            "cs.certify_theorem1(6); cs.modulus_spotcheck(cs.theorem_params(6)); "
            "assert pre or 'numpy.random' not in sys.modules, 'numpy.random was loaded'")
    path = [str(Path(cs.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


class TestGateOracle:
    """The certificate gate reads oracle_compare's cache entry and leaves
    the per-mask figure out above COEFF_GATE_MAX_N only."""

    @pytest.mark.parametrize("n", [1, 12, 20])
    def test_gate_lhs_is_the_compare_maximum_from_its_cache_entry(self, n):
        want = cs.oracle_compare(cs.theorem_params(n)).max_error()
        before = cs.verify._oracle_errors.cache_info()
        gate = cs.certify_theorem1(n).checks[0]
        after = cs.verify._oracle_errors.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert gate.name == "closed_form_oracle_agreement"
        assert gate.lhs.hex() == want.hex()

    def test_gate_leaves_the_per_mask_figure_out_above_the_cutoff(self, monkeypatch):
        monkeypatch.setattr(cs.verify, "COEFF_GATE_MAX_N", 8)
        params = cs.ParamSeq([0.001] * 10)  # a per-mask figure far above tol
        rep = cs.oracle_compare(params)
        assert rep.err_coefficients > 1e-9
        want = replace(rep, err_coefficients=0.0).max_error()
        gate = cs.verify._gate(params, 1e-9, None)
        assert gate.passed and gate.lhs.hex() == want.hex()
        monkeypatch.setattr(cs.verify, "COEFF_GATE_MAX_N", 10)
        assert cs.verify._gate(params, 1e-9, None).lhs == rep.max_error()

    def test_a_float64_oracle_passes_the_gate_and_a_campaign(self, monkeypatch):
        # the route of a platform whose longdouble is plain float64, where
        # COEFF_GATE_MAX_N is 20: the per-mask figure of the theorem weights
        # reads about 1.2e-9 at n = 21, so above 20 the gate leaves it out,
        # and the aggregate figures pass at every n.  The memo is bypassed,
        # so no float64 figure reaches it
        info = verify._oracle_errors.cache_info()
        monkeypatch.setattr(np, "longdouble", np.float64)
        monkeypatch.setattr(verify, "COEFF_GATE_MAX_N", 20)
        monkeypatch.setattr(verify, "_oracle_errors", verify._oracle_errors.__wrapped__)
        assert verify._half_stage(np.ones((1, 4)))[2].dtype == np.float64
        for n in range(19, 23):
            params = cs.theorem_params(n)
            rep = cs.oracle_compare(params)
            gate = verify._gate(params, 1e-9, None)
            assert (rep.err_coefficients > 1e-9) == (n == 21)
            kept = rep if n <= 20 else replace(rep, err_coefficients=0.0)
            assert gate.passed and gate.lhs.hex() == kept.max_error().hex(), n
        assert cs.oracle_campaign(14, trials=32).passed(1e-9)
        monkeypatch.undo()
        assert verify._oracle_errors.cache_info() == info


def _whole_array_modulus_deviation(values):
    return float(np.max(np.abs(np.abs(values) - 1.0)))


class TestModulusDeviation:
    """certify_theorem2's blockwise | |v| - 1 | against the whole-array expression."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_same_float_as_whole_array_expression(self, n):
        values = cs.unimodular_complex(cs.theorem_params(n)).values
        assert verify._modulus_deviation(values) == _whole_array_modulus_deviation(values)

    @pytest.mark.parametrize("off", [1.5, 0.25j, -1.0 - 1e-5j, math.nan])
    def test_one_value_off_the_circle_in_the_last_block(self, off):
        values = cs.unimodular_complex(cs.theorem_params(17)).values.copy()
        values[-1] = off
        got, want = verify._modulus_deviation(values), _whole_array_modulus_deviation(values)
        assert got == want or (math.isnan(got) and math.isnan(want))
        assert not got <= 1e-12

    def test_scratch_is_one_block(self):
        # the whole-array expression peaks at two float64 tables (1 MiB here)
        values = cs.unimodular_complex(cs.theorem_params(16)).values
        tracemalloc.start()
        try:
            verify._modulus_deviation(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cs.spectrum._BLOCK * 8 + (16 << 10), peak


class TestCertificates:
    def test_bounded_real_family_passes_with_margins(self):
        for n in (1, 8, 18):
            cert = cs.certify_theorem1(n)
            assert cert.overall
            assert all(c.margin > 0 for c in cert.checks)

    def test_unit_modulus_family_passes(self):
        for n in (1, 8, 16):
            cert = cs.certify_theorem2(n)
            assert cert.overall
            assert all(c.passed for c in cert.checks)

    @pytest.mark.parametrize("n", [1, 2, 7, 15, 16])
    def test_unit_modulus_figures_are_those_of_stats(self, n):
        # the certificate transforms its own table in place; the figures are
        # those of stats over the public builder's table, bit for bit
        f = cs.unimodular_complex(cs.theorem_params(n))
        st = cs.stats(f)
        by_name = {c.name: c.lhs for c in cs.certify_theorem2(n).checks}
        assert by_name["modulus_deviation"] == _whole_array_modulus_deviation(f.values)
        assert by_name["influence_equals_target"] == st.influence
        assert by_name["entropy_above_bound"] == st.entropy

    def test_classical_pair_certificate(self):
        cert = cs.certify_classical_rs(8)
        assert cert.overall
        names = {c.name for c in cert.checks}
        assert "coefficient_magnitude_deviation" in names
        assert "normalized_influence_half_n" in names

    @pytest.mark.parametrize("n", [0, 1, 5, 15, 16])
    def test_classical_pair_raw_norms_are_those_of_stats(self, n):
        raw = cs.stats(cs.build_pq(cs.ParamSeq(np.ones(n))).p)
        by_name = {c.name: c for c in cs.certify_classical_rs(n).checks}
        assert by_name["l2_norm_target"].lhs.hex() == raw.l2_norm.hex()
        assert by_name["linf_over_l2"].lhs.hex() == (raw.linf_norm / raw.l2_norm).hex()

    @pytest.mark.parametrize("n", range(17))
    def test_classical_pair_raw_figures_are_those_of_the_complex_route(self, n):
        # the route through build_pq and walsh_transform
        pair = cs.build_pq(cs.ParamSeq(np.ones(n)))
        coeff_dev = float(np.max(np.abs(np.abs(cs.walsh_transform(pair.p).coeffs) - 1.0)))
        l2_sq, linf = cs.spectrum._norm_sums(pair.p.values)
        l2 = math.sqrt(float(l2_sq) * math.ldexp(1.0, -n))
        by_name = {c.name: c for c in cs.certify_classical_rs(n).checks}
        assert by_name["coefficient_magnitude_deviation"].lhs.hex() == coeff_dev.hex()
        assert by_name["l2_norm_target"].lhs.hex() == l2.hex()
        assert by_name["linf_over_l2"].lhs.hex() == (float(linf) / l2).hex()

    def test_classical_pair_peak_is_under_two_and_a_half_float64_tables(self):
        # 2.46 tables, set by stats of the unit-norm table; building the raw
        # P with its Q table and two half-table buffers read 3.0
        n = 18
        cs.certify_classical_rs(n)  # warms the oracle cache
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cs.certify_classical_rs(n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (1 << n) * 8

    @pytest.mark.parametrize("kind, tables", [
        ("theorem1", 4), ("theorem2", 4), ("remark2", 7), ("classical_rs", 4), ("neeman", 5),
    ])
    def test_certificate_peak_in_float64_tables(self, kind, tables):
        # from a cold oracle at n = 16 (tables of 512 KiB) these read 3.83,
        # 3.82, 6.83, 3.82 and 4.19 tables; theorem2 read 5.82 while stats
        # copied the complex table
        n = 16
        certify = getattr(cs, f"certify_{kind}")
        cs.verify._oracle_errors.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            certify(n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= tables * (1 << n) * 8

    def test_lift_certificate(self):
        for n in (1, 4, 10):
            assert cs.certify_remark2(n).overall

    def test_lift_certificate_runs_to_one_below_the_cap(self):
        assert cs.certify_remark2(5, max_table_n=6).overall
        before = cs.verify._oracle_errors.cache_info()
        with pytest.raises(cs.ResourceLimitError, match="n=21 exceeds the table cap 20"):
            cs.certify_remark2(20, max_table_n=20)
        assert cs.verify._oracle_errors.cache_info() == before  # refused before the oracle

    def test_scaled_family_certificate_with_brute_confirmation(self):
        cert = cs.certify_remark3(16, 4.0)
        assert cert.overall
        names = [c.name for c in cert.checks]
        assert "real_influence_matches_closed_form" in names
        assert "complex_entropy_matches_closed_form" in names

    def test_scaled_family_closed_form_only_beyond_cap(self):
        cert = cs.certify_remark3(2**20, 32.0)
        assert cert.overall
        assert len(cert.checks) == 3
        assert all(c.name.startswith("cf_") for c in cert.checks)

    def test_scaled_family_gate_and_tables_follow_the_cap(self):
        inside = [c.name for c in cs.certify_remark3(10, 4.0, max_table_n=10).checks]
        assert inside[0] == "closed_form_oracle_agreement"
        assert "real_influence_matches_closed_form" in inside
        assert "complex_entropy_matches_closed_form" in inside
        outside = cs.certify_remark3(10, 4.0, max_table_n=9)
        assert outside.overall
        assert [c.name for c in outside.checks] == [
            "cf_influence_above_half_scale", "cf_influence_below_scale", "cf_entropy_above_bound"
        ]

    def test_scaled_family_precondition(self):
        with pytest.raises(cs.ParameterError):
            cs.certify_remark3(4, 4.0)

    def test_clamped_sum_certificate(self):
        for n in (5, 12, 22):
            assert cs.certify_neeman(n).overall

    def test_clamped_sum_band_holds_above_n_22(self):
        cert = cs.certify_neeman(23)
        names = [c.name for c in cert.checks]
        assert names[2:] == ["influence_above_band_low", "influence_below_band_high",
                             "entropy_positive"]
        assert cert.overall

    def test_inputs_are_recorded_as_floats(self):
        # an int and its float give the same certificate bytes
        for by_int, by_float in (
            (cs.certify_neeman(6, clamp=3, tol=1), cs.certify_neeman(6, clamp=3.0, tol=1.0)),
            (cs.certify_remark3(6, 2, tol=1), cs.certify_remark3(6, 2.0, tol=1.0)),
        ):
            assert by_int.to_text() == by_float.to_text()
            assert all(type(v) is float for k, v in by_int.inputs.items() if k != "weights")
        assert "input clamp=3.0" in cs.certify_neeman(6, clamp=np.int64(3)).to_text()
        assert type(cs.neeman_regression([6], clamp=3).clamp) is float

    def test_remark3_reads_the_table_cap_rule_from_spectrum(self, monkeypatch):
        monkeypatch.setattr(cs.spectrum, "DEFAULT_TABLE_CAP", 9)
        assert all(c.name.startswith("cf_") for c in cs.certify_remark3(10, 4.0).checks)
        with pytest.raises(cs.ResourceLimitError, match="table cap 9"):
            cs.certify_theorem1(10)

    def test_clamped_sum_degenerate_clamp(self):
        cert = cs.certify_neeman(16, clamp=10.0)
        assert cert.overall
        names = {c.name for c in cert.checks}
        assert "influence_degenerates_to_one" in names
        assert "entropy_degenerates_to_log_n" in names


#: The in-cap certificates of the seeded-defect audit, at n = 12
AUDITED = {
    "theorem1": lambda: cs.certify_theorem1(12),
    "theorem2": lambda: cs.certify_theorem2(12),
    "remark2": lambda: cs.certify_remark2(12),
    "remark3": lambda: cs.certify_remark3(12, 4.0),
    "classical_rs": lambda: cs.certify_classical_rs(12),
    "neeman": lambda: cs.certify_neeman(12),
}


class TestSeededDefects:
    """A wrong figure seeded into the library is refused by a certificate.

    Each defect scales one field of a result by monkeypatching; the named
    certificates must all turn to overall=false.  The ones that still
    pass are listed in the `verify` docstring as known blind spots.
    """

    @staticmethod
    def _seed_table_defect(monkeypatch, field, factor):
        # both routes to the table stats: spectrum.stats reads the module's
        # _table_stats, certify_theorem2 verify's imported one
        whole = cs.spectrum._table_stats

        def defective(*args, **kwargs):
            st = whole(*args, **kwargs)
            return replace(st, **{field: getattr(st, field) * factor})

        monkeypatch.setattr(cs.spectrum, "_table_stats", defective)
        monkeypatch.setattr(verify, "_table_stats", defective)

    def test_every_audited_certificate_passes_without_a_defect(self):
        assert all(cert().overall for cert in AUDITED.values())

    @pytest.mark.parametrize("field, factor, caught_by", [
        ("entropy", 1.0 + 1e-6, ["theorem1", "theorem2", "remark2", "remark3", "classical_rs"]),
        ("entropy", 0.8, ["theorem1", "theorem2", "remark2", "remark3", "classical_rs"]),
        ("entropy", 1.5, ["theorem1", "theorem2", "remark2", "remark3", "classical_rs"]),
        ("influence", 1.0 + 1e-6, ["theorem1", "theorem2", "remark2", "remark3", "classical_rs"]),
        ("l2_norm", 1.0 + 1e-6, ["theorem1", "remark2", "neeman"]),
    ])
    def test_table_defect(self, monkeypatch, field, factor, caught_by):
        self._seed_table_defect(monkeypatch, field, factor)
        assert [name for name in caught_by if not AUDITED[name]().overall] == caught_by

    @pytest.mark.parametrize("field", ["entropy", "influence"])
    def test_closed_form_defect(self, monkeypatch, field):
        whole = verify.normalized_closed_form

        def defective(params):
            ncf = whole(params)
            return replace(ncf, **{field: getattr(ncf, field) * (1.0 + 1e-6)})

        monkeypatch.setattr(verify, "normalized_closed_form", defective)
        cert = AUDITED["remark3"]()
        assert not cert.overall
        assert not all(c.passed for c in cert.checks if c.name.endswith("_matches_closed_form"))

    def test_table_weight_defect(self, monkeypatch):
        # the first weight x (1 + 1e-6) in the library's table builder; the
        # oracle builds its half tables through verify's own import, untouched
        whole = cs.construct._p_table

        def defective(a, p):
            a = np.array(a, dtype=np.float64)
            a[..., 0] *= 1.0 + 1e-6
            return whole(a, p)

        monkeypatch.setattr(cs.construct, "_p_table", defective)
        caught_by = ["theorem1", "theorem2", "remark3"]
        assert [name for name in caught_by if not AUDITED[name]().overall] == caught_by

    def test_evaluator_defect(self, monkeypatch):
        # evaluate_many's P x (1 + 1e-6) feeds no certificate: the spotcheck
        # at n = 1000 reads it far above 1e-9
        params = cs.theorem_params(1000)
        assert cs.modulus_spotcheck(params) < 1e-9
        whole = verify.evaluate_many

        def defective(params, points):
            p, q = whole(params, points)
            return p * (1.0 + 1e-6), q

        monkeypatch.setattr(verify, "evaluate_many", defective)
        assert cs.modulus_spotcheck(params) > 1e-9


class TestClampedSumRegression:
    def test_pinned_rows(self):
        rep = cs.neeman_regression(sorted(CLAMPED_SUM_PINS))
        assert rep.overall and rep.entropy_increasing and rep.influence_in_band
        for n, infl, ent in rep.rows:
            want_i, want_h = CLAMPED_SUM_PINS[n]
            assert rel_close(infl, want_i)
            assert rel_close(ent, want_h)

    def test_band_contains_pins_and_degenerate_limit(self):
        lo, hi = NEEMAN_INFLUENCE_BAND
        assert lo <= 1.0 <= hi
        for infl, _ in CLAMPED_SUM_PINS.values():
            assert lo < infl < hi

    def test_inactive_clamp_rows(self):
        rep = cs.neeman_regression([4, 9, 16], clamp=10.0)
        assert rep.band is None and rep.overall
        for n, infl, ent in rep.rows:
            assert rel_close(infl, 1.0)
            assert rel_close(ent, math.log2(n))

    def test_rows_hold_python_ints(self):
        rep = cs.neeman_regression([np.int64(4), np.int64(6)])
        assert [type(n) for n, _, _ in rep.rows] == [int, int]
        json.dumps(rep.rows)

    def test_no_dimension_is_refused(self):
        with pytest.raises(cs.ParameterError, match="need at least one dimension"):
            cs.neeman_regression([])

    def test_single_record_case(self):
        rep = cs.neeman_regression([16])
        assert rel_close(rep.rows[0][1], CLAMPED_SUM_PINS[16][0])
        assert rel_close(rep.rows[0][2], CLAMPED_SUM_PINS[16][1])

    def test_verdicts_cannot_be_set_apart_from_the_rows(self):
        rows = tuple((n, infl, ent) for n, (infl, ent) in sorted(CLAMPED_SUM_PINS.items()))
        assert [f.name for f in fields(cs.NeemanReport)] == ["clamp", "rows"]
        for name in ("overall", "entropy_increasing", "band", "influence_in_band"):
            with pytest.raises(TypeError):
                cs.NeemanReport(2.0, rows, **{name: True})
        rep = cs.NeemanReport(2.0, rows)
        assert rep.overall and rep.entropy_increasing and rep.influence_in_band
        assert rep.band == NEEMAN_INFLUENCE_BAND
        assert cs.NeemanReport(3.0, rows).band is None

    def test_replaced_rows_carry_their_own_verdict(self):
        # a stored verdict would survive replace() with decreasing entropies
        rep = cs.neeman_regression([8, 12])
        falling = replace(rep, rows=rep.rows[::-1])
        assert rep.overall is True
        assert falling.entropy_increasing is False and falling.overall is False
        assert falling.influence_in_band is True
        out_of_band = replace(rep, rows=((8, 2.0, 1.0), (12, 1.0, 2.0)))
        assert out_of_band.entropy_increasing and out_of_band.overall is False


def test_streaming_modulus_spotcheck():
    dev = cs.modulus_spotcheck(cs.theorem_params(30), samples=2000, seed=11)
    assert dev < 1e-9


def test_spotcheck_deterministic_for_seed():
    a = cs.modulus_spotcheck(cs.theorem_params(28), samples=500, seed=3)
    b = cs.modulus_spotcheck(cs.theorem_params(28), samples=500, seed=3)
    assert a == b


def test_spotcheck_deterministic_for_seed_past_64_bits():
    a = cs.modulus_spotcheck(cs.theorem_params(1000), samples=100, seed=3)
    b = cs.modulus_spotcheck(cs.theorem_params(1000), samples=100, seed=3)
    assert a == b


@pytest.mark.parametrize("n, samples", [(64, 200), (65, 200), (1000, 200), (10**6, 2)])
def test_spotcheck_past_64_bits(n, samples):
    # point indices no longer fit a uint64 from n = 65 on
    assert cs.modulus_spotcheck(cs.remark3_params(n, 4.0), samples=samples, seed=5) < 1e-9


@pytest.mark.parametrize("samples", [5, 100])  # the float loop, then the ufunc loop
def test_spotcheck_is_nan_past_the_float_range(samples):
    # weights 0.5: 1 + T passes 2046 between n = 6352 and 6353; far past
    # it the values used to overflow to nan, which the fold passed over
    # (5 samples read 0.0) or which raised RuntimeWarning (100 samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cs.modulus_spotcheck(cs.ParamSeq(np.full(6352, 0.5)), samples) < 1e-9
        for n in (6353, 10**5):
            assert math.isnan(cs.modulus_spotcheck(cs.ParamSeq(np.full(n, 0.5)), samples))


def test_spotcheck_points_are_uniform_bits(monkeypatch):
    # n independent fair bits per point: each coordinate is -1 about half the time
    seen = []
    real_evaluate = cs.verify.evaluate_many

    def spy(params, points):
        points = list(points)
        seen.extend(points)
        return real_evaluate(params, points)

    monkeypatch.setattr(cs.verify, "evaluate_many", spy)
    cs.modulus_spotcheck(cs.theorem_params(70), samples=400, seed=8)
    assert len(seen) == 400 and max(seen) < 1 << 70
    for bit in (0, 7, 63, 64, 69):
        ones = sum((x >> bit) & 1 for x in seen)
        assert 140 < ones < 260, bit


def test_spotcheck_passes_over_a_nan_sample(monkeypatch):
    # a NaN deviation never replaces the running maximum, wherever it falls
    params = cs.theorem_params(12)
    factor = cs.construct._unit_modulus_factor(params)
    real_evaluate = cs.verify.evaluate_many
    for where in (0, 57, 199):
        def stand_in(params, points):
            p, q = real_evaluate(params, points)
            p[where] = math.nan
            return p, q

        monkeypatch.setattr(cs.verify, "evaluate_many", stand_in)
        p, q = stand_in(params, map(random.Random(4).getrandbits, [12] * 200))
        want = max(abs(math.hypot(pv, qv) * factor - 1.0)
                   for pv, qv in zip(p.tolist(), q.tolist()) if not math.isnan(pv))
        assert want > 0.0
        assert cs.modulus_spotcheck(params, 200, seed=4) == want


@pytest.mark.parametrize("samples", [5, 100])  # the float loop, then the ufunc loop
def test_spotcheck_of_exact_unit_modulus_is_positive_zero(samples):
    # unit weights at odd n: P^2 + Q^2 = 2^(n+1) and the factor 2^(-(n+1)/2)
    # are exact, so every deviation is 0.0
    dev = cs.modulus_spotcheck(cs.ParamSeq(np.ones(7)), samples, seed=3)
    assert dev == 0.0 and math.copysign(1.0, dev) == 1.0


def test_spotcheck_holds_about_90_bytes_per_sample():
    # the values (16 bytes), their lists (64) and the deviations (8): the
    # Python fold over a generator read 112 bytes per sample here
    params = cs.theorem_params(30)
    samples = 10**5
    cs.modulus_spotcheck(params, 10)
    tracemalloc.start()
    try:
        cs.modulus_spotcheck(params, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 96 * samples, peak / samples


def _reference_spotcheck(params, samples, seed):
    # one scalar point at a time, as modulus_spotcheck was first written
    rng = random.Random(seed)
    a = params.a
    factor = 2.0 ** (-0.5 * (1.0 + float(np.sum(np.log1p(a * a) / math.log(2.0)))))
    weights = a.tolist()
    worst = 0.0
    for _ in range(samples):
        pv, qv = orc.point_values(weights, rng.getrandbits(params.n))
        worst = max(worst, abs(math.hypot(pv, qv) * factor - 1.0))
    return worst


@pytest.mark.parametrize("n, samples", [(28, 500), (30, 2000), (70, 400), (1000, 60)])
@pytest.mark.parametrize("seed", [3, 2024, 77])
def test_spotcheck_matches_scalar_reference(n, samples, seed):
    for params in (cs.theorem_params(n), cs.remark3_params(n, 4.0)):
        assert cs.modulus_spotcheck(params, samples, seed) == _reference_spotcheck(params, samples, seed)


def test_spotcheck_chunks_keep_the_draw_order(monkeypatch):
    params = cs.remark3_params(70, 4.0)
    whole = cs.modulus_spotcheck(params, 300, 5)
    monkeypatch.setattr(cs.construct, "_CHUNK_BYTES", 9 * 4)  # 4 points per chunk
    assert cs.construct._points_per_chunk(70) == 4
    assert cs.modulus_spotcheck(params, 300, 5) == whole == _reference_spotcheck(params, 300, 5)
