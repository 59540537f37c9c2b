"""End-to-end command behavior: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cubespec import cli, construct, read_function, stats, verify, write_function
from cubespec.verify import NEEMAN_INFLUENCE_BAND

STATS_HEADER = "n,kind,l2,linf,influence,entropy,bound,ratio"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_file_and_summary(self, capsys, tmp_path):
        out = tmp_path / "f.txt"
        code, stdout, stderr = run(
            capsys, ["gen", "--n", "4", "--kind", "real", "--a", "one-over-sqrt-n", "--out", str(out)]
        )
        assert code == 0
        assert stdout == "summary n=4 kind=real l2=1.0 influence=0.8 entropy=2.8877123795494493\n"
        f = read_function(out)
        assert f.n == 4 and f.is_real
        text = out.read_text()
        assert text.startswith("n=4 kind=real\n")
        assert len(text.splitlines()) == 17

    def test_zero_dimension_single_value(self, capsys):
        code, stdout, stderr = run(capsys, ["gen", "--n", "0", "--kind", "real"])
        assert code == 0
        assert stdout == "n=0 kind=real\n1.0\n"
        assert stderr.startswith("summary n=0 kind=real ")

    def test_cap_refused_without_override(self, capsys):
        code, _, stderr = run(capsys, ["gen", "--n", "30", "--kind", "complex"])
        assert code == 2
        assert "error:" in stderr

    def test_cap_override_flag(self, capsys, tmp_path):
        out = tmp_path / "g.txt"
        argv = ["gen", "--n", "5", "--kind", "complex", "--a", "constant:0.5",
                "--max-table-n", "5", "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        g = read_function(out)
        assert not g.is_real
        assert np.max(np.abs(np.abs(g.values) - 1.0)) <= 1e-12

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        out = tmp_path / "no_such_dir" / "f.txt"
        code, _, stderr = run(capsys, ["gen", "--n", "2", "--kind", "classical", "--out", str(out)])
        assert code == 3
        assert stderr.startswith("io error:")

    def test_a_list_spec(self, capsys, tmp_path):
        out = tmp_path / "h.txt"
        code, stdout, _ = run(
            capsys, ["gen", "--n", "2", "--kind", "real", "--a", "list:1,0.5", "--out", str(out)]
        )
        assert code == 0
        # table is the hand case [2,-1,2,1] scaled to unit l2 norm
        want = np.array([2.0, -1.0, 2.0, 1.0]) / math.sqrt(2.5)
        assert np.max(np.abs(read_function(out).values - want)) <= 1e-12

    def test_a_file_spec(self, capsys, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("1.0\n0.5\n")
        out = tmp_path / "h.txt"
        code, _, _ = run(
            capsys, ["gen", "--n", "2", "--kind", "real", "--a", f"file:{weights}", "--out", str(out)]
        )
        assert code == 0

    def test_a_file_spec_skips_blank_lines(self, capsys, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("1.0\n\n0.5\n")
        argv = ["gen", "--n", "2", "--kind", "real", "--a"]
        assert run(capsys, argv + [f"file:{weights}"]) == run(capsys, argv + ["list:1,0.5"])

    def test_a_remark3_spec(self, capsys, tmp_path):
        out, want = tmp_path / "r.txt", tmp_path / "w.txt"
        argv = ["gen", "--n", "8", "--kind", "real", "--a", "remark3:4", "--out", str(out)]
        assert run(capsys, argv)[0] == 0
        write_function(want, construct.normalized_real(construct.remark3_params(8, 4.0)))
        assert out.read_bytes() == want.read_bytes()

    def test_sum_kind_summary(self, capsys):
        code, stdout, stderr = run(capsys, ["gen", "--n", "4", "--kind", "sum"])
        assert code == 0 and stdout.startswith("n=4 kind=real\n")
        assert stderr == "summary n=4 kind=sum l2=1.0 influence=1.0 entropy=2.0\n"

    @pytest.mark.parametrize("spec, message", [
        ("list:1,0.5", "list has 2 weights but n=3"),
        ("file:{w}", "weight file has 2 entries but n=3"),
        ("bogus:1", "bad --a specifier 'bogus:1': expected constant:<c>, one-over-sqrt-n, "
                    "remark3:<a>, list:<v1,v2,...> or file:<path>"),
    ])
    def test_weight_spec_errors(self, capsys, tmp_path, spec, message):
        weights = tmp_path / "w.txt"
        weights.write_text("1.0\n0.5\n")
        argv = ["gen", "--n", "3", "--kind", "real", "--a", spec.format(w=weights)]
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    def test_weights_rejected_for_fixed_weight_kinds(self, capsys):
        code, _, stderr = run(capsys, ["gen", "--n", "4", "--kind", "sum", "--a", "constant:0.5"])
        assert code == 2 and "error:" in stderr

    def test_bad_weight_value(self, capsys):
        code, _, _ = run(capsys, ["gen", "--n", "2", "--kind", "real", "--a", "constant:1.5"])
        assert code == 2

    @pytest.mark.parametrize("cmd, spec, message", [
        ("gen", "constant:5", "weights must lie in (0, 1], got 5.0"),
        ("gen", "constant:nan", "weights must be finite"),
        ("stats", "constant:-1", "weights must lie in (0, 1], got -1.0"),
    ])
    @pytest.mark.parametrize("n", ["0", "1"])
    def test_constant_value_refused_at_every_n(self, capsys, cmd, spec, message, n):
        argv = [cmd, "--n", n, "--kind", "real", "--a", spec]
        assert run(capsys, argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("spec", ["constant:1", "constant:0.5"])
    def test_valid_constant_at_n_zero(self, capsys, spec):
        code, stdout, _ = run(capsys, ["gen", "--n", "0", "--kind", "real", "--a", spec])
        assert code == 0 and stdout == "n=0 kind=real\n1.0\n"

    def test_missing_weight_file(self, capsys):
        code, _, _ = run(capsys, ["gen", "--n", "2", "--kind", "real", "--a", "file:/nonexistent/w.txt"])
        assert code == 3


class TestStats:
    def test_csv_of_plain_sum(self, capsys):
        code, stdout, _ = run(capsys, ["stats", "--n", "16", "--kind", "sum", "--format", "csv"])
        assert code == 0
        header, row = stdout.splitlines()
        assert header == STATS_HEADER
        cells = row.split(",")
        assert cells[0] == "16" and cells[1] == "sum"
        assert float(cells[4]) == pytest.approx(1.0, rel=1e-12)
        assert float(cells[5]) == pytest.approx(4.0, rel=1e-12)
        assert float(cells[7]) == pytest.approx(4.0, rel=1e-12)

    def test_bounded_real_family_beats_bound(self, capsys):
        argv = ["stats", "--n", "16", "--kind", "real", "--a", "one-over-sqrt-n", "--format", "json"]
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        rec = json.loads(stdout)
        assert rec["entropy"] > 3.7647
        assert rec["bound"] == pytest.approx((16 / 17) * 4.0, rel=1e-12)

    def test_json_is_strict_with_a_nan_ratio(self, capsys):
        def refuse(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        code, stdout, _ = run(capsys, ["stats", "--n", "0", "--kind", "real", "--format", "json"])
        assert code == 0
        rec = json.loads(stdout, parse_constant=refuse)
        assert rec["ratio"] is None and rec["l2"] == 1.0

    def test_file_input_round_trip(self, capsys, tmp_path):
        out = tmp_path / "f.txt"
        run(capsys, ["gen", "--n", "3", "--kind", "classical", "--out", str(out)])
        code, stdout, _ = run(capsys, ["stats", "--file", str(out), "--format", "csv"])
        assert code == 0
        row = stdout.splitlines()[1].split(",")
        assert row[0] == "3" and row[1] == "real"

    def test_constant_table_ratio_is_nan(self, capsys, tmp_path):
        table = tmp_path / "const.txt"
        table.write_text("n=2 kind=real\n1.0\n1.0\n1.0\n1.0\n")
        code, stdout, _ = run(capsys, ["stats", "--file", str(table), "--format", "csv"])
        assert code == 0
        cells = stdout.splitlines()[1].split(",")
        assert float(cells[4]) == 0.0 and float(cells[5]) == 0.0
        assert cells[7] == "nan"

    def test_parse_error_is_config_error(self, capsys, tmp_path):
        table = tmp_path / "bad.txt"
        table.write_text("n=1 kind=real\n1.0\nbogus\n")
        code, _, stderr = run(capsys, ["stats", "--file", str(table)])
        assert code == 2 and "line 3" in stderr

    @pytest.mark.parametrize("data, message", [
        (b"n=1 kind=real\n1.0\n2.0\xc3\xa9\n", "unparseable value on line 3"),
        (b"n=1 kind=real\n1_0.5\n2.0\n", "unparseable value on line 2"),
        (b"n=0_1 kind=real\n1_0.5\n2.0\n", "bad dimension in header 'n=0_1 kind=real'"),
    ], ids=["non-ascii-byte", "underscore-value", "underscore-dimension"])
    def test_non_plain_numbers_are_config_errors(self, capsys, tmp_path, data, message):
        table = tmp_path / "bad.txt"
        table.write_bytes(data)
        code, stdout, stderr = run(capsys, ["stats", "--file", str(table)])
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("data", [b"0.5\n0_0.5\n", b"0.5\n0.\xc3\xa9\n"])
    def test_non_plain_weights_are_config_errors(self, capsys, tmp_path, data):
        weights = tmp_path / "w.txt"
        weights.write_bytes(data)
        argv = ["stats", "--n", "2", "--kind", "real", "--a", f"file:{weights}"]
        code, stdout, stderr = run(capsys, argv)
        assert (code, stdout, stderr) == (2, "", "error: unparseable weight on line 2\n")

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["stats", "--file", str(tmp_path / "nope.txt")])
        assert code == 3

    def test_text_format(self, capsys):
        code, stdout, _ = run(capsys, ["stats", "--n", "4", "--kind", "sum", "--format", "text"])
        assert code == 0
        assert "influence: 1.0" in stdout

    def test_point_mass_entropy_prints_positive_zero(self, capsys):
        # the one weight 1 has 1 * log2(1) = 0: entropy 0.0, never -0.0
        code, stdout, _ = run(capsys, ["stats", "--n", "0", "--a", "constant:0.5"])
        assert code == 0
        assert "entropy: 0.0\n" in stdout and "-0.0" not in stdout


class TestVerify:
    def test_classical_kind_passes(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "classical", "--n", "8"])
        assert code == 0
        assert "overall=true" in stdout

    def test_complex_kind_passes(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "complex", "--n", "16", "--format", "json"])
        assert code == 0
        doc = json.loads(stdout)
        assert doc["all_pass"] is True
        assert doc["certificates"][0]["kind"] == "theorem2"

    def test_scaled_family_flag(self, capsys):
        # the flag selects the scaled-family certificate in place of the
        # kind's default mapping
        argv = ["verify", "--kind", "real", "--n", "16", "--remark3", "4", "--format", "json"]
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(stdout)
        kinds = [c["kind"] for c in doc["certificates"]]
        assert kinds == ["remark3"]
        rm3 = doc["certificates"][0]
        infl = next(k["lhs"] for k in rm3["checks"] if k["name"] == "cf_influence_below_scale")
        assert 2.0 < infl < 4.0

    def test_lift_flag(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "real", "--n", "6", "--remark2", "--format", "json"])
        assert code == 0
        kinds = [c["kind"] for c in json.loads(stdout)["certificates"]]
        assert "remark2" in kinds

    def test_lift_flag_refuses_the_cap_as_the_dimension(self, capsys):
        argv = ["verify", "--kind", "real", "--n", "8", "--remark2", "--max-table-n", "8"]
        assert run(capsys, argv) == (2, "", "error: dimension n=9 exceeds the table cap 8; "
                                            "a 2^9-entry table was refused\n")

    def test_csv_format_rows(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "neeman", "--n", "12", "--format", "csv"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "kind,n,check,lhs,relation,rhs,margin,pass"
        assert all(line.startswith("neeman,12,") for line in lines[1:])

    def test_failing_tolerance_exits_one(self, capsys):
        code, stdout, stderr = run(capsys, ["verify", "--kind", "real", "--n", "8", "--tol", "1e-30"])
        assert code == 1
        assert "FAILED" in stderr

    def test_weights_flag_rejected(self, capsys):
        # certificates fix their own weights; --a used to be ignored silently
        code, stdout, stderr = run(capsys, ["verify", "--kind", "real", "--n", "6", "--a", "constant:0.5"])
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr and "--a" in stderr

    def test_sum_kind_has_no_certificate(self, capsys):
        code, _, stderr = run(capsys, ["verify", "--kind", "sum", "--n", "4"])
        assert code == 2 and "error:" in stderr

    @pytest.mark.parametrize("argv", [
        ["--kind", "neeman", "--n", "8", "--remark2"],
        ["--kind", "complex", "--n", "6", "--remark2"],
        ["--kind", "sum", "--n", "8", "--remark3", "4"],
        ["--kind", "classical", "--n", "8", "--remark3", "4"],
    ])
    def test_remark_flags_refuse_other_kinds(self, capsys, argv):
        # a remark certificate covers the real (remark 2) or the real and
        # complex (remark 3) families, never the kind that was asked for
        code, stdout, stderr = run(capsys, ["verify"] + argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and f"kind={argv[1]}" in stderr

    def test_scaled_family_flag_accepts_complex_kind(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "complex", "--n", "6", "--remark3", "3"])
        assert code == 0 and "overall=true" in stdout

    def test_classical_pair_at_n_zero_prints_no_negative_zero(self, capsys):
        code, stdout, _ = run(capsys, ["verify", "--kind", "classical", "--n", "0"])
        assert code == 0 and "-0.0" not in stdout
        assert "check name=normalized_entropy_n lhs=0.0 " in stdout


class TestSweep:
    def test_ratio_strictly_increases(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--n", "16,64,256,1024", "--a", "4"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "n,a,influence,entropy,bound,ratio"
        ratios = [float(line.split(",")[-1]) for line in lines[1:]]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_single_cell_matches_certificate_numbers(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--n", "16", "--a", "4"])
        assert code == 0
        cells = stdout.splitlines()[1].split(",")
        assert float(cells[2]) == pytest.approx(3.2, rel=1e-12)
        assert float(cells[3]) > 4.0  # beats the certificate bound 2*(4-2)

    def test_grid_order_row_major(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--n", "16,64", "--a", "2,4"])
        heads = [tuple(line.split(",")[:2]) for line in stdout.splitlines()[1:]]
        assert heads == [("16", "2.0"), ("16", "4.0"), ("64", "2.0"), ("64", "4.0")]

    def test_remark3_prefix_reads_as_plain_scales(self, capsys):
        plain = run(capsys, ["sweep", "--n", "16,64", "--a", "2,4"])
        assert plain[0] == 0
        assert run(capsys, ["sweep", "--n", "16,64", "--a", "remark3:2,4"]) == plain

    @pytest.mark.parametrize("argv", [["--a", "4"], ["--n", "16"]])
    def test_missing_grid_axis(self, capsys, argv):
        code, stdout, stderr = run(capsys, ["sweep"] + argv)
        assert code == 2 and stdout == ""
        assert stderr.startswith("error: sweep needs")

    def test_scale_must_stay_below_dimension(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--n", "4", "--a", "4"])
        assert code == 2

    def test_beyond_table_cap_is_fine(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--n", "1048576", "--a", "32"])
        assert code == 0
        assert stdout.splitlines()[1].startswith("1048576,32.0,")


#: The most weights numpy can broadcast one float64 to (n * 8 bytes fit np.intp)
MOST_WEIGHTS = 2**60 - 1


class TestMostWeights:
    def test_sweep_at_the_limit(self, capsys):
        code, stdout, stderr = run(capsys, ["sweep", "--n", str(MOST_WEIGHTS), "--a", "4"])
        assert code == 0 and stderr == ""
        assert stdout.splitlines()[1:] == [
            "1152921504606846975,4.0,4.0,237.77078016355586,232.0,59.442695040888964"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n", str(MOST_WEIGHTS + 1), "--a", "4"],
        ["stats", "--n", str(MOST_WEIGHTS + 1), "--a", "constant:0.5"],
        ["gen", "--kind", "classical", "--n", str(MOST_WEIGHTS + 1)],
    ], ids=["sweep", "stats-constant", "gen-classical"])
    def test_past_the_limit_is_one_error_line(self, capsys, argv):
        code, stdout, stderr = run(capsys, argv)
        assert code == 2 and stdout == ""
        assert stderr == (f"error: dimension must be <= {MOST_WEIGHTS} for a weight "
                          f"sequence, got {MOST_WEIGHTS + 1}\n")


class TestWeightStorage:
    """Constant weight specs are stored as one value broadcast to n."""

    @pytest.mark.parametrize("spec", ["constant:0.5", "one-over-sqrt-n", "remark3:4"])
    def test_constant_specs_have_zero_stride(self, spec):
        a = cli.parse_param_spec(spec, 10**6).a
        assert a.strides == (0,) and not a.flags.writeable

    def test_list_spec_is_copied(self):
        a = cli.parse_param_spec("list:0.5,0.25,0.5", 3).a
        assert a.flags.owndata and a.tolist() == [0.5, 0.25, 0.5]

    def test_classical_kind_has_zero_stride(self):
        args = cli.build_parser().parse_args(["gen", "--kind", "classical", "--n", "3"])
        _, params = cli._build_function(args, 3)
        assert params.a.strides == (0,) and params.a.tolist() == [1.0, 1.0, 1.0]


class TestNeemanCmd:
    def test_default_set_monotone(self, capsys):
        code, stdout, _ = run(capsys, ["neeman", "--format", "csv"])
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "n,clamp,influence,entropy"
        ents = [float(line.split(",")[-1]) for line in lines[1:]]
        assert ents == sorted(ents) and len(ents) == 4

    def test_json_report(self, capsys):
        code, stdout, _ = run(capsys, ["neeman", "--n", "8,12", "--format", "json"])
        doc = json.loads(stdout)
        assert code == 0
        assert doc["entropy_increasing"] is True and doc["overall"] is True
        assert doc["band"] == list(NEEMAN_INFLUENCE_BAND)

    def test_inactive_clamp_matches_plain_sum(self, capsys):
        code, stdout, _ = run(capsys, ["neeman", "--n", "16", "--C", "10", "--format", "csv"])
        assert code == 0
        cells = stdout.splitlines()[1].split(",")
        assert float(cells[2]) == pytest.approx(1.0, rel=1e-12)
        assert float(cells[3]) == pytest.approx(4.0, rel=1e-12)

    def test_nonmonotone_order_fails(self, capsys):
        code, _, stderr = run(capsys, ["neeman", "--n", "8,4", "--format", "csv"])
        assert code == 1 and "FAILED" in stderr

    def test_zero_clamp_rejected(self, capsys):
        code, _, _ = run(capsys, ["neeman", "--n", "8", "--C", "0"])
        assert code == 2


class TestDeterminism:
    def test_gen_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["gen", "--n", "6", "--kind", "complex", "--a", "one-over-sqrt-n"]
        assert run(capsys, argv + ["--out", str(a)])[0] == 0
        assert run(capsys, argv + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_output_identical_across_runs(self, capsys):
        argv = ["sweep", "--n", "16,256", "--a", "2,8"]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second

    def test_out_flag_writes_report_files(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(capsys, ["sweep", "--n", "16", "--a", "4", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("n,a,influence,entropy,bound,ratio\n")


class TestArgumentErrors:
    def test_unknown_kind(self, capsys):
        assert run(capsys, ["gen", "--n", "2", "--kind", "cubic"])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, ["transmogrify"])[0] == 2

    def test_negative_dimension(self, capsys):
        assert run(capsys, ["gen", "--n", "-1", "--kind", "real"])[0] == 2

    def test_bad_list_entry(self, capsys):
        assert run(capsys, ["gen", "--n", "2", "--kind", "real", "--a", "list:1,zebra"])[0] == 2

    @pytest.mark.parametrize("argv, message", [
        (["stats", "--n", "1,x"], "bad dimension list '1,x'"),
        (["sweep", "--n", "4", "--a", "2,x"], "bad scale list '2,x'"),
    ])
    def test_bad_list_option(self, capsys, argv, message):
        code, stdout, stderr = run(capsys, argv)
        assert code == 2 and stdout == ""
        assert message in stderr


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "cubespec.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for word in ("gen", "stats", "verify", "sweep", "neeman"):
        assert word in proc.stdout



# Golden output: the exact stdout, stderr and exit code of every
# subcommand in every format.  Exact numbers are written out as literal
# bytes; the rest are formatted here from the library's own values, so
# the expected bytes follow the platform's floats but not the CLI's code.

STATS_PAIRS = (("n", "4"), ("kind", "sum"), ("l2", "1.0"), ("linf", "2.0"), ("influence", "1.0"),
               ("entropy", "2.0"), ("bound", "1.6"), ("ratio", "2.0"))
STATS_CSV = "n,kind,l2,linf,influence,entropy,bound,ratio\n4,sum,1.0,2.0,1.0,2.0,1.6,2.0\n"
STATS_JSON = ('{\n  "n": 4,\n  "kind": "sum",\n  "l2": 1.0,\n  "linf": 2.0,\n'
              '  "influence": 1.0,\n  "entropy": 2.0,\n  "bound": 1.6,\n  "ratio": 2.0\n}\n')
STATS_TEXT = "".join(f"{k}: {v}\n" for k, v in STATS_PAIRS)
CLASSICAL_CSV = (
    "kind,n,check,lhs,relation,rhs,margin,pass\n"
    "classical_rs,4,closed_form_oracle_agreement,0.0,<,1e-09,1e-09,true\n"
    "classical_rs,4,coefficient_magnitude_deviation,0.0,<=,1e-12,1e-12,true\n"
    "classical_rs,4,l2_norm_target,4.0,~rel,4.0,1e-12,true\n"
    "classical_rs,4,linf_over_l2,1.0,<=,1.4142135623740952,0.41421356237409523,true\n"
    "classical_rs,4,normalized_influence_half_n,2.0,~rel,2.0,1e-09,true\n"
    "classical_rs,4,normalized_entropy_n,4.0,~rel,4.0,1e-09,true\n"
)
GEN_TABLE = "n=2 kind=real\n1.0\n-1.0\n1.0\n1.0\n"
GEN_SUMMARY = "summary n=2 kind=classical l2=1.0 influence=1.0 entropy=2.0\n"


def _golden_sweep(fmt):
    keys = ("n", "a", "influence", "entropy", "bound", "ratio")
    rows = []
    for n in (16, 64):
        for a in (2.0, 4.0):
            ncf = construct.normalized_closed_form(construct.remark3_params(n, a))
            rows.append(dict(zip(keys, (n, a, ncf.influence, ncf.entropy, ncf.entropy_lower_bound,
                                        ncf.entropy / ncf.influence))))
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    cells = [[str(r["n"])] + [repr(float(r[k])) for k in keys[1:]] for r in rows]
    if fmt == "csv":
        return ",".join(keys) + "\n" + "".join(",".join(c) + "\n" for c in cells)
    return "".join(" ".join(f"{k}={v}" for k, v in zip(keys, c)) + "\n" for c in cells)


def _golden_neeman(fmt, ns):
    rep = verify.neeman_regression(ns)
    if fmt == "json":
        doc = {"clamp": 2.0,
               "rows": [{"n": n, "influence": i, "entropy": h} for n, i, h in rep.rows],
               "entropy_increasing": rep.entropy_increasing, "band": [0.99, 1.04],
               "influence_in_band": rep.influence_in_band, "overall": rep.overall}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return "n,clamp,influence,entropy\n" + "".join(f"{n},2.0,{i!r},{h!r}\n" for n, i, h in rep.rows)
    return "".join(f"n={n} clamp=2.0 influence={i!r} entropy={h!r}\n" for n, i, h in rep.rows) + (
        f"entropy_strictly_increasing={str(rep.entropy_increasing).lower()}\n"
        f"influence_in_band={str(rep.influence_in_band).lower()} band=[0.99, 1.04]\n")


def _golden_verify(fmt, certs):
    if fmt == "json":
        doc = {"certificates": [c.to_dict() for c in certs], "all_pass": all(c.overall for c in certs)}
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return "kind,n,check,lhs,relation,rhs,margin,pass\n" + "".join(
            f"{c.kind},{c.n},{ch.name},{ch.lhs!r},{ch.relation},{ch.rhs!r},{ch.margin!r},"
            f"{str(ch.passed).lower()}\n"
            for c in certs for ch in c.checks)
    return "\n\n".join(c.to_text() for c in certs) + "\n"


def _golden_failed(certs):
    return "".join(f"FAILED {c.kind}: {ch.name} margin={ch.margin!r}\n"
                   for c in certs for ch in c.checks if not ch.passed)


REMARK_ARGV = ["verify", "--kind", "real", "--n", "6", "--remark3", "2", "--remark2"]
SWEEP_ARGV = ["sweep", "--n", "16,64", "--a", "2,4"]

#: name -> () -> (argv, exit code, stdout, stderr); built lazily because
#: the expected bytes of most cases come from library calls
GOLDEN = {
    "gen-stdout": lambda: (["gen", "--kind", "classical", "--n", "2"], 0, GEN_TABLE, GEN_SUMMARY),
    "stats-csv": lambda: (["stats", "--n", "4", "--kind", "sum", "--format", "csv"], 0, STATS_CSV, ""),
    "stats-json": lambda: (["stats", "--n", "4", "--kind", "sum", "--format", "json"], 0, STATS_JSON, ""),
    "stats-text": lambda: (["stats", "--n", "4", "--kind", "sum", "--format", "text"], 0, STATS_TEXT, ""),
    "stats-default": lambda: (["stats", "--n", "4", "--kind", "sum"], 0, STATS_TEXT, ""),
    "verify-classical-csv": lambda: (
        ["verify", "--kind", "classical", "--n", "4", "--format", "csv"], 0, CLASSICAL_CSV, ""),
    **{
        f"verify-{fmt}": (lambda fmt=fmt: (
            REMARK_ARGV + ["--format", fmt], 0,
            _golden_verify(fmt, [verify.certify_remark3(6, 2.0), verify.certify_remark2(6)]), ""))
        for fmt in ("csv", "json", "text")
    },
    "verify-default": lambda: (
        ["verify", "--kind", "complex", "--n", "5"], 0, _golden_verify("text", [verify.certify_theorem2(5)]), ""),
    "verify-failing": lambda: (
        ["verify", "--kind", "real", "--n", "8", "--tol", "1e-30"], 1,
        _golden_verify("text", [verify.certify_theorem1(8, 1e-30)]),
        _golden_failed([verify.certify_theorem1(8, 1e-30)])),
    **{
        f"sweep-{fmt}": (lambda fmt=fmt: (SWEEP_ARGV + ["--format", fmt], 0, _golden_sweep(fmt), ""))
        for fmt in ("csv", "json", "text")
    },
    "sweep-default": lambda: (["sweep", "--n", "16,64", "--a", "list:2,4"], 0, _golden_sweep("csv"), ""),
    **{
        f"neeman-{fmt}": (lambda fmt=fmt: (
            ["neeman", "--n", "6,8", "--format", fmt], 0, _golden_neeman(fmt, [6, 8]), ""))
        for fmt in ("csv", "json", "text")
    },
    "neeman-default": lambda: (["neeman", "--n", "6,8"], 0, _golden_neeman("text", [6, 8]), ""),
    "neeman-failing": lambda: (
        ["neeman", "--n", "8,4"], 1, _golden_neeman("text", [8, 4]),
        "FAILED neeman regression: entropy_increasing=false influence_in_band=true\n"),
    "gen-error": lambda: (
        ["gen", "--n", "1,2"], 2, "", "error: gen needs exactly one --n value, got [1, 2]\n"),
    "gen-fixed-weights": lambda: (
        ["gen", "--n", "4", "--kind", "sum", "--a", "constant:0.5"], 2, "",
        "error: --a has no effect for kind=sum; weights are fixed\n"),
    "verify-no-family": lambda: (
        ["verify", "--kind", "sum", "--n", "4"], 2, "", "error: no certificate family for kind=sum\n"),
    "sweep-bad-cell": lambda: (
        ["sweep", "--n", "4", "--a", "4"], 2, "", "error: sweep cell (n=4, a=4.0) invalid: need 1 < a < n\n"),
    "neeman-bad-clamp": lambda: (
        ["neeman", "--n", "6", "--C", "0"], 2, "", "error: clamp threshold must be positive, got 0.0\n"),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_exact_bytes(self, capsys, name):
        argv, code, stdout, stderr = GOLDEN[name]()
        assert run(capsys, argv) == (code, stdout, stderr)

    @pytest.mark.parametrize("name", [name for name in GOLDEN if not name.startswith("gen-")])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, name):
        argv, code, stdout, stderr = GOLDEN[name]()
        out = tmp_path / "report.txt"
        assert run(capsys, argv + ["--out", str(out)]) == (code, "", stderr)
        if code == 2:
            assert not out.exists()
        else:
            assert out.read_bytes() == stdout.encode("ascii")

    def test_gen_out_file(self, capsys, tmp_path):
        out = tmp_path / "f.txt"
        argv = ["gen", "--kind", "classical", "--n", "2", "--out", str(out)]
        assert run(capsys, argv) == (0, GEN_SUMMARY, "")
        assert out.read_bytes() == GEN_TABLE.encode("ascii")


#: (subcommand argv, flag and value) pairs that were accepted and then
#: ignored; each subcommand now declares only the options it reads
REMOVED_FLAGS = [
    *[(argv, ["--seed", "1"]) for argv in (
        ["gen", "--n", "2", "--kind", "classical"],
        ["stats", "--n", "4", "--kind", "sum"],
        ["verify", "--kind", "classical", "--n", "4"],
        ["sweep", "--n", "16", "--a", "4"],
        ["neeman", "--n", "6,8"],
    )],
    *[(argv, ["--tol", "5"]) for argv in (
        ["gen", "--n", "2", "--kind", "classical"],
        ["stats", "--n", "4", "--kind", "sum"],
        ["sweep", "--n", "16", "--a", "4"],
        ["neeman", "--n", "6,8"],
    )],
    (["gen", "--n", "2", "--kind", "classical"], ["--format", "json"]),
    (["sweep", "--n", "16", "--a", "4"], ["--kind", "sum"]),
    (["neeman", "--n", "6,8"], ["--kind", "sum"]),
    (["sweep", "--n", "16", "--a", "4"], ["--C", "3"]),
    (["sweep", "--n", "16", "--a", "4"], ["--max-table-n", "30"]),
    (["verify", "--kind", "real", "--n", "6"], ["--a", "constant:0.5"]),
]


@pytest.mark.parametrize("argv, flag", REMOVED_FLAGS, ids=lambda x: " ".join(x))
def test_removed_flag_is_a_usage_error(capsys, argv, flag):
    code, stdout, stderr = run(capsys, argv + flag)
    assert code == 2
    assert stdout == ""
    assert "error:" in stderr and flag[0] in stderr


@pytest.mark.parametrize("build", [["--a", "constant:0.5"], ["--n", "9"], ["--n", "2", "--a", "list:1,1"]])
def test_stats_file_refuses_build_options(capsys, tmp_path, build):
    table = tmp_path / "f.txt"
    table.write_text("n=1 kind=real\n1.0\n-1.0\n")
    code, stdout, stderr = run(capsys, ["stats", "--file", str(table)] + build)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: --file")


@pytest.mark.parametrize("build", [["--kind", "neeman"], ["--kind", "real"], ["--C", "1.5"], ["--C", "2"]])
def test_stats_file_refuses_kind_and_clamp(capsys, tmp_path, build):
    # the kind comes from the file and no clamp applies, so both are usage errors
    table = tmp_path / "f.txt"
    table.write_text("n=1 kind=real\n1.0\n-1.0\n")
    code, stdout, stderr = run(capsys, ["stats", "--file", str(table)] + build)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: --file")


@pytest.mark.parametrize("n", [30, 64])
def test_stats_file_header_above_the_cap_exits_two(capsys, tmp_path, n):
    table = tmp_path / "f.txt"
    table.write_text(f"n={n} kind=real\n1.0\n-1.0\n")
    code, stdout, stderr = run(capsys, ["stats", "--file", str(table)])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and "table cap" in stderr


@pytest.mark.parametrize("argv, calls", [
    (["stats", "--n", "12", "--kind", "neeman"], 1),
    (["gen", "--n", "12", "--kind", "neeman"], 1),
    (["gen", "--n", "12", "--kind", "real"], 0),
])
def test_one_transform_per_command(capsys, monkeypatch, argv, calls):
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return stats(*args, **kwargs)

    monkeypatch.setattr(cli, "stats", spy)
    assert run(capsys, argv)[0] == 0
    assert len(seen) == calls


def test_stats_builds_with_default_kind_and_clamp(capsys):
    assert run(capsys, ["stats", "--n", "6"]) == run(capsys, ["stats", "--n", "6", "--kind", "real"])
    default = run(capsys, ["stats", "--n", "6", "--kind", "neeman", "--format", "csv"])
    assert default == run(capsys, ["stats", "--n", "6", "--kind", "neeman", "--C", "2", "--format", "csv"])
    assert default[0] == 0 and ",neeman," in default[1]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--kind", "real", "--n", "6", "--tol", "0"], "tolerance must be positive"),
    (["verify", "--kind", "real", "--n", "6", "--tol=-1e-9"], "tolerance must be positive"),
    (["verify", "--kind", "real", "--n", "6", "--tol", "nan"], "tolerance must be positive"),
    (["verify", "--kind", "real", "--n", "6", "--tol", "inf"], "tolerance must be positive and finite"),
    (["verify", "--kind", "real", "--n", "6", "--tol", "1e400"], "tolerance must be positive and finite"),
    (["neeman", "--n", "6,-8"], "dimension must be >= 0"),
    (["sweep", "--n", "-16", "--a", "4"], "dimension must be >= 0"),
    (["stats", "--n", "-1", "--kind", "sum"], "dimension must be >= 0"),
    (["stats", "--n", "4", "--max-table-n", "-1"], "table cap must be >= 0, got -1"),
])
def test_values_argparse_cannot_check_exit_two(capsys, argv, message):
    code, stdout, stderr = run(capsys, argv)
    assert code == 2 and stdout == ""
    assert message in stderr


#: the subcommands that take --kind and --C
C_COMMANDS = ("gen", "stats", "verify")


@pytest.mark.parametrize("kind", ["real", "complex", "sum", "classical"])
@pytest.mark.parametrize("command", C_COMMANDS)
def test_clamp_refused_for_kinds_that_ignore_it(capsys, command, kind):
    code, stdout, stderr = run(capsys, [command, "--n", "3", "--kind", kind, "--C", "9"])
    assert code == 2 and stdout == ""
    assert stderr == f"error: --C applies only to kind=neeman, not kind={kind}\n"


@pytest.mark.parametrize("command", C_COMMANDS)
def test_clamp_defaults_to_two_for_neeman(capsys, command):
    argv = [command, "--n", "6", "--kind", "neeman"]
    default = run(capsys, argv)
    assert default[0] == 0
    assert default == run(capsys, argv + ["--C", "2"])
    assert default != run(capsys, argv + ["--C", "1.5"])
