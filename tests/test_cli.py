"""End-to-end command behavior: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cubespec import cli, read_function
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

    def test_weights_rejected_for_fixed_weight_kinds(self, capsys):
        code, _, stderr = run(capsys, ["gen", "--n", "4", "--kind", "sum", "--a", "constant:0.5"])
        assert code == 2 and "error:" in stderr

    def test_bad_weight_value(self, capsys):
        code, _, _ = run(capsys, ["gen", "--n", "2", "--kind", "real", "--a", "constant:1.5"])
        assert code == 2

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

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["stats", "--file", str(tmp_path / "nope.txt")])
        assert code == 3

    def test_text_format(self, capsys):
        code, stdout, _ = run(capsys, ["stats", "--n", "4", "--kind", "sum", "--format", "text"])
        assert code == 0
        assert "influence: 1.0" in stdout


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

    def test_scale_must_stay_below_dimension(self, capsys):
        code, _, _ = run(capsys, ["sweep", "--n", "4", "--a", "4"])
        assert code == 2

    def test_beyond_table_cap_is_fine(self, capsys):
        code, stdout, _ = run(capsys, ["sweep", "--n", "1048576", "--a", "32"])
        assert code == 0
        assert stdout.splitlines()[1].startswith("1048576,32.0,")


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


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "cubespec.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for word in ("gen", "stats", "verify", "sweep", "neeman"):
        assert word in proc.stdout
