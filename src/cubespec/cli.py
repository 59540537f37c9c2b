"""Command-line front end.

Subcommands: gen (build a family member, write its value table),
stats (norms/influence/entropy of a built or loaded function),
verify (run certificates), sweep (closed-form entropy/influence grid),
neeman (clamped-sum regression table).  Each subcommand accepts only
the options it reads; any other option is a usage error.

Exit codes: 0 all good, 1 a certificate or regression check failed,
2 configuration or resource-cap error, 3 I/O failure.  All numeric
output uses shortest round-trip float formatting, so a fixed command
line produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import construct, fileio, verify
from .construct import ParamSeq
from .errors import CubespecError, FormatError, ParameterError
from .spectrum import DEFAULT_TABLE_CAP, HypercubeFunction, stats
from .verify import _cell, _kv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

KIND_CHOICES = ("real", "complex", "classical", "sum", "neeman")
FORMAT_CHOICES = ("csv", "json", "text")

#: kinds whose weight sequence is fixed by the family itself
FIXED_WEIGHT_KINDS = ("classical", "sum", "neeman")


def _single_n(args: argparse.Namespace) -> int:
    if len(args.n) != 1:
        raise ParameterError(
            f"{args.command} needs exactly one --n value, got {list(args.n)}"
        )
    return args.n[0]


def _parse_float(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParameterError(f"bad {context} value {token!r}") from None


def parse_param_spec(spec: str, n: int) -> ParamSeq:
    """Resolve an --a specifier to a weight sequence of length n."""
    if spec == "one-over-sqrt-n":
        return construct.theorem_params(n) if n else ParamSeq([])
    if spec.startswith("constant:"):
        return construct._constant_weights(_parse_float(spec[len("constant:"):], "--a constant"), n)
    if spec.startswith("remark3:"):
        return construct.remark3_params(n, _parse_float(spec[len("remark3:"):], "--a remark3"))
    if spec.startswith("list:"):
        vals = [_parse_float(t, "--a list") for t in spec[len("list:"):].split(",") if t]
        if len(vals) != n:
            raise ParameterError(f"list has {len(vals)} weights but n={n}")
        return ParamSeq(vals)
    if spec.startswith("file:"):
        vals = _read_weight_file(spec[len("file:"):])
        if len(vals) != n:
            raise ParameterError(f"weight file has {len(vals)} entries but n={n}")
        return ParamSeq(vals)
    raise ParameterError(
        f"bad --a specifier {spec!r}: expected constant:<c>, one-over-sqrt-n, "
        f"remark3:<a>, list:<v1,v2,...> or file:<path>"
    )


def _read_weight_file(path: str) -> list[float]:
    vals = []
    with fileio._open_maybe(path, "r") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(fileio._number(line, float))
            except ValueError:
                raise FormatError(f"unparseable weight on line {i}", line=i) from None
    return vals


def _ratio(entropy: float, influence: float) -> float:
    if influence > 0.0:
        return entropy / influence
    return math.inf if entropy > 0.0 else math.nan


def _kv_lines(rows: list[dict]) -> str:
    return "".join(_kv(r) + "\n" for r in rows)


def _emit(args: argparse.Namespace, rows: list[dict], doc=None, text: str | None = None) -> None:
    """Render a report in --format and write it to stdout or --out.

    csv is a header plus one line per row dict, json is `doc` (default
    {"rows": rows}, non-finite floats as null) and text is `text`
    (default one k=v line per row).
    """
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    elif args.format == "json":
        # strict JSON (RFC 8259 has no NaN or Infinity): non-finite floats become null
        doc = {"rows": rows} if doc is None else doc
        doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    elif text is None:
        text = _kv_lines(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)


def _neeman_clamp(args: argparse.Namespace) -> float | None:
    """--C, which only kind=neeman reads: 2 when absent, refused for any other kind."""
    if args.kind == "neeman":
        return 2.0 if args.clamp is None else args.clamp
    if args.clamp is not None:
        raise ParameterError(f"--C applies only to kind=neeman, not kind={args.kind}")
    return None


def _build_function(args: argparse.Namespace, n: int) -> tuple[HypercubeFunction, ParamSeq | None]:
    """The requested family member's table and its weights (None for sum and neeman)."""
    cap = args.max_table_n
    clamp = _neeman_clamp(args)
    if args.kind in FIXED_WEIGHT_KINDS and args.param_spec is not None:
        raise ParameterError(f"--a has no effect for kind={args.kind}; weights are fixed")
    if args.kind == "sum":
        return construct.normalized_sum(n, cap), None
    if args.kind == "neeman":
        return construct.neeman_function(n, clamp, normalize=True, max_table_n=cap), None
    spec = args.param_spec or "one-over-sqrt-n"
    params = construct._constant_weights(1.0, n) if args.kind == "classical" else parse_param_spec(spec, n)
    build = construct.unimodular_complex if args.kind == "complex" else construct.normalized_real
    return build(params, cap), params


def cmd_gen(args: argparse.Namespace) -> int:
    n = _single_n(args)
    f, params = _build_function(args, n)
    if params is not None:
        ncf = construct.normalized_closed_form(params)
        summary = {"l2": 1.0, "influence": ncf.influence, "entropy": ncf.entropy}
    elif args.kind == "sum":
        summary = {"l2": 1.0, "influence": 1.0, "entropy": math.log2(n)}
    else:  # neeman
        st = stats(f, args.max_table_n)
        summary = {"l2": st.l2_norm, "influence": st.influence, "entropy": st.entropy}
    summary_line = f"summary {_kv({'n': n, 'kind': args.kind, **summary})}"
    if args.out is None:
        fileio.write_function(sys.stdout, f)
        print(summary_line, file=sys.stderr)
    else:
        fileio.write_function(args.out, f)
        print(summary_line)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    if args.in_file is not None:
        if args.n or args.param_spec is not None or args.kind is not None or args.clamp is not None:
            raise ParameterError("--file reads n and the values from the table; "
                                 "--n, --a, --kind and --C only apply to a built function")
        f = fileio.read_function(args.in_file, args.max_table_n)
        n = f.n
        kind = "real" if f.is_real else "complex"
    else:
        args.kind = args.kind or "real"
        n = _single_n(args)
        f, _ = _build_function(args, n)
        kind = args.kind
    st = stats(f, args.max_table_n)
    record = {
        "n": n,
        "kind": kind,
        "l2": st.l2_norm,
        "linf": st.linf_norm,
        "influence": st.influence,
        "entropy": st.entropy,
        "bound": verify._entropy_bound(n),
        "ratio": _ratio(st.entropy, st.influence),
    }
    _emit(args, [record], record, "".join(f"{k}: {_cell(v)}\n" for k, v in record.items()))
    return EXIT_OK


def _select_certificates(args: argparse.Namespace, n: int) -> list:
    cap, tol = args.max_table_n, args.tol
    clamp = _neeman_clamp(args)
    if args.remark3_scale is not None and args.kind not in ("real", "complex"):
        raise ParameterError(f"--remark3 certifies the real and complex families, not kind={args.kind}")
    if args.run_remark2 and args.kind != "real":
        raise ParameterError(f"--remark2 certifies the lift of the real family, not kind={args.kind}")
    certs = []
    if args.remark3_scale is not None:
        certs.append(verify.certify_remark3(n, args.remark3_scale, tol, cap))
    if args.run_remark2:
        certs.append(verify.certify_remark2(n, tol, cap))
    if certs:
        return certs
    if args.kind == "real":
        return [verify.certify_theorem1(n, tol, cap)]
    if args.kind == "complex":
        return [verify.certify_theorem2(n, tol, cap)]
    if args.kind == "classical":
        return [verify.certify_classical_rs(n, tol, cap)]
    if args.kind == "neeman":
        return [verify.certify_neeman(n, clamp, tol, cap)]
    raise ParameterError(f"no certificate family for kind={args.kind}")


def cmd_verify(args: argparse.Namespace) -> int:
    certs = _select_certificates(args, _single_n(args))
    # one row per check: its to_dict fields, "name" written as "check"
    rows = [{"kind": c.kind, "n": c.n, "check": d.pop("name"), **d}
            for c in certs for d in c.to_dict()["checks"]]
    doc = {"certificates": [c.to_dict() for c in certs], "all_pass": all(c.overall for c in certs)}
    _emit(args, rows, doc, "\n\n".join(c.to_text() for c in certs) + "\n")
    failed = [row for row in rows if not row["pass"]]
    for row in failed:
        print(f"FAILED {row['kind']}: {row['check']} margin={_cell(row['margin'])}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not args.n:
        raise ParameterError("sweep needs --n with one or more dimensions")
    if not args.a_values:
        raise ParameterError("sweep needs --a with one or more scale values")
    rows = []
    for n in args.n:
        for a in args.a_values:
            if not 1.0 < a < n:
                raise ParameterError(f"sweep cell (n={n}, a={a}) invalid: need 1 < a < n")
            ncf = construct.normalized_closed_form(construct.remark3_params(n, a))
            rows.append({"n": n, "a": a, "influence": ncf.influence, "entropy": ncf.entropy,
                         "bound": ncf.entropy_lower_bound, "ratio": _ratio(ncf.entropy, ncf.influence)})
    _emit(args, rows)
    return EXIT_OK


def cmd_neeman(args: argparse.Namespace) -> int:
    report = verify.neeman_regression(args.n or [8, 12, 16, 20], args.clamp, args.max_table_n)
    rows = [{"n": n, "clamp": report.clamp, "influence": i, "entropy": h} for n, i, h in report.rows]
    doc = {
        "clamp": report.clamp,
        "rows": [{"n": n, "influence": i, "entropy": h} for n, i, h in report.rows],
        "entropy_increasing": report.entropy_increasing,
        "band": list(report.band) if report.band else None,
        "influence_in_band": report.influence_in_band,
        "overall": report.overall,
    }
    verdict = [{"entropy_strictly_increasing": report.entropy_increasing}]
    if report.band:
        verdict.append({"influence_in_band": report.influence_in_band, "band": list(report.band)})
    _emit(args, rows, doc, _kv_lines(rows + verdict))
    if not report.overall:
        flags = _kv({k: doc[k] for k in ("entropy_increasing", "influence_in_band")})
        print(f"FAILED neeman regression: {flags}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None
    for n in dims:
        if n < 0:
            raise argparse.ArgumentTypeError(f"dimension must be >= 0, got {n}")
    return dims


def _float_list(text: str) -> tuple[float, ...]:
    if text.startswith("list:"):
        text = text[len("list:"):]
    elif text.startswith("remark3:"):
        text = text[len("remark3:"):]
    try:
        return tuple(float(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad scale list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubespec",
        description="Hypercube spectral analysis: build, measure and certify "
        "the generalized Rudin-Shapiro families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    a_help = ("weights: constant:<c> | one-over-sqrt-n | remark3:<a> | "
              "list:<v1,v2,...> | file:<path>")

    def command(name, func, help, n_help="dimension n", kind=True, table=True, fmt="text"):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("--n", type=_dims, default=(), help=n_help)
        if kind:
            sp.add_argument("--kind", choices=KIND_CHOICES, default="real")
        if table:
            # with --kind, _neeman_clamp resolves the default and refuses
            # --C for every kind but neeman
            sp.add_argument("--C", type=float, default=None if kind else 2.0, dest="clamp",
                            help="clamp threshold for kind=neeman (default 2)")
            sp.add_argument("--max-table-n", type=int, default=None,
                            help=f"override the 2^n table cap (default {DEFAULT_TABLE_CAP}); "
                            "larger values acknowledge the memory cost")
        if fmt:
            sp.add_argument("--format", choices=FORMAT_CHOICES, default=fmt)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        return sp

    g = command("gen", cmd_gen, "build a family member and write its value table", fmt=None)
    g.add_argument("--a", default=None, dest="param_spec", help=a_help)

    s = command("stats", cmd_stats, "norms, influence and entropy of one function")
    s.add_argument("--a", default=None, dest="param_spec", help=a_help)
    s.add_argument("--file", default=None, dest="in_file",
                   help="read the function from a value-table file instead of building")
    s.set_defaults(kind=None)  # resolved in cmd_stats, so --file can refuse it

    v = command("verify", cmd_verify, "run certificates; exit 0 iff all pass")
    # the certificates refuse a tolerance that is not positive and finite
    v.add_argument("--tol", type=float, default=1e-9)
    v.add_argument("--remark3", type=float, default=None, dest="remark3_scale",
                   metavar="A", help="certify the sqrt(a/n) family at this scale")
    v.add_argument("--remark2", action="store_true", dest="run_remark2",
                   help="certify the zero-mean lift instead of the base family; the lift "
                        "has n + 1 variables, so it runs to one below the table cap")

    w = command("sweep", cmd_sweep, "closed-form influence/entropy grid as CSV",
                n_help="comma list of dimensions", kind=False, table=False, fmt="csv")
    w.add_argument("--a", type=_float_list, default=(), dest="a_values",
                   help="comma list of scale values (remark3:<..> and list:<..> accepted)")

    command("neeman", cmd_neeman, "clamped-sum regression table",
            n_help="comma list of dimensions (default 8,12,16,20)", kind=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except CubespecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
