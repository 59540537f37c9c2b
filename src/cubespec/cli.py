"""Command-line front end.

Subcommands: gen (build a family member, write its value table),
stats (norms/influence/entropy of a built or loaded function),
verify (run certificates), sweep (closed-form entropy/influence grid),
neeman (clamped-sum regression table).

Exit codes: 0 all good, 1 a certificate or regression check failed,
2 configuration or resource-cap error, 3 I/O failure.  All numeric
output uses shortest round-trip float formatting, so a fixed command
line (plus seed, where one applies) produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import construct, fileio, verify
from .construct import ParamSeq
from .errors import CubespecError, FormatError, ParameterError
from .spectrum import HypercubeFunction, stats

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

KIND_CHOICES = ("real", "complex", "classical", "sum", "neeman")
FORMAT_CHOICES = ("csv", "json", "text")

#: kinds whose weight sequence is fixed by the family itself
FIXED_WEIGHT_KINDS = ("classical", "sum", "neeman")


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: tuple[int, ...] = ()
    param_spec: str | None = None
    kind: str = "real"
    clamp: float = 2.0
    tol: float = 1e-9
    max_table_n: int | None = None
    seed: int = 12345
    fmt: str = "text"
    out: str | None = None
    in_file: str | None = None
    remark3_scale: float | None = None
    run_remark2: bool = False
    a_values: tuple[float, ...] = field(default=())  # sweep grid

    def __post_init__(self):
        if self.kind not in KIND_CHOICES:
            raise ParameterError(f"unknown kind {self.kind!r}")
        if self.fmt not in FORMAT_CHOICES:
            raise ParameterError(f"unknown format {self.fmt!r}")
        if not self.tol > 0.0:
            raise ParameterError(f"tolerance must be positive, got {self.tol}")
        for n in self.n:
            if n < 0:
                raise ParameterError(f"dimension must be >= 0, got {n}")


def _single_n(config: RunConfig) -> int:
    if len(config.n) != 1:
        raise ParameterError(
            f"{config.command} needs exactly one --n value, got {list(config.n)}"
        )
    return config.n[0]


def _parse_float(token: str, context: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParameterError(f"bad {context} value {token!r}") from None


def parse_param_spec(spec: str, n: int) -> ParamSeq:
    """Resolve an --a specifier to a weight sequence of length n."""
    if spec == "one-over-sqrt-n":
        return construct.theorem_params(n) if n else ParamSeq(np.zeros(0))
    if spec.startswith("constant:"):
        return ParamSeq(np.full(n, _parse_float(spec[len("constant:"):], "--a constant")))
    if spec.startswith("remark3:"):
        return construct.remark3_params(n, _parse_float(spec[len("remark3:"):], "--a remark3"))
    if spec.startswith("list:"):
        vals = [_parse_float(t, "--a list") for t in spec[len("list:"):].split(",") if t]
        if len(vals) != n:
            raise ParameterError(f"list has {len(vals)} weights but n={n}")
        return ParamSeq(np.asarray(vals))
    if spec.startswith("file:"):
        vals = _read_weight_file(spec[len("file:"):])
        if len(vals) != n:
            raise ParameterError(f"weight file has {len(vals)} entries but n={n}")
        return ParamSeq(np.asarray(vals))
    raise ParameterError(
        f"bad --a specifier {spec!r}: expected constant:<c>, one-over-sqrt-n, "
        f"remark3:<a>, list:<v1,v2,...> or file:<path>"
    )


def _read_weight_file(path: str) -> list[float]:
    vals = []
    with open(path, encoding="ascii") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals.append(float(line))
            except ValueError:
                raise FormatError(f"unparseable weight on line {i}", line=i) from None
    return vals


def _resolve_params(config: RunConfig, n: int) -> ParamSeq:
    if config.kind in FIXED_WEIGHT_KINDS:
        if config.param_spec is not None:
            raise ParameterError(
                f"--a has no effect for kind={config.kind}; weights are fixed"
            )
        return ParamSeq(np.ones(n))  # only the classical path uses this
    spec = config.param_spec or "one-over-sqrt-n"
    return parse_param_spec(spec, n)


def _fnum(x) -> str:
    return repr(float(x))


def _ratio(entropy: float, influence: float) -> float:
    if influence > 0.0:
        return entropy / influence
    return math.inf if entropy > 0.0 else math.nan


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fnum(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _build_function(config: RunConfig, n: int) -> tuple[HypercubeFunction, dict]:
    """Build the requested family member plus its summary quantities."""
    cap = config.max_table_n
    kind = config.kind
    if kind in ("real", "complex", "classical"):
        params = _resolve_params(config, n)
        ncf = construct.normalized_closed_form(params)
        f = (
            construct.unimodular_complex(params, cap)
            if kind == "complex"
            else construct.normalized_real(params, cap)
        )
        summary = {"l2": 1.0, "influence": ncf.influence, "entropy": ncf.entropy}
    elif kind == "sum":
        _resolve_params(config, n)  # rejects a stray --a
        f = construct.normalized_sum(n, cap)
        summary = {"l2": 1.0, "influence": 1.0, "entropy": math.log2(n)}
    else:  # neeman
        _resolve_params(config, n)
        f = construct.neeman_function(n, config.clamp, normalize=True, max_table_n=cap)
        st = stats(f, cap)
        summary = {"l2": st.l2_norm, "influence": st.influence, "entropy": st.entropy}
    return f, summary


def cmd_gen(config: RunConfig) -> int:
    n = _single_n(config)
    f, summary = _build_function(config, n)
    file_kind = "complex" if config.kind == "complex" else "real"
    parts = " ".join(f"{k}={_fnum(v)}" for k, v in summary.items())
    summary_line = f"summary n={n} kind={config.kind} {parts}"
    if config.out is None:
        fileio.write_function(sys.stdout, f, file_kind)
        print(summary_line, file=sys.stderr)
    else:
        fileio.write_function(config.out, f, file_kind)
        print(summary_line)
    return EXIT_OK


def cmd_stats(config: RunConfig) -> int:
    if config.in_file is not None:
        f = fileio.read_function(config.in_file)
        n = f.n
        kind = "real" if f.is_real else "complex"
    else:
        n = _single_n(config)
        f, _ = _build_function(config, n)
        kind = config.kind
    st = stats(f, config.max_table_n)
    bound = verify._entropy_bound(n)
    record = {
        "n": n,
        "kind": kind,
        "l2": st.l2_norm,
        "linf": st.linf_norm,
        "influence": st.influence,
        "entropy": st.entropy,
        "bound": bound,
        "ratio": _ratio(st.entropy, st.influence),
    }
    if config.fmt == "csv":
        text = _csv_text(list(record), [list(record.values())])
    elif config.fmt == "json":
        text = _json_text(record)
    else:
        text = "".join(f"{k}: {v}\n" for k, v in record.items())
    _emit(text, config.out)
    return EXIT_OK


def _select_certificates(config: RunConfig, n: int) -> list:
    cap = config.max_table_n
    certs = []
    if config.remark3_scale is not None:
        certs.append(verify.certify_remark3(n, config.remark3_scale, config.tol, cap))
    if config.run_remark2:
        certs.append(verify.certify_remark2(n, config.tol, cap))
    if certs:
        return certs
    if config.kind == "real":
        return [verify.certify_theorem1(n, config.tol, cap)]
    if config.kind == "complex":
        return [verify.certify_theorem2(n, config.tol, cap)]
    if config.kind == "classical":
        return [verify.certify_classical_rs(n, config.tol, cap)]
    if config.kind == "neeman":
        return [verify.certify_neeman(n, config.clamp, config.tol, cap)]
    raise ParameterError(f"no certificate family for kind={config.kind}")


def cmd_verify(config: RunConfig) -> int:
    n = _single_n(config)
    if config.param_spec is not None:
        raise ParameterError(
            "--a has no effect for verify; certificates fix their own weights "
            "(1/sqrt(n), sqrt(a/n) with --remark3, or 1 for kind=classical)"
        )
    certs = _select_certificates(config, n)
    if config.fmt == "json":
        text = _json_text(
            {"certificates": [c.to_dict() for c in certs],
             "all_pass": all(c.overall for c in certs)}
        )
    elif config.fmt == "csv":
        rows = [
            [c.kind, c.n, ch.name, ch.lhs, ch.relation, ch.rhs, ch.margin, str(ch.passed).lower()]
            for c in certs
            for ch in c.checks
        ]
        text = _csv_text(["kind", "n", "check", "lhs", "relation", "rhs", "margin", "pass"], rows)
    else:
        text = "\n\n".join(c.to_text() for c in certs) + "\n"
    _emit(text, config.out)
    failed = [
        (c.kind, ch.name, ch.margin)
        for c in certs
        for ch in c.checks
        if not ch.passed
    ]
    for kind, name, margin in failed:
        print(f"FAILED {kind}: {name} margin={_fnum(margin)}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _parse_sweep_grid(config: RunConfig) -> tuple[list[int], list[float]]:
    if not config.n:
        raise ParameterError("sweep needs --n with one or more dimensions")
    if not config.a_values:
        raise ParameterError("sweep needs --a with one or more scale values")
    ns = list(config.n)
    scales = list(config.a_values)
    for n in ns:
        for a in scales:
            if not 1.0 < a < n:
                raise ParameterError(
                    f"sweep cell (n={n}, a={a}) invalid: need 1 < a < n"
                )
    return ns, scales


def cmd_sweep(config: RunConfig) -> int:
    ns, scales = _parse_sweep_grid(config)
    rows = []
    for n in ns:
        for a in scales:
            ncf = construct.normalized_closed_form(construct.remark3_params(n, a))
            rows.append(
                {
                    "n": n,
                    "a": a,
                    "influence": ncf.influence,
                    "entropy": ncf.entropy,
                    "bound": ncf.entropy_lower_bound,
                    "ratio": _ratio(ncf.entropy, ncf.influence),
                }
            )
    if config.fmt == "json":
        text = _json_text({"rows": rows})
    elif config.fmt == "text":
        text = "".join(
            "n={n} a={a} influence={influence} entropy={entropy} "
            "bound={bound} ratio={ratio}\n".format(**r)
            for r in rows
        )
    else:
        text = _csv_text(
            ["n", "a", "influence", "entropy", "bound", "ratio"],
            [[r["n"], r["a"], r["influence"], r["entropy"], r["bound"], r["ratio"]] for r in rows],
        )
    _emit(text, config.out)
    return EXIT_OK


def cmd_neeman(config: RunConfig) -> int:
    ns = list(config.n) if config.n else [8, 12, 16, 20]
    report = verify.neeman_regression(ns, config.clamp, config.max_table_n)
    if config.fmt == "json":
        text = _json_text(
            {
                "clamp": report.clamp,
                "rows": [
                    {"n": n, "influence": i, "entropy": h} for n, i, h in report.rows
                ],
                "entropy_increasing": report.entropy_increasing,
                "band": list(report.band) if report.band else None,
                "influence_in_band": report.influence_in_band,
                "overall": report.overall,
            }
        )
    elif config.fmt == "csv":
        text = _csv_text(
            ["n", "clamp", "influence", "entropy"],
            [[n, report.clamp, i, h] for n, i, h in report.rows],
        )
    else:
        lines = [
            f"n={n} clamp={_fnum(report.clamp)} influence={_fnum(i)} entropy={_fnum(h)}"
            for n, i, h in report.rows
        ]
        lines.append(f"entropy_strictly_increasing={str(report.entropy_increasing).lower()}")
        if report.band:
            lines.append(
                f"influence_in_band={str(report.influence_in_band).lower()} "
                f"band=[{_fnum(report.band[0])}, {_fnum(report.band[1])}]"
            )
        text = "\n".join(lines) + "\n"
    _emit(text, config.out)
    if not report.overall:
        print(
            f"FAILED neeman regression: entropy_increasing={report.entropy_increasing} "
            f"influence_in_band={report.influence_in_band}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None


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

    def common(sp, n_help="dimension n"):
        sp.add_argument("--n", type=_int_list, default=(), help=n_help)
        sp.add_argument("--kind", choices=KIND_CHOICES, default="real")
        sp.add_argument("--C", type=float, default=2.0, dest="clamp",
                        help="clamp threshold for kind=neeman (default 2)")
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--max-table-n", type=int, default=None,
                        help="override the 2^n table cap (default 26); "
                        "larger values acknowledge the memory cost")
        sp.add_argument("--seed", type=int, default=12345)
        sp.add_argument("--format", choices=FORMAT_CHOICES, default=None, dest="fmt")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    a_help = ("weights: constant:<c> | one-over-sqrt-n | remark3:<a> | "
              "list:<v1,v2,...> | file:<path>")

    g = sub.add_parser("gen", help="build a family member and write its value table")
    common(g)
    g.add_argument("--a", default=None, dest="param_spec", help=a_help)

    s = sub.add_parser("stats", help="norms, influence and entropy of one function")
    common(s)
    s.add_argument("--a", default=None, dest="param_spec", help=a_help)
    s.add_argument("--file", default=None, dest="in_file",
                   help="read the function from a value-table file instead of building")

    v = sub.add_parser("verify", help="run certificates; exit 0 iff all pass")
    common(v)
    v.add_argument("--a", default=None, dest="param_spec", help=a_help)
    v.add_argument("--remark3", type=float, default=None, dest="remark3_scale",
                   metavar="A", help="certify the sqrt(a/n) family at this scale")
    v.add_argument("--remark2", action="store_true", dest="run_remark2",
                   help="certify the zero-mean lift instead of the base family")

    w = sub.add_parser("sweep", help="closed-form influence/entropy grid as CSV")
    common(w, n_help="comma list of dimensions")
    w.add_argument("--a", type=_float_list, default=(), dest="a_values",
                   help="comma list of scale values (remark3:<..> and list:<..> accepted)")

    m = sub.add_parser("neeman", help="clamped-sum regression table")
    common(m, n_help="comma list of dimensions (default 8,12,16,20)")
    return parser


_DEFAULT_FMT = {"sweep": "csv"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fmt = args.fmt or _DEFAULT_FMT.get(args.command, "text")
    return RunConfig(
        command=args.command,
        n=args.n,
        param_spec=getattr(args, "param_spec", None),
        kind=args.kind,
        clamp=args.clamp,
        tol=args.tol,
        max_table_n=args.max_table_n,
        seed=args.seed,
        fmt=fmt,
        out=args.out,
        in_file=getattr(args, "in_file", None),
        remark3_scale=getattr(args, "remark3_scale", None),
        run_remark2=getattr(args, "run_remark2", False),
        a_values=getattr(args, "a_values", ()),
    )


_COMMANDS = {
    "gen": cmd_gen,
    "stats": cmd_stats,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "neeman": cmd_neeman,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on usage errors, 0 on --help
        return int(e.code) if e.code else EXIT_OK
    try:
        config = config_from_args(args)
        return _COMMANDS[config.command](config)
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
