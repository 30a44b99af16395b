"""Command-line front end: number tables, polynomial printing, and
identity verification with machine-readable reports.

Exit codes: 0 all verified / output produced, 1 at least one identity
failed, 2 usage or spec error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from eulersym.exact import format_fraction, parse_fraction
from eulersym.identities import (
    IDENTITIES,
    IdentityReport,
    IdentitySpec,
    enumerate_specs,
    verify,
)
from eulersym.polyfam import bernoulli_poly, euler_poly
from eulersym.sequences import b_tilde, bernoulli_number, euler_number

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

REPORT_FIELDS = (
    "identity",
    "m",
    "n",
    "mode",
    "holds",
    "lhs_terms",
    "rhs_terms",
    "residual_terms",
    "elapsed_ms",
    "params",
)


class UsageError(Exception):
    pass


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_line(report: IdentityReport) -> str:
    spec = report.spec
    status = "PASS" if report.holds else "FAIL"
    where = f"{spec.identity}" + (f" m={spec.m}" if spec.m is not None else "")
    where += f" n={spec.n}"
    if spec.i is not None:
        where += f" i={spec.i}"
    return (
        f"{status} {where} mode={spec.mode} "
        f"lhs_terms={report.lhs_terms} rhs_terms={report.rhs_terms} "
        f"residual_terms={report.residual_terms} elapsed_ms={report.elapsed_ms:.1f}"
    )


def _reports_csv(reports: list[IdentityReport]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=REPORT_FIELDS)
    writer.writeheader()
    for report in reports:
        row = report.to_json_dict()
        row["params"] = json.dumps(row["params"]) if row["params"] else ""
        writer.writerow(row)
    return buf.getvalue()


def _format_reports(reports: list[IdentityReport], fmt: str, single: bool) -> str:
    if fmt == "json":
        payload = reports[0].to_json_dict() if single else [r.to_json_dict() for r in reports]
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        return _reports_csv(reports)
    lines = [_report_line(r) for r in reports]
    if not single:
        failed = sum(1 for r in reports if not r.holds)
        lines.append(f"total={len(reports)} failed={failed}")
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------


def cmd_numbers(args: argparse.Namespace) -> int:
    kind = args.kind
    upto = args.upto
    start = 1 if kind == "btilde" else 0
    if upto < start:
        raise UsageError(f"--upto must be >= {start} for {kind}")
    fetch = {"bernoulli": bernoulli_number, "euler": euler_number, "btilde": b_tilde}[kind]
    rows = [(k, fetch(k)) for k in range(start, upto + 1)]
    if args.format == "json":
        text = json.dumps(
            [{"k": k, "value": format_fraction(v)} for k, v in rows], indent=2
        ) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "value"])
        for k, v in rows:
            writer.writerow([k, format_fraction(v)])
        text = buf.getvalue()
    else:
        text = "\n".join(f"{k}\t{format_fraction(v)}" for k, v in rows) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def cmd_poly(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    build = {"bernoulli": bernoulli_poly, "euler": euler_poly}[args.family]
    poly = build(args.n, args.var)
    if args.format == "json":
        text = json.dumps(
            {"family": args.family, "n": args.n, "poly": str(poly)}, indent=2
        ) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["family", "n", "poly"])
        writer.writerow([args.family, args.n, str(poly)])
        text = buf.getvalue()
    else:
        text = str(poly) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def _parse_params(pairs: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--param expects name=p/q, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            params[name.strip()] = parse_fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad fraction in --param {pair!r}: {exc}") from exc
    return params


def cmd_verify(args: argparse.Namespace) -> int:
    spec = IdentitySpec(
        identity=args.identity,
        n=args.n,
        m=args.m,
        i=args.i,
        mode=args.mode,
        params=_parse_params(args.param) or None,
        seed=args.seed,
    )
    try:
        report = verify(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _write_output(_format_reports([report], args.format, single=True), args.out)
    return EXIT_OK if report.holds else EXIT_FAILED


def cmd_verify_all(args: argparse.Namespace) -> int:
    if args.max_m < 1 or args.max_n < 1:
        raise UsageError("--max-m and --max-n must be >= 1")
    reports = [verify(spec) for spec in enumerate_specs(args.max_m, args.max_n, args.seed)]
    _write_output(_format_reports(reports, args.format, single=False), args.out)
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAILED


# -- parser ----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--out", metavar="PATH", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulersym",
        description="Exact verification of symmetric Euler/Bernoulli polynomial identities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_num = sub.add_parser("numbers", help="print exact number sequences")
    p_num.add_argument("kind", choices=["bernoulli", "euler", "btilde"])
    p_num.add_argument("--upto", type=int, required=True, help="largest index")
    _add_common(p_num)
    p_num.set_defaults(func=cmd_numbers)

    p_poly = sub.add_parser("poly", help="print a polynomial family member")
    p_poly.add_argument("family", choices=["bernoulli", "euler"])
    p_poly.add_argument("--n", type=int, required=True, help="degree")
    p_poly.add_argument("--var", default="x", help="variable name (default x)")
    _add_common(p_poly)
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="verify one identity instance")
    p_verify.add_argument("--identity", required=True, choices=list(IDENTITIES))
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--i", type=int, default=None, help="index for lemma22_eq2")
    p_verify.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=P/Q",
        help="fix a variable to an exact rational in numeric mode (repeatable)",
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_all = sub.add_parser("verify-all", help="run the full identity matrix")
    p_all.add_argument("--max-m", type=int, required=True)
    p_all.add_argument("--max-n", type=int, required=True)
    p_all.add_argument("--seed", type=int, default=0)
    _add_common(p_all)
    p_all.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
