"""Command-line front end: number tables, polynomial printing, and
identity verification with machine-readable reports.

Exit codes: 0 all verified / output produced, 1 at least one identity
failed, 2 usage or spec error, or an output that cannot be opened or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from contextlib import nullcontext
from fractions import Fraction

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


def _spec_label(spec: IdentitySpec) -> str:
    where = f"{spec.identity}" + (f" m={spec.m}" if spec.m is not None else "")
    where += f" n={spec.n}"
    if spec.i is not None:
        where += f" i={spec.i}"
    return where


def _report_line(report: IdentityReport) -> str:
    spec = report.spec
    status = "PASS" if report.holds else "FAIL"
    return (
        f"{status} {_spec_label(spec)} mode={spec.mode} "
        f"lhs_terms={report.lhs_terms} rhs_terms={report.rhs_terms} "
        f"residual_terms={report.residual_terms} elapsed_ms={report.elapsed_ms:.1f}"
    )


def _report_row(report: IdentityReport) -> dict:
    """One report in the flat JSON/CSV schema; `params` maps each drawn
    name to its 'p/q' value in numeric mode, else is null."""
    spec = report.spec
    params = report.params_used
    return {
        "identity": spec.identity,
        "m": spec.m,
        "n": spec.n,
        "mode": spec.mode,
        "holds": report.holds,
        "lhs_terms": report.lhs_terms,
        "rhs_terms": report.rhs_terms,
        "residual_terms": report.residual_terms,
        "elapsed_ms": report.elapsed_ms,
        "params": {k: str(v) for k, v in params.items()} if params else None,
    }


def _render(rows: dict | list[dict], fmt: str, text: str) -> str:
    """`rows` (one row or a list of them) as JSON, or as CSV with a header
    from their keys and nested objects as JSON cells; `text` as is."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        rows = [rows] if isinstance(rows, dict) else rows
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v) if isinstance(v, dict) else v for k, v in row.items()})
        return buf.getvalue()
    return text


# -- subcommands -----------------------------------------------------------
# Each returns (rows, text, exit code); `main` renders and writes them.


def cmd_numbers(args: argparse.Namespace) -> tuple[list[dict], str, int]:
    kind = args.kind
    upto = args.upto
    start = 1 if kind == "btilde" else 0
    if upto < start:
        raise ValueError(f"--upto must be >= {start} for {kind}")
    fetch = {"bernoulli": bernoulli_number, "euler": euler_number, "btilde": b_tilde}[kind]
    rows = [{"k": k, "value": str(fetch(k))} for k in range(start, upto + 1)]
    return rows, "".join(f"{row['k']}\t{row['value']}\n" for row in rows), EXIT_OK


def cmd_poly(args: argparse.Namespace) -> tuple[dict, str, int]:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    if not args.var.isidentifier():
        raise ValueError(f"--var must be an identifier, got {args.var!r}")
    build = {"bernoulli": bernoulli_poly, "euler": euler_poly}[args.family]
    poly = str(build(args.n, args.var))
    return {"family": args.family, "n": args.n, "poly": poly}, poly + "\n", EXIT_OK


def _parse_params(pairs: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects name=p/q, got {pair!r}")
        name, _, value = pair.partition("=")
        if name.strip() in params:
            raise ValueError(f"--param {name.strip()!r} is given twice")
        try:
            params[name.strip()] = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad fraction in --param {pair!r}: {exc}") from exc
    return params


def cmd_verify(args: argparse.Namespace) -> tuple[dict, str, int]:
    spec = IdentitySpec(
        identity=args.identity,
        n=args.n,
        m=args.m,
        i=args.i,
        mode=args.mode,
        params=_parse_params(args.param) or None,
        seed=args.seed,
    )
    report = verify(spec)
    code = EXIT_OK if report.holds else EXIT_FAILED
    return _report_row(report), _report_line(report) + "\n", code


def _verify_or_fail(spec: IdentitySpec) -> IdentityReport:
    """verify(spec), or a failed report with no terms when its build raises;
    the error goes to stderr, so one broken spec does not end the matrix."""
    start = time.perf_counter()
    try:
        return verify(spec)
    except Exception as exc:
        print(f"error: {_spec_label(spec)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return IdentityReport(spec, 0, 0, elapsed_ms)


def cmd_verify_all(args: argparse.Namespace) -> tuple[list[dict], str, int]:
    if args.max_m < 1 or args.max_n < 1:
        raise ValueError("--max-m and --max-n must be >= 1")
    reports = [_verify_or_fail(spec) for spec in enumerate_specs(args.max_m, args.max_n, args.seed)]
    failed = sum(1 for r in reports if not r.holds)
    text = "".join(_report_line(r) + "\n" for r in reports)
    text += f"total={len(reports)} failed={failed}\n"
    return [_report_row(r) for r in reports], text, EXIT_FAILED if failed else EXIT_OK


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
    """Open the destination (`--out` like a shell `> PATH`, else stdout),
    run one subcommand and write its rendered rows once. An OSError from
    opening or writing the destination and a ValueError from the subcommand
    exit EXIT_USAGE with one `error:` line; anything else propagates."""
    args = build_parser().parse_args(argv)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            try:
                rows, text, code = args.func(args)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            out.write(_render(rows, args.format, text))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
