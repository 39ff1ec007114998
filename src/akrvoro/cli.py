"""Command-line front end.

Subcommands: nodes, eval, residual, decompose, verify.  Output is
CSV (default) or JSON via --format; --out redirects to a file.  Exit codes:
0 success / all verdicts pass, 1 a verification verdict failed, 2 invalid
arguments (a command line the parser cannot read, a domain error, an --out
that cannot be written), with one ``error: ...`` line on stderr, or one
JSON error object in JSON mode.
"""

import argparse
import csv
import errno
import io
import json
import os
import sys
from dataclasses import asdict

from ._kernels import check_integral, check_schedule
from .acceptance import check_limit, run_all
from .akr import build_node_table
from .asymptotics import SERIES_KINDS, decomposition, rate_estimates
from .catalog import lookup
from .errors import CapabilityError, DomainError, UnknownFunctionError
from .tensor import apply

DEFAULT_TOLERANCE = 1e-2

# The keys of the JSON config, in a fixed order; a key that the subcommand
# does not take prints as null.
_CONFIG_KEYS = (
    "command", "format", "output_path", "dry_run", "n", "n0", "doublings", "j",
    "kind", "fn_name", "point", "tolerance", "criteria",
)


class UsageError(ValueError):
    """A command line that the parser cannot read."""


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage and exits on a bad command line; raising
    # instead lets main report it as it reports every other bad argument
    def error(self, message):
        raise UsageError(message)


def _integral(text, name):
    """The text of an integer flag as an int, under the library's integral
    rule: read as an int before a float, so that a large integer keeps every
    digit, then ``check_integral``, whose DomainError names the flag."""
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            value = text
    return check_integral(value, name)


# An integer flag, and a comma-separated list of them with empty items
# skipped.  argparse puts its own message in place of a ValueError from a
# flag's type, but lets an action's error through: the library's DomainError.
class _Integral(argparse.Action):
    def __call__(self, parser, namespace, text, option_string=None):
        setattr(namespace, self.dest, _integral(text, option_string))


class _Integers(argparse.Action):
    def __call__(self, parser, namespace, text, option_string=None):
        values = [_integral(v, option_string) for v in text.split(",") if v.strip()]
        setattr(namespace, self.dest, values)


# Every flag that more than one subcommand takes, with its argparse options,
# declared once; the last three every subcommand takes.
_FLAGS = {
    "--n": dict(action=_Integral, required=True),
    "--j": dict(action=_Integral, default=2),
    "--fn": dict(dest="fn_name", required=True),
    "--point": dict(type=float, nargs="+", required=True),
    "--n0": dict(action=_Integral, default=64),
    "--doublings": dict(action=_Integral, default=7),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(dest="output_path", default=None, metavar="PATH"),
    "--dry-run": dict(action="store_true", help="echo the parsed configuration and exit"),
}


def build_parser():
    parser = _Parser(
        prog="akrvoro",
        description=(
            "Bernstein and modified-node operators on [0,1] and the unit "
            "square, with convergence verification tooling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *flags):
        """A subcommand with its flags in the order given, each a name of
        _FLAGS or a (name, options) pair of its own, then the three that
        every subcommand takes."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in (*flags, "--format", "--out", "--dry-run"):
            flag, options = (flag, _FLAGS[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **options)

    command("nodes", _cmd_nodes, "emit the sampling-node table for (n, j)",
            "--n", "--j")
    command("eval", _cmd_eval, "evaluate one operator value",
            "--fn", "--n", "--j", "--point")
    command("residual", _cmd_residual, "scaled residual series plus extrapolated limit",
            ("--kind", dict(choices=SERIES_KINDS, required=True)),
            ("--fn", dict(dest="fn_name", default=None)),
            "--point", "--n0", "--doublings", "--j",
            ("--tolerance", dict(type=float, default=DEFAULT_TOLERANCE)))
    command("decompose", _cmd_decompose,
            "drift decomposition rows over a doubling schedule",
            "--fn", "--point", "--n0", ("--doublings", dict(action=_Integral, default=4)))
    command("verify", _cmd_verify, "run the acceptance criteria",
            ("--criteria", dict(action=_Integers, default=None, metavar="LIST",
                                help="comma-separated criterion numbers (default: all)")))
    return parser


def _config(args):
    return {key: getattr(args, key, None) for key in _CONFIG_KEYS}


# --------------------------------------------------------------------------
# Row builders
# --------------------------------------------------------------------------


def _series_rows(series):
    values = series.values
    diffs = [None] + [float(b - a) for a, b in zip(values, values[1:])]
    return [
        {"n": int(n), "value": float(v), "diff": diff, "rate_estimate": rate}
        for n, v, diff, rate in zip(series.ns, values, diffs, rate_estimates(values))
    ]


def _cmd_nodes(args):
    nodes = build_node_table(args.n, args.j)
    rows = [{"k": k, "t": float(t)} for k, t in enumerate(nodes)]
    return rows, {}, 0


def _cmd_eval(args):
    value = apply(lookup(args.fn_name).function, args.n, args.j, args.point)
    return [{"n": args.n, "value": value}], {"value": value}, 0


def _cmd_residual(args):
    """The series rows, the summary and the exit code, 0 on PASS and 1 on
    FAIL.  Without --fn, f is None, which only a series that does not
    depend on f takes."""
    f = None if args.fn_name is None else lookup(args.fn_name).function
    check = check_limit(
        args.kind,
        f,
        args.point,
        args.tolerance,
        n0=args.n0,
        doublings=args.doublings,
        j=args.j,
    )
    summary = {
        "limit_estimate": check.result.limit_estimate,
        "rate_estimate": check.result.rate_estimate,
        "residual_tail": check.result.residual_tail,
        "monotone_tail": check.result.monotone_tail,
        "target": check.target,
        "verdict": "PASS" if check.passed else "FAIL",
    }
    return _series_rows(check.series), summary, 0 if check.passed else 1


def _cmd_decompose(args):
    f = lookup(args.fn_name).function
    # the whole schedule is refused before any row is computed
    ns = check_schedule(args.n0, args.doublings)
    rows = [{"n": n, **asdict(decomposition(f, n, args.point))} for n in ns]
    return rows, {}, 0


def _cmd_verify(args):
    results = run_all(args.criteria)
    rows = [
        {
            "criterion": r.number,
            "name": r.name,
            "status": r.status,
            "elapsed_s": r.elapsed,
            "runtime_limit_s": r.runtime_limit,
            "detail": r.detail,
        }
        for r in results
    ]
    passed = sum(r.passed for r in results)
    verdict = "PASS" if passed == len(results) else "FAIL"
    summary = {"passed": passed, "failed": len(results) - passed, "verdict": verdict}
    return rows, summary, 0 if verdict == "PASS" else 1


# --------------------------------------------------------------------------
# Output rendering
# --------------------------------------------------------------------------


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _render(args, rows, summary):
    """The command's rows and summary as text in the format args ask for."""
    if args.format == "json":
        payload = {"command": args.command, "config": _config(args)}
        return _json_text({**payload, "rows": rows, "summary": summary})
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row[key]) for key in header])
    for key, value in summary.items():
        stream.write(f"# {key}={_fmt_cell(value)}\n")
    return stream.getvalue()


def _check_out(path):
    """Raise, without opening or creating anything, the OSError that
    ``_emit`` would meet opening ``path``: that of a directory given as the
    file, or of a parent directory that does not exist.  A command whose
    --out cannot be written is refused before it computes."""
    if os.path.isdir(path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(path, text):
    """Write text to the file at path, or to stdout when there is none: the
    one place --out is opened.  ``main`` reports an OSError from here, such
    as a file it may not write, with exit 2."""
    if path:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
    else:
        sys.stdout.write(text)


def _emit_error(fmt, exc):
    if fmt == "json":
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # read before parsing, so that a command line the parser refuses gets
    # its error in the format it asks for too
    asked = "--format=json" in argv or ("--format", "json") in zip(argv, argv[1:])
    fmt = "json" if asked else "csv"
    try:
        args = build_parser().parse_args(argv)
        fmt = args.format
        if args.output_path:
            _check_out(args.output_path)
        if args.dry_run:
            text, code = _json_text(_config(args)), 0
        else:
            rows, summary, code = args.handler(args)
            text = _render(args, rows, summary)
        _emit(args.output_path, text)
        return code
    except (UsageError, DomainError, UnknownFunctionError, CapabilityError,
            OSError) as exc:
        _emit_error(fmt, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
