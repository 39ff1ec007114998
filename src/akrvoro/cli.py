"""Command-line front end.

Subcommands: nodes, eval, residual, lemma, decompose, verify.  Output is
CSV (default) or JSON via --format; --out redirects to a file.  Exit codes:
0 success / all verdicts pass, 1 a verification verdict failed, 2 invalid
arguments or domain errors, with a structured error object on stderr in
JSON mode.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from typing import List, Optional

from ._kernels import check_degree
from .acceptance import check_limit, run_all
from .akr import _check_order, build_node_table
from .asymptotics import KINDS, _operator_value, decomposition, rate_estimates
from .catalog import lookup
from .errors import CapabilityError, DomainError, UnknownFunctionError
from .tensor import _coords, apply

DEFAULT_TOLERANCE = 1e-2


@dataclass
class RunConfig:
    command: str
    format: str = "csv"
    output_path: Optional[str] = None
    dry_run: bool = False
    n: Optional[int] = None
    n0: Optional[int] = None
    doublings: Optional[int] = None
    j: Optional[int] = None
    kind: Optional[str] = None
    fn_name: Optional[str] = None
    point: Optional[List[float]] = None
    x: Optional[float] = None
    tolerance: Optional[float] = None
    criteria: Optional[List[int]] = None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="akrvoro",
        description=(
            "Bernstein and modified-node operators on [0,1] and the unit "
            "square, with convergence verification tooling."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", dest="output_path", default=None, metavar="PATH")
        p.add_argument(
            "--dry-run",
            action="store_true",
            help="echo the parsed configuration and exit",
        )

    p = sub.add_parser("nodes", help="emit the sampling-node table for (n, j)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=2)
    common(p)

    p = sub.add_parser("eval", help="evaluate one operator value")
    p.add_argument(
        "--kind",
        choices=[
            name for name, kind in KINDS.items() if kind.value is _operator_value
        ],
        required=True,
    )
    p.add_argument("--fn", dest="fn_name", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--point", type=float, nargs="+", required=True)
    common(p)

    p = sub.add_parser(
        "residual", help="scaled residual series plus extrapolated limit"
    )
    p.add_argument(
        "--kind",
        choices=[name for name, kind in KINDS.items() if kind.uses_f],
        required=True,
    )
    p.add_argument("--fn", dest="fn_name", required=True)
    p.add_argument("--point", type=float, nargs="+", required=True)
    p.add_argument("--n0", type=int, default=64)
    p.add_argument("--doublings", type=int, default=7)
    p.add_argument("--j", type=int, default=2)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    common(p)

    p = sub.add_parser(
        "lemma", help="scaled remainder-sum series and vanishing-limit verdict"
    )
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--n0", type=int, default=64)
    p.add_argument("--doublings", type=int, default=7)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    common(p)

    p = sub.add_parser(
        "decompose", help="drift decomposition rows over a doubling schedule"
    )
    p.add_argument("--fn", dest="fn_name", required=True)
    p.add_argument("--point", type=float, nargs=2, required=True)
    p.add_argument("--n0", type=int, default=64)
    p.add_argument("--doublings", type=int, default=4)
    common(p)

    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument(
        "--criteria",
        default=None,
        metavar="LIST",
        help="comma-separated criterion numbers (default: all)",
    )
    common(p)

    return parser


def _parse_criteria(raw):
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise DomainError(
            f"--criteria must be comma-separated integers, got {raw!r}"
        ) from None


def _config_from_args(args):
    values = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)
    }
    if values.get("criteria") is not None:
        values["criteria"] = _parse_criteria(values["criteria"])
    if values.get("doublings") is not None and values["doublings"] < 0:
        raise DomainError(f"--doublings must be >= 0, got {values['doublings']}")
    tolerance = values.get("tolerance")
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise DomainError(f"--tolerance must be finite and >= 0, got {tolerance}")
    return RunConfig(**values)


# --------------------------------------------------------------------------
# Row builders
# --------------------------------------------------------------------------


def _entry_for(cfg, arity):
    entry = lookup(cfg.fn_name)
    if entry.arity != arity:
        raise DomainError(
            f"function {entry.name!r} has arity {entry.arity}, "
            f"but this command needs arity {arity}"
        )
    return entry


def _series_rows(series):
    values = series.values
    diffs = [None] + [float(b - a) for a, b in zip(values, values[1:])]
    return [
        {"n": int(n), "value": float(v), "diff": diff, "rate_estimate": rate}
        for n, v, diff, rate in zip(series.ns, values, diffs, rate_estimates(values))
    ]


def _cmd_nodes(cfg):
    table = build_node_table(cfg.n, cfg.j)
    rows = [{"k": k, "t": float(t)} for k, t in enumerate(table.nodes)]
    return rows, {}, 0


def _cmd_eval(cfg):
    kind = KINDS[cfg.kind]
    entry = _entry_for(cfg, kind.arity)
    j = kind.order or _check_order(cfg.j)
    coords = _coords(cfg.point, kind.arity)
    value = float(apply(entry.function, cfg.n, j, coords))
    return [{"n": cfg.n, "value": value}], {"value": value}, 0


def _verdict(check, summary):
    """The series rows, ``summary`` closed by the check's target and
    verdict, and the exit code: 0 on PASS, 1 on FAIL."""
    summary.update(target=check.target, verdict="PASS" if check.passed else "FAIL")
    return _series_rows(check.series), summary, 0 if check.passed else 1


def _cmd_residual(cfg):
    entry = _entry_for(cfg, KINDS[cfg.kind].arity)
    check = check_limit(
        cfg.kind,
        entry.function,
        cfg.point,
        cfg.tolerance,
        n0=cfg.n0,
        doublings=cfg.doublings,
        j=cfg.j,
    )
    summary = {
        "limit_estimate": check.result.limit_estimate,
        "rate_estimate": check.result.rate_estimate,
        "residual_tail": check.result.residual_tail,
        "monotone_tail": check.result.monotone_tail,
    }
    return _verdict(check, summary)


def _cmd_lemma(cfg):
    check = check_limit(
        "lemma-sum", None, cfg.x, cfg.tolerance, n0=cfg.n0, doublings=cfg.doublings
    )
    summary = {
        "limit_estimate": check.result.limit_estimate,
        "rate_estimate": check.result.rate_estimate,
        "min_value": float(check.series.values.min()),
    }
    return _verdict(check, summary)


def _cmd_decompose(cfg):
    entry = _entry_for(cfg, 2)
    f = entry.function
    # refuse the last degree of the schedule before computing any row
    check_degree(cfg.n0 * 2**cfg.doublings, 2)
    bound_const = (
        f.sup_bounds.taylor_constant() if f.sup_bounds is not None else None
    )
    rows = []
    for m in range(cfg.doublings + 1):
        n = cfg.n0 * 2**m
        d = decomposition(f, n, cfg.point)
        rows.append(
            {
                "n": n,
                "e_term": d.e_term,
                "f_term": d.f_term,
                "g_residual": d.g_residual,
                "total": d.total,
                "g_bound": None if bound_const is None else bound_const / (2.0 * n),
            }
        )
    return rows, {}, 0


def _cmd_verify(cfg):
    results = run_all(cfg.criteria)
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
    summary = {
        "passed": passed,
        "failed": len(results) - passed,
        "verdict": verdict,
    }
    return rows, summary, 0 if verdict == "PASS" else 1


_HANDLERS = {
    "nodes": _cmd_nodes,
    "eval": _cmd_eval,
    "residual": _cmd_residual,
    "lemma": _cmd_lemma,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
}


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


def _write_csv(stream, rows, summary):
    writer = csv.writer(stream, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row[key]) for key in header])
    for key, value in summary.items():
        stream.write(f"# {key}={_fmt_cell(value)}\n")


def _write_json(stream, command, cfg, rows, summary):
    payload = {
        "command": command,
        "config": asdict(cfg),
        "rows": rows,
        "summary": summary,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _emit(cfg, rows, summary):
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as stream:
            _render(stream, cfg, rows, summary)
    else:
        _render(sys.stdout, cfg, rows, summary)


def _render(stream, cfg, rows, summary):
    if cfg.format == "json":
        _write_json(stream, cfg.command, cfg, rows, summary)
    else:
        _write_csv(stream, rows, summary)


def _emit_error(fmt, exc):
    if fmt == "json":
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        json.dump(payload, sys.stderr)
        sys.stderr.write("\n")
    else:
        print(f"error: {exc}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.dry_run:
            if cfg.output_path:
                with open(cfg.output_path, "w", encoding="utf-8") as stream:
                    json.dump(asdict(cfg), stream, indent=2)
                    stream.write("\n")
            else:
                json.dump(asdict(cfg), sys.stdout, indent=2)
                sys.stdout.write("\n")
            return 0
        rows, summary, code = _HANDLERS[cfg.command](cfg)
        _emit(cfg, rows, summary)
        return code
    except (DomainError, UnknownFunctionError, CapabilityError) as exc:
        _emit_error(args.format, exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
