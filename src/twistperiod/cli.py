"""Command-line interface.

    twistperiod [GLOBAL OPTIONS] COMMAND ...

Commands
    invariants MODEL         b-, c-invariants, discriminant, j
    twist MODEL D            quadratic twist by square-free D
    minimal MODEL            canonical minimal model and the map to it
    utilde MODEL D           per-prime scaling factors of the minimal twist
    periods MODEL            real and imaginary periods of the curve
    verify MODEL D           check the twisted-period relation numerically
    scan FILE --twists D...  bulk utilde/verification over a curve file

MODEL is a JSON array: [a1,a2,a3,a4,a6], or the short form [A,B] for
y^2 = x^3 + A*x + B; entries may be integers or "n/d" strings.

Global options: --precision-bits P (default 128), --format json|text,
--output PATH. Periods are printed to ceil(P*log10(2)) + 1 significant digits,
and verify passes when its two sides agree to a relative 2^-P.

Exit codes: 0 success; 2 malformed input; 3 singular curve; 4 domain errors
(non-square-free d, bad precision); 5 numeric failure (uncertified cubic roots,
a factorization beyond its budget); 6 internal consistency failure; 1 unexpected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .exact import FactorizationBudgetError
from .minimality import ConsistencyError, minimal_model_of_twist, minimize
from .periods import (
    DEFAULT_PRECISION_BITS,
    PrecisionError,
    period_report,
)
from .twisting import twist
from .verification import FILTERS, iter_curve_file, scan
from .verification import verify_twist_period_relation
from .weierstrass import SingularCurveError, WeierstrassModel


class ParseError(ValueError):
    """Malformed command-line input (model JSON, twist parameter)."""


def _parse_model(text: str) -> WeierstrassModel:
    try:
        return WeierstrassModel.from_json(text)
    except SingularCurveError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(str(exc)) from exc


def _parse_d(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"twist parameter must be an integer, got {text!r}") from exc


def _render(data: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(data, indent=2)
    lines = []
    for key, value in data.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                inner = ", ".join(f"{k} = {v}" for k, v in item.items())
                lines.append(f"{key}: {inner}")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key} = {json.dumps(value)}")
        elif isinstance(value, dict):
            inner = ", ".join(f"{k} = {v}" for k, v in value.items())
            lines.append(f"{key}: {inner}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines)


def _model_dict(m: WeierstrassModel) -> list[str]:
    return [str(a) for a in m.ainvs]


def _cmd_invariants(args) -> dict:
    m = _parse_model(args.model)
    inv = m.invariants
    return {
        "curve": _model_dict(m),
        "b2": str(inv.b2),
        "b4": str(inv.b4),
        "b6": str(inv.b6),
        "b8": str(inv.b8),
        "c4": str(inv.c4),
        "c6": str(inv.c6),
        "delta": str(inv.delta),
        "j": str(inv.j),
    }


def _cmd_twist(args) -> dict:
    m = _parse_model(args.model)
    d = _parse_d(args.d)
    twisted = twist(m, d)
    return {"curve": _model_dict(m), "d": d, "twist": _model_dict(twisted)}


def _cmd_minimal(args) -> dict:
    m = _parse_model(args.model)
    result = minimize(m)
    inv = result.minimal.invariants
    return {
        "curve": _model_dict(m),
        "minimal": _model_dict(result.minimal),
        "map": result.map.to_json_dict(),
        "c4": str(inv.c4),
        "c6": str(inv.c6),
        "delta": str(inv.delta),
    }


def _cmd_utilde(args) -> dict:
    m = _parse_model(args.model)
    d = _parse_d(args.d)
    result, report = minimal_model_of_twist(m, d)
    data = {"curve": _model_dict(m), "d": d}
    data.update(report.to_json_dict())
    # minimal_model_of_twist has checked delta(twist) = delta_min * utilde^12.
    data["delta_twist"] = str(result.minimal.delta * report.utilde**12)
    data["delta_min"] = str(result.minimal.delta)
    return data


def _cmd_periods(args) -> dict:
    m = _parse_model(args.model)
    report = period_report(m, args.precision_bits)
    data = {"curve": _model_dict(m)}
    data.update(report.to_json_dict())
    return data


def _cmd_verify(args) -> dict:
    m = _parse_model(args.model)
    d = _parse_d(args.d)
    report = verify_twist_period_relation(m, d, args.precision_bits)
    return report.to_json_dict()


def _cmd_scan(args) -> Optional[dict]:
    start = time.perf_counter()
    counts = scan(
        iter_curve_file(args.file),
        args.twists,
        filter=args.filter,
        precision_bits=args.precision_bits,
        results_path=args.output,
        resume=not args.no_resume,
        stream=sys.stdout if args.output is None else None,
    )
    seconds = time.perf_counter() - start
    if args.output is None:
        return None
    return {
        "written": args.output,
        **counts,
        "seconds": round(seconds, 6),
        "pairs_per_s": round(counts["records"] / seconds, 1) if seconds else 0.0,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistperiod",
        description="Quadratic twists of elliptic curves over Q: minimal models, "
        "twist scaling factors, and AGM period computations.",
    )
    parser.add_argument(
        "--precision-bits",
        type=int,
        default=DEFAULT_PRECISION_BITS,
        help=f"precision in bits (>= 64; default {DEFAULT_PRECISION_BITS})",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="output format"
    )
    parser.add_argument(
        "--output", default=None, help="write output to this path instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, positionals, help_text in (
        ("invariants", _cmd_invariants, ("model",), "invariants of a model"),
        ("twist", _cmd_twist, ("model", "d"), "quadratic twist of a model"),
        ("minimal", _cmd_minimal, ("model",), "canonical minimal model"),
        ("utilde", _cmd_utilde, ("model", "d"), "scaling factor of the minimal twist"),
        ("periods", _cmd_periods, ("model",), "real and imaginary periods"),
        ("verify", _cmd_verify, ("model", "d"), "verify the twisted-period relation"),
    ):
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(fn=fn)

    p = sub.add_parser("scan", help="bulk scan over a JSON-lines curve file")
    p.add_argument("file")
    p.add_argument(
        "--twists", nargs="+", required=True, help="twist parameters to scan"
    )
    p.add_argument(
        "--filter",
        choices=sorted(FILTERS),
        default="odd-prime",
        help="which utilde results get full period verification",
    )
    p.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute pairs already present in the output file",
    )
    p.set_defaults(fn=_cmd_scan)

    return parser


_EXIT_CODES = (
    (ParseError, 2),
    (SingularCurveError, 3),
    (json.JSONDecodeError, 2),
    (PrecisionError, 5),
    (FactorizationBudgetError, 5),
    (ConsistencyError, 6),
    (ValueError, 4),
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            args.twists = [_parse_d(d) for d in args.twists]
        result = args.fn(args)
    except Exception as exc:
        for cls, code in _EXIT_CODES:
            if isinstance(exc, cls):
                break
        else:
            code = 1
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return code
    if result is not None:
        text = _render(result, args.format)
        if args.output is not None and args.command != "scan":
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
