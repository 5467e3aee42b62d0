"""Command-line front end.

Subcommands: local, analyze, defect, compare, genus, hasse, survey.
All output is JSON with sorted keys and no timestamps, so identical
inputs produce byte-identical output.

Exit codes for ``local``: 0 = NonEmpty, 1 = Empty, 2 = Undetermined or
OutOfScope; malformed input exits with code 3 for every subcommand.
``analyze --batch`` writes one line per row, an error object for a row
that failed, and exits with code 3 if any row failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from fractions import Fraction
from functools import cache

from .corpus import resolve
from .globalreport import (
    GlobalReport,
    analyze,
    hasse_cm,
    semistable_survey,
)
from .localsolver import (
    EMPTY,
    NON_EMPTY,
    FinitePrime,
    HypothesisError,
    RealPlace,
    compare_symplectic,
    genus,
    solve_local,
)
from .semistability import defect

USAGE_ERROR = 3


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (RealPlace, FinitePrime)):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _emit(obj, out=None):
    (out or sys.stdout).write(
        json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))
        + "\n")


def _place(spec: str):
    if spec.lower() in ("real", "r", "oo", "inf"):
        return RealPlace()
    return FinitePrime(int(spec))


def _report_dict(r: GlobalReport) -> dict:
    return {
        "curve": list(r.curve),
        "p": r.p,
        "places_checked": [
            {"place": str(pl), "verdict": _jsonable(v)}
            for pl, v in r.places_checked],
        "overall": {"kind": r.overall.kind,
                    "detail": _jsonable(r.overall.detail)},
        "scan_note": r.scan_note,
    }


def _cmd_local(args) -> int:
    verdict = solve_local(resolve(args.curve), args.p, _place(args.ell))
    _emit(verdict)
    if verdict.status == NON_EMPTY:
        return 0
    if verdict.status == EMPTY:
        return 1
    return 2


def _analyze_one(curve_spec: str, p: int, scan_cap, assume) -> dict:
    report = analyze(
        resolve(curve_spec), p, scan_cap=scan_cap,
        assume_frey_mazur="fm" in assume,
        assume_serre_uniformity="serre" in assume)
    return _report_dict(report)


def _batch_row(i: int, row: list, scan_cap, assume) -> dict:
    """The report of one batch row, or an error object in its place."""
    spec = row[0].strip()
    p = row[1].strip() if len(row) > 1 else None
    try:
        p = int(p)
        return _analyze_one(spec, p, scan_cap, assume)
    except Exception as exc:
        traceback.print_exc()
        return {"row": i, "curve": spec, "p": p,
                "error": f"{type(exc).__name__}: {exc}"}


def _cmd_analyze(args) -> int:
    assume = args.assume or []
    if args.batch:
        import csv
        from concurrent.futures import ProcessPoolExecutor

        with open(args.batch) as fh:
            rows = [r for r in csv.reader(fh)
                    if r and not r[0].startswith("#")]
        failed = False
        with ProcessPoolExecutor() as pool:
            results = pool.map(
                _batch_row, range(len(rows)), rows,
                [args.scan_cap] * len(rows), [assume] * len(rows))
            for res in results:
                failed = failed or "error" in res
                _emit(res)
        return USAGE_ERROR if failed else 0
    if not args.curve or args.p is None:
        raise ValueError("analyze requires --curve and --p (or --batch)")
    _emit(_analyze_one(args.curve, args.p, args.scan_cap, assume))
    return 0


def _cmd_defect(args) -> int:
    _emit(defect(resolve(args.curve), args.ell))
    return 0


def _cmd_compare(args) -> int:
    res = compare_symplectic(
        resolve(args.a), resolve(args.b), args.ell, args.p,
        same_field_assumed=args.same_field)
    _emit(res)
    return 0


def _cmd_genus(args) -> int:
    _emit(genus(args.p))
    return 0


def _cmd_hasse(args) -> int:
    verdict = hasse_cm(resolve(args.curve), args.p,
                       assume_serre_uniformity="serre" in (args.assume or []))
    _emit({"curve": args.curve, "p": args.p, "verdict": verdict})
    return 0


def _cmd_survey(args) -> int:
    total, semi, frac = semistable_survey(args.height)
    _emit({"height": args.height, "total": total, "semistable": semi,
           "fraction": str(frac)})
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    a parse, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="Local solubility of twisted full-level modular curves")
    sub = ap.add_subparsers(dest="command", required=True)

    def curve_arg(p):
        p.add_argument("--curve", help="corpus label or [a1,a2,a3,a4,a6]")

    p = sub.add_parser("local", help="verdict at a single place")
    curve_arg(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--ell", required=True, help="prime or 'real'")
    p.set_defaults(fn=_cmd_local)

    p = sub.add_parser("analyze", help="full per-place report")
    curve_arg(p)
    p.add_argument("--p", type=int)
    p.add_argument("--scan-cap", type=int, default=1000)
    p.add_argument("--assume", action="append", choices=["fm", "serre"])
    p.add_argument("--batch", help="CSV file with curve-spec,p per line")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("defect", help="semistability defect profile")
    curve_arg(p)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(fn=_cmd_defect)

    p = sub.add_parser("compare", help="symplectic type of a torsion "
                                       "isomorphism between two curves")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--same-field", action="store_true",
                   help="assert both curves gain good reduction over the "
                        "same quartic field (required for ell=2, e=4)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("genus", help="genus and large-prime bound")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_genus)

    p = sub.add_parser("hasse", help="CM counterexample classification")
    curve_arg(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--assume", action="append", choices=["serre"])
    p.set_defaults(fn=_cmd_hasse)

    p = sub.add_parser("survey", help="semistability survey up to a height")
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(fn=_cmd_survey)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (ValueError, KeyError, HypothesisError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
