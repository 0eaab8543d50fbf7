"""Command-line interface.

Subcommands: count, enumerate, apply, verify, table.  Exit codes: 0 on
success, 1 on domain errors (bad n, bad permutation text, budget), 2 when a
verification suite fails.  JSON output is deterministic: keys are sorted
and list order is the canonical enumeration order.  The default output
format may be set with the MULTICOMPLEX_FORMAT environment variable.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from typing import Sequence

from . import counting
from .automorphism import (
    Automorphism,
    BudgetExceeded,
    enumerate_automorphisms,
    enumerate_r_involutions,
)
from .gf2_preserving import enumerate_preserving_involutions
from .mc_core import MulticomplexNumber, unit_name
from .oracle import (
    brute_count_r_involutions,
    verify_homomorphism,
    verify_special_sets,
)
from .special_elements import SpecialSetKind, enumerate_special

__all__ = ["run", "main"]

FORMAT_ENV = "MULTICOMPLEX_FORMAT"
FORMATS = ("json", "csv", "markdown")

# default caps on n, overridable with --budget
COUNT_MAX_N = 16
ENUMERATE_MAX_N = 4
PRESERVING_MAX_N = 6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems without owning the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    ap = _Parser(prog="multicomplex", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("count", help="closed-form counts")
    c.add_argument(
        "what",
        choices=[
            "automorphisms",
            "involutions",
            "r-involutions",
            "preserving",
            "signed-r-involutions",
        ],
    )
    c.add_argument("--n", type=int, help="ring order")
    c.add_argument("--r", type=int, help="composition power for r-involutions")
    c.add_argument("--N-symbols", dest="n_symbols", type=int,
                   help="symbol count for signed-r-involutions")
    c.add_argument("--budget", type=int, help=f"cap on n (default {COUNT_MAX_N})")

    e = sub.add_parser("enumerate", help="explicit element listings")
    e.add_argument(
        "what",
        choices=["automorphisms", "involutions", "r-involutions",
                 "preserving", "special"],
    )
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--r", type=int)
    e.add_argument("--kind", choices=[k.value for k in SpecialSetKind],
                   help="which special family (enumerate special)")
    e.add_argument("--format", choices=FORMATS)
    e.add_argument("--budget", type=int,
                   help=f"cap on n (default {ENUMERATE_MAX_N}, "
                        f"preserving {PRESERVING_MAX_N})")

    a = sub.add_parser("apply", help="apply an automorphism to an element")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--perm", required=True,
                   help='signed permutation text, e.g. "4,1,-3,2"')
    a.add_argument("--input", required=True, help="JSON file with the element")

    v = sub.add_parser("verify", help="brute-force verification suites")
    v.add_argument(
        "--suite",
        required=True,
        choices=["special", "automorphisms", "involutions",
                 "r-involutions", "preserving", "all"],
    )
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--r", type=int)
    v.add_argument("--budget", type=int, help="element budget for brute force")

    t = sub.add_parser("table", help="involution counts by ring order")
    t.add_argument("--max-n", dest="max_n", type=int, default=5)
    t.add_argument("--format", choices=FORMATS)
    return ap


def _resolve_format(explicit: str | None) -> str:
    if explicit:
        return explicit
    env = os.environ.get(FORMAT_ENV, "").strip().lower()
    if env in FORMATS:
        return env
    return "json"


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


@contextlib.contextmanager
def _any_size_ints():
    """Lift Python's int-to-str digit limit while counts are printed.

    Counts at the default cap run to ~150,000 digits.  The limit guards
    str-to-int parsing too, so argv is parsed before this is entered.
    """
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _check_cap(n: int, cap: int, override: int | None) -> None:
    limit = override if override is not None else cap
    if n > limit:
        raise BudgetExceeded(f"n={n} exceeds the cap {limit}; raise --budget")
    if n < 1:
        raise ValueError("n must be at least 1")


def _cmd_count(args) -> int:
    what = args.what
    if what == "signed-r-involutions":
        if args.n_symbols is None or args.r is None:
            raise _UsageError("signed-r-involutions needs --N-symbols and --r")
        limit = args.budget if args.budget is not None else COUNT_MAX_N
        if args.n_symbols > (1 << (limit - 1)):
            raise BudgetExceeded(
                f"N={args.n_symbols} exceeds the cap {1 << (limit - 1)}"
            )
        value = counting.count_signed_r_involutions(args.n_symbols, args.r)
    else:
        if args.n is None:
            raise _UsageError(f"count {what} needs --n")
        _check_cap(args.n, COUNT_MAX_N, args.budget)
        if what == "automorphisms":
            value = counting.count_automorphisms(args.n)
        elif what == "involutions":
            value = counting.count_involutions(args.n)
        elif what == "r-involutions":
            if args.r is None:
                raise _UsageError("count r-involutions needs --r")
            value = counting.count_r_involutions(args.n, args.r)
        else:
            value = counting.count_preserving(args.n)
    with _any_size_ints():
        print(value)
    return 0


def _special_csv(n: int, kind: SpecialSetKind) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC, lineterminator="\n")
    header = [unit_name(mask) or "1" for mask in range(1 << n)]
    writer.writerow(header)
    for eta in enumerate_special(kind, n):
        row = []
        for mask in range(1 << n):
            coeff = eta.coeff(mask)
            if coeff.exp == 0:
                row.append(coeff.num)
            else:
                row.append(str(coeff))
        writer.writerow(row)
    return buf.getvalue()


def _cmd_enumerate(args) -> int:
    fmt = _resolve_format(args.format)
    what = args.what
    cap = PRESERVING_MAX_N if what == "preserving" else ENUMERATE_MAX_N
    _check_cap(args.n, cap, args.budget)
    n = args.n

    if what == "special":
        if args.kind is None:
            raise _UsageError("enumerate special needs --kind")
        kind = SpecialSetKind(args.kind)
        if fmt == "csv":
            sys.stdout.write(_special_csv(n, kind))
        else:
            elements = [x.to_json_dict() for x in enumerate_special(kind, n)]
            _emit_json({"n": n, "kind": kind.value, "elements": elements})
        return 0

    if what == "preserving":
        rows = []
        for matrix, auto in enumerate_preserving_involutions(n, max_n=n):
            names = []
            srow = matrix.rows[n]
            for j in range(n):
                mask = matrix.column(j) & ((1 << n) - 1)
                prefix = "-" if (srow >> j) & 1 else ""
                names.append(prefix + unit_name(mask))
            rows.append({
                "matrix": matrix.to_lists(),
                "unit_images": names,
                "permutation": auto.perm.to_json_dict(),
            })
        _emit_json({"n": n, "count": len(rows), "involutions": rows})
        return 0

    if what == "automorphisms":
        autos = enumerate_automorphisms(n)
    elif what == "involutions":
        autos = enumerate_r_involutions(n, 2)
    else:
        if args.r is None:
            raise _UsageError("enumerate r-involutions needs --r")
        autos = enumerate_r_involutions(n, args.r)
    listing = [a.perm.to_json_dict() for a in autos]
    _emit_json({"n": n, "count": len(listing), "automorphisms": listing})
    return 0


def _cmd_apply(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    eta = MulticomplexNumber.from_json_dict(data)
    if eta.order != args.n:
        raise ValueError(
            f"element has order {eta.order}, --n says {args.n}"
        )
    auto = Automorphism.from_text(args.n, args.perm)
    _emit_json(auto.apply(eta).to_json_dict())
    return 0


def _verify_one(suite: str, n: int, r: int | None, budget: int | None) -> dict:
    if suite == "special":
        return verify_special_sets(n).to_json_dict()
    if suite == "automorphisms":
        expected = counting.count_automorphisms(n)
        seen = 0
        for auto in enumerate_automorphisms(n, budget):
            seen += 1
            report = verify_homomorphism(auto)
            if not report.ok:
                return {
                    "ok": False,
                    "count": seen,
                    "failure": report.to_json_dict()["failure"],
                }
        return {"ok": seen == expected, "count": seen, "expected": expected}
    if suite == "involutions":
        brute = brute_count_r_involutions(n, 2, budget)
        formula = counting.count_involutions(n)
        return {"ok": brute == formula, "brute": brute, "formula": formula}
    if suite == "r-involutions":
        if r is None:
            raise _UsageError("verify --suite r-involutions needs --r")
        brute = brute_count_r_involutions(n, r, budget)
        formula = counting.count_r_involutions(n, r)
        return {"ok": brute == formula, "brute": brute, "formula": formula}
    if suite == "preserving":
        expected = counting.count_preserving(n)
        seen = 0
        all_involutions = True
        for _, auto in enumerate_preserving_involutions(n):
            seen += 1
            all_involutions = all_involutions and auto.is_involution()
        return {
            "ok": seen == expected and all_involutions,
            "count": seen,
            "expected": expected,
            "all_involutions": all_involutions,
        }
    raise _UsageError(f"unknown suite {suite}")


def _cmd_verify(args) -> int:
    if args.suite == "all":
        suites = ["special", "automorphisms", "involutions", "preserving"]
        if args.r is not None:
            suites.append("r-involutions")
    else:
        suites = [args.suite]
    results = {}
    for suite in suites:
        results[suite] = _verify_one(suite, args.n, args.r, args.budget)
    ok = all(res.get("ok") for res in results.values())
    _emit_json({"n": args.n, "ok": ok, "suites": results})
    return 0 if ok else 2


def _cmd_table(args) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    _check_cap(args.max_n, COUNT_MAX_N, None)
    fmt = _resolve_format(args.format)
    rows = [
        {"n": n, "involutions": counting.count_involutions(n)}
        for n in range(1, args.max_n + 1)
    ]
    with _any_size_ints():
        if fmt == "json":
            _emit_json(rows)
        elif fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["n", "involutions"])
            for row in rows:
                writer.writerow([row["n"], row["involutions"]])
            sys.stdout.write(buf.getvalue())
        else:
            print("| n | involutions |")
            print("|---|---|")
            for row in rows:
                print(f"| {row['n']} | {row['involutions']} |")
    return 0


def _join_perm(argv: Sequence[str]) -> list[str]:
    """Spell `--perm X` as `--perm=X`, so a text such as "-3,1,2,4" is not
    read as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--perm":
            out[-1] = f"--perm={arg}"
        else:
            out.append(arg)
    return out


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_perm(argv))
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "apply":
            return _cmd_apply(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "table":
            return _cmd_table(args)
        raise _UsageError(f"unknown command {args.command}")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BudgetExceeded, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
