"""Command-line interface.

Subcommands: count, enumerate, apply, verify, table.  Exit codes: 0 on
success, 1 on domain errors (bad n, bad permutation text, too much
estimated work), 2 when a verification suite fails or a listing's length
differs from its closed-form count.  JSON output is deterministic: keys
are sorted and list order is the canonical enumeration order.  The default
output format may be set with the MULTICOMPLEX_FORMAT environment variable.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from decimal import Decimal
from typing import Iterable, Iterator, Sequence

from . import BudgetExceeded, counting
from .automorphism import (
    Automorphism,
    enumerate_automorphisms,
    enumerate_r_involutions,
)
from .gf2_preserving import _transpose, enumerate_preserving_involutions
from .mc_core import MulticomplexNumber, _at_least, _unit_names, unit_name
from .oracle import (
    _BRUTE_PRESERVING_MAX_N,
    brute_count_preserving,
    brute_count_r_involutions,
    verify_homomorphism,
    verify_special_sets,
)
from .special_elements import SpecialSetKind, enumerate_special

__all__ = ["run", "main"]

FORMAT_ENV = "MULTICOMPLEX_FORMAT"
FORMATS = ("json", "csv", "markdown")

# estimated operations a command may take unless --budget says otherwise;
# _work gives the unit and the measurements behind the value
DEFAULT_BUDGET = 10 ** 10
# operations per interpreted Python step on one coefficient, symbol or row
_STEP = 1000
# the brute-force sign walk: operations per composition (its numpy calls)
# and per permutation and symbol composed
_COMPOSE = 10 ** 4
_COMPOSE_SYMBOL = 30
# the preserving generator with the involution check of each map:
# operations per map and component
_PRESERVING_SYMBOL = 300
# n and N count as at most this in the exponentials 2^n, N = 2^(n-1), 2^N, N!
_CEILING = 64
# divisors of r are looked for up to here
_DIVISOR_SCAN = 1 << 20


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """argparse ended early, as after --help, with exit code args[0]."""


class _Parser(argparse.ArgumentParser):
    """argparse that leaves every exit code to run()."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        if message:
            self._print_message(message, sys.stderr)
        raise _Exit(status)


def _build_parser() -> _Parser:
    ap = _Parser(prog="multicomplex", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)
    common = _Parser(add_help=False)
    common.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help=f"refuse the command when its estimated work, in operations of "
             f"about a nanosecond, exceeds this (default {DEFAULT_BUDGET:.0e})",
    )

    c = sub.add_parser("count", help="closed-form counts", parents=[common])
    c.set_defaults(handler=_cmd_count)
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

    e = sub.add_parser("enumerate", help="explicit element listings", parents=[common])
    e.set_defaults(handler=_cmd_enumerate)
    e.add_argument(
        "what",
        choices=["automorphisms", "involutions", "r-involutions",
                 "preserving", "special"],
    )
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--r", type=int)
    e.add_argument("--kind", choices=[k.value for k in SpecialSetKind],
                   help="which special family (enumerate special)")
    e.add_argument("--format", choices=("json", "csv"),
                   help="csv is for enumerate special only")

    a = sub.add_parser("apply", help="apply an automorphism to an element",
                       parents=[common])
    a.set_defaults(handler=_cmd_apply)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--perm", required=True,
                   help='signed permutation text, e.g. "4,1,-3,2", or @path '
                        'to read the text from a file')
    a.add_argument("--input", required=True, help="JSON file with the element")

    v = sub.add_parser("verify", help="brute-force verification suites",
                       parents=[common])
    v.set_defaults(handler=_cmd_verify)
    v.add_argument(
        "--suite",
        required=True,
        choices=["special", "automorphisms", "involutions",
                 "r-involutions", "preserving", "all"],
    )
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--r", type=int)

    t = sub.add_parser("table", help="involution counts by ring order",
                       parents=[common])
    t.set_defaults(handler=_cmd_table)
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


def _need(value, flag: str):
    if value is None:
        raise _UsageError(f"this command needs {flag}")
    return value


def _limbs(bits: int) -> int:
    return -(-bits // 64)


def _suites(args) -> list[str]:
    if args.suite != "all":
        return [args.suite]
    suites = ["special", "automorphisms", "involutions", "preserving"]
    return suites + ["r-involutions"] if args.r is not None else suites


def _recurrence_ops(N: int, r: int) -> int:
    """R(N, r): limb products of count_signed_r_involutions(N, r).

    Step (m, d) multiplies a(m-d), about N*b bits where b is the bit length
    of N, by (m-1)!/(m-d)!, about d*b bits, for each divisor d <= N of r and
    each m from d to N.  Divisors are looked for up to _DIVISOR_SCAN; past
    it every d is counted, which overstates the work but keeps this short.
    """
    b = N.bit_length()
    top = min(N, r)
    scanned = min(top, _DIVISOR_SCAN)
    ops = sum((N - d + 1) * _limbs(d * b)
              for d in range(1, scanned + 1) if r % d == 0)
    ops += (top - scanned) * (N + 1) * _limbs(top * b)
    return ops * _limbs(N * b)


def _work(args) -> int:
    """Estimated work of a parsed command, in operations, from closed forms.

    An operation is about a nanosecond: a 64-bit limb product of big-integer
    arithmetic, or one numpy array element.  An interpreted Python step on a
    coefficient, symbol or matrix row counts _STEP = 1000 operations.  With
    N = 2^(n-1), |B_N| = 2^N N! automorphisms and P(n) = count_preserving(n):

      count automorphisms, involutions    R(N, 1), R(N, 2)
      count r-involutions                 R(N, r)
      count signed-r-involutions          R(N, r), N = --N-symbols
      count preserving                    n ceil(n^2/64)^2: its long divisions
      table --max-n m                     sum of R(2^(k-1), 2), k = 1..m
      apply                               8 n 2^n steps: two transforms
      enumerate automorphisms, involutions, r-involutions    |B_N| N steps
      enumerate preserving                P(n) N _PRESERVING_SYMBOL, plus
                                          P(n) ((n+1)^2 + N + n) steps: one
                                          per JSON value of the rows
      enumerate special                   2^N 8 n 2^n steps
      verify special                      6 2^N 4^n array elements
      verify automorphisms                |B_N| (A 8 n 2^n + P 4^n) steps:
                                          A = 2^(n+2) - 1 + P applies and
                                          P = 2^(n-1) (2^n + 1) products
                                          per map
      verify involutions, r-involutions   r (_COMPOSE + _COMPOSE_SYMBOL N! N)
                                          + R(N, r), r = 2 for involutions
      verify preserving                   P(n) N _PRESERVING_SYMBOL, plus
                                          n 2^(n^2) steps for n <= 4: the
                                          brute count
      verify all                          the sum of its suites

    R(N, r) is _recurrence_ops.  Exponentials stop at _CEILING, which keeps
    the estimate quick and past it above 10^24; polynomial factors use n.

    Measured on a 2-core x86-64 host with CPython 3.11: R(N, r) takes 1 to
    3.5 ns per limb product (N = 256..131072, r = 2..720720), count
    preserving 2 to 5 ns per operation (n = 100..520), the step formulas
    0.015 to 6 us per step, and the sign walk of verify involutions and
    r-involutions 5 to 10 us per composition and 16 to 30 ns per
    permutation and symbol (r = 10^5 took 0.50 s at N = 1, r = 60 took
    0.31 s at N = 8; past N = 8 the walk scores above 10^16).  The
    preserving generator with its involution checks takes 5.5 to 7 us per
    map at n = 5 and 6 (N = 16 and 32), 0.7 to 1.3 ns per operation, and
    enumerate preserving about 0.3 us per JSON value at n = 5; it prints each
    row as it is made, at the 17 MB peak RSS of verify --suite preserving.
    The default budget, 10^10, admits calls of up to 19 s: count
    involutions --n 18 (9.7e9) and count preserving --n 520 (9.3e9) took
    19 s; verify --suite preserving --n 6 (7.3e9) 4.1 to 4.2 s, verify
    --suite r-involutions --n 4 --r 840 (8.1e9) 5 to 7 s, verify --suite
    automorphisms --n 3 (5.8e9) 0.2 to 0.3 s, apply --n 16 (8.4e9) 0.9 to
    1.0 s at a peak RSS of 66 MB, 9.5 MB of it the transform's index table,
    enumerate preserving --n 5 (9.5e8) 0.28 to 0.29 s, verify --suite special --n 5
    (4.0e8) 0.24 to 0.35 s at a peak RSS of 39 MB, since it streams the
    special families in blocks, and verify --suite preserving --n 4
    (2.6e8) 0.1 s, each run in-process through run().  It refuses count
    r-involutions --n 13 --r 720720 (4.8e10, 80 s), verify --suite
    r-involutions --n 3 --r 1000000 (1.3e10), enumerate automorphisms
    --n 4 (8.3e10) and enumerate preserving --n 6 (7.3e10: 759,936 rows
    of 87 values, 16 to 20 s as a process writing 331 MB).
    """
    if args.command == "table":
        top = min(_at_least(args.max_n, 1, "--max-n"), _CEILING)
        rows = [_recurrence_ops(1 << (k - 1), 2) for k in range(1, top + 1)]
        return sum(rows) + (args.max_n - top) * rows[-1]
    if args.command == "count" and args.what == "signed-r-involutions":
        return _recurrence_ops(_need(args.n_symbols, "--N-symbols"),
                               _need(args.r, "--r"))
    n = _at_least(_need(args.n, "--n"), 1, "n")
    if args.command == "count" and args.what == "preserving":
        return n * _limbs(n * n) ** 2
    e = min(n, _CEILING)
    N = 1 << (e - 1)
    G = min(N, _CEILING)
    group = (1 << G) * math.factorial(G)
    element = 8 * n * (1 << e) * _STEP
    if args.command == "apply":
        return element
    if args.command == "count":
        r = {"automorphisms": 1, "involutions": 2}.get(args.what)
        return _recurrence_ops(N, r or _need(args.r, "--r"))
    if args.command == "enumerate":
        if args.what == "special":
            return (1 << G) * element
        if args.what == "preserving":
            values = (n + 1) ** 2 + N + n
            return counting.count_preserving(e) * (
                N * _PRESERVING_SYMBOL + values * _STEP)
        if args.what == "r-involutions":
            _need(args.r, "--r")
        return group * N * _STEP
    work = 0
    for suite in _suites(args):
        if suite == "special":
            work += 6 * (1 << G) * 4 ** e
        elif suite == "automorphisms":
            products = (1 << (e - 1)) * ((1 << e) + 1)
            applies = (1 << (e + 2)) - 1 + products
            work += group * (applies * element + products * 4 ** e * _STEP)
        elif suite == "preserving":
            work += counting.count_preserving(e) * N * _PRESERVING_SYMBOL
            if n <= _BRUTE_PRESERVING_MAX_N:
                work += n * (1 << n * n) * _STEP
        else:
            r = 2 if suite == "involutions" else _need(args.r, "--r")
            walk = _COMPOSE + _COMPOSE_SYMBOL * math.factorial(G) * N
            work += r * walk + _recurrence_ops(N, r)
    return work


def _cmd_count(args) -> int:
    what = args.what
    if what == "signed-r-involutions":
        value = counting.count_signed_r_involutions(args.n_symbols, args.r)
    elif what == "automorphisms":
        value = counting.count_automorphisms(args.n)
    elif what == "involutions":
        value = counting.count_involutions(args.n)
    elif what == "r-involutions":
        value = counting.count_r_involutions(args.n, args.r)
    else:
        value = counting.count_preserving(args.n)
    with _any_size_ints():
        print(value)
    return 0


def _print_listing(fields: dict, key: str, items: Iterable) -> int:
    """Print json.dumps({**fields, key: list(items)}, sort_keys=True) and a
    newline, one item at a time, never holding the list; returns the
    number of items printed."""
    opening = f"{json.dumps(key)}: ["
    head, tail = json.dumps({**fields, key: []}, sort_keys=True).split(opening + "]")
    sys.stdout.write(head + opening)
    printed = 0
    for item in items:
        sys.stdout.write(", " * bool(printed) + json.dumps(item, sort_keys=True))
        printed += 1
    sys.stdout.write(f"]{tail}\n")
    return printed


def _print_special_csv(n: int, kind: SpecialSetKind) -> None:
    writer = csv.writer(sys.stdout, quoting=csv.QUOTE_NONNUMERIC,
                        lineterminator="\n")
    writer.writerow([unit_name(mask) or "1" for mask in range(1 << n)])
    for eta in enumerate_special(kind, n):
        coeffs = [eta.coeff(mask) for mask in range(1 << n)]
        writer.writerow([c.num if c.exp == 0 else str(c) for c in coeffs])


def _preserving_rows(n: int) -> Iterator[dict]:
    # per order: each matrix row value as its 0/1 list, and each unit's name
    bits = [[(v >> j) & 1 for j in range(n + 1)] for v in range(1 << (n + 1))]
    names = _unit_names(n)
    for matrix, auto in enumerate_preserving_involutions(n):
        rows = matrix.rows
        yield {
            "matrix": [bits[row] for row in rows],
            "unit_images": [("-" if s else "") + names[m] for m, s
                            in zip(_transpose(rows[:n], n), bits[rows[n]])],
            "permutation": auto.perm.to_json_dict(),
        }


def _cmd_enumerate(args) -> int:
    what = args.what
    n = args.n
    if args.format == "csv" and what != "special":
        raise _UsageError(f"enumerate {what} prints json only")
    # a default from the environment that the kind cannot print gives json
    fmt = _resolve_format(args.format)

    if what == "special":
        if args.kind is None:
            raise _UsageError("enumerate special needs --kind")
        kind = SpecialSetKind(args.kind)
        if fmt == "csv":
            _print_special_csv(n, kind)
        else:
            _print_listing({"n": n, "kind": kind.value}, "elements",
                           (x.to_json_dict() for x in enumerate_special(kind, n)))
        return 0

    # the count is printed before the items, so it comes from the closed
    # form, and any error it raises comes before the first byte
    if what == "preserving":
        count = counting.count_preserving(n)
        key, items = "involutions", _preserving_rows(n)
    else:
        if what == "automorphisms":
            count, autos = counting.count_automorphisms(n), enumerate_automorphisms(n)
        elif what == "involutions":
            count, autos = counting.count_involutions(n), enumerate_r_involutions(n, 2)
        else:
            count = counting.count_r_involutions(n, args.r)
            autos = enumerate_r_involutions(n, args.r)
        key, items = "automorphisms", (a.perm.to_json_dict() for a in autos)
    printed = _print_listing({"n": n, "count": count}, key, items)
    if printed != count:
        print(f"error: printed {printed} items under \"count\": {count}; "
              "stdout is wrong", file=sys.stderr)
        return 2
    return 0


def _cmd_apply(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too deeply") from None
    # compare before building: the estimate counted the 2^n coefficients of
    # --n, not those of the file's n
    order = data.get("n") if isinstance(data, dict) else None
    if isinstance(order, bool):
        raise ValueError("field 'n' must be an integer")
    if isinstance(order, int) and order != args.n:
        raise ValueError(f"element has order {order}, --n says {args.n}")
    eta = MulticomplexNumber.from_json_dict(data)
    text = args.perm
    if text.startswith("@"):
        # at n = 16 the text is ~190 KB, more than one argument may hold
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    auto = Automorphism.from_text(args.n, text)
    _emit_json(auto.apply(eta).to_json_dict())
    return 0


def _verify_one(suite: str, n: int, r: int | None) -> dict:
    if suite == "special":
        return verify_special_sets(n).to_json_dict()
    if suite == "automorphisms":
        expected = counting.count_automorphisms(n)
        seen = 0
        for auto in enumerate_automorphisms(n):
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
        brute = brute_count_r_involutions(n, 2)
        formula = counting.count_involutions(n)
        return {"ok": brute == formula, "brute": brute, "formula": formula}
    if suite == "r-involutions":
        brute = brute_count_r_involutions(n, r)
        formula = counting.count_r_involutions(n, r)
        return {"ok": brute == formula, "brute": brute, "formula": formula}
    # the one suite left: argparse admits no other
    expected = counting.count_preserving(n)
    seen = 0
    all_involutions = True
    for _, auto in enumerate_preserving_involutions(n):
        seen += 1
        all_involutions = all_involutions and auto.is_involution()
    result = {
        "ok": seen == expected and all_involutions,
        "count": seen,
        "expected": expected,
        "all_involutions": all_involutions,
    }
    # the walk over every tuple of generator images has the oracle's bound
    if n <= _BRUTE_PRESERVING_MAX_N:
        result["brute"] = brute_count_preserving(n)
        result["ok"] = result["ok"] and result["brute"] == expected
    return result


def _cmd_verify(args) -> int:
    results = {}
    for suite in _suites(args):
        results[suite] = _verify_one(suite, args.n, args.r)
    ok = all(res.get("ok") for res in results.values())
    _emit_json({"n": args.n, "ok": ok, "suites": results})
    return 0 if ok else 2


def _cmd_table(args) -> int:
    fmt = _resolve_format(args.format)
    rows = [
        {"n": n, "involutions": counting.count_involutions(n)}
        for n in range(1, args.max_n + 1)
    ]
    with _any_size_ints():
        if fmt == "json":
            _emit_json(rows)
        elif fmt == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(["n", "involutions"])
            for row in rows:
                writer.writerow([row["n"], row["involutions"]])
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
        work = max(_work(args), 1)
        if work > args.budget:
            raise BudgetExceeded(
                f"estimated work {Decimal(work):.3g} operations exceeds the "
                f"budget {Decimal(args.budget):.3g}; raise --budget to run it"
            )
        return args.handler(args)
    except _Exit as exc:
        return exc.args[0]
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
