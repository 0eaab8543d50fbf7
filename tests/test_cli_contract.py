"""The command line's contract over its whole argv grammar, run in-process.

Every argv ends in exit 0, 1 or 2 and no exception escapes run().  Exit 1
prints nothing to stdout and one `error:` or `usage error:` line to stderr.
Exit 0 prints JSON, CSV or markdown, and every count in it equals its
closed form.

The grammar is read from the parser itself, so each subcommand, choice and
flag is drawn, and so are values the parser refuses.  --help is left out:
argparse prints it and ends the interpreter.  --budget is always given, as
10^7 operations or as a value that admits nothing, so that every admitted
command is quick.
"""
import argparse
import contextlib
import csv
import io
import json
import os
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from multicomplex import MulticomplexNumber, cli, counting

BUDGET = "10000000"
# valid values repeat, so that about a quarter of the draws run
SMALL = ["1", "2", "3"] * 5 + ["4"]
EDGES = ["5", "0", "-1", str(2 ** 63), str(10 ** 40), "two"]
FILES = {
    "element3.json": '{"n": 3, "coeffs": {"i1": "1", "i2*i3": "-1/2"}}',
    "element2.json": '{"n": 2, "coeffs": {"": "3"}}',
    "truncated.json": '{"n": 3, ',
    "array.json": "[3]",
    "text-n.json": '{"n": "3", "coeffs": {}}',
    "bad-unit.json": '{"n": 3, "coeffs": {"i4": "1"}}',
    "bad-value.json": '{"n": 3, "coeffs": {"i1": "1/3"}}',
    "two-spellings.json": '{"n": 3, "coeffs": {"i1": "1", " i1": "2"}}',
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "perm3.txt": "4,1,-3,2\n",
    "perm2.txt": "2,1",
    "bad-perm.txt": "1,1,2",
    "empty.txt": "",
}
# one admitted call per subcommand, choice and format, run besides the
# draws, so that every exit-0 check is reached on every run
RUNS = [
    "count automorphisms --n 3", "count involutions --n 4",
    "count r-involutions --n 3 --r 3", "count preserving --n 4",
    "count signed-r-involutions --N-symbols 5 --r 2",
    "enumerate automorphisms --n 2", "enumerate involutions --n 2",
    "enumerate r-involutions --n 2 --r 4", "enumerate preserving --n 3",
    "enumerate special --n 2 --kind minus-one",
    "enumerate special --n 3 --kind idempotent --format csv",
    "verify --suite all --n 2 --r 3", "table --max-n 4",
    "table --format csv", "table --format markdown",
]
GOOD_PERMS = ["4,1,-3,2", "-3,1,2,4", "2,1", "-1,2", "1", "-1"]
BAD_PERMS = ["", "x", "1,,2", "0", "1,1"]


def subcommands():
    """{name: (positional choices or None,
               [(flag, required, choices or None)])}."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    grammar = {}
    for name, command in sub.choices.items():
        what, flags = None, []
        for action in command._actions:
            if not action.option_strings:
                what = list(action.choices)
            elif action.dest not in ("help", "budget"):
                choices = list(action.choices) if action.choices else None
                flags.append((action.option_strings[0], action.required,
                              choices))
        grammar[name] = (what, flags)
    return grammar


@st.composite
def argvs(draw, grammar, paths):
    name = draw(st.sampled_from([*grammar, "frobnicate"]))
    if name not in grammar:
        return [name]
    what, flags = grammar[name]
    fixed = {}
    if name == "apply" and draw(st.booleans()):
        # an order, a map and an element that agree, which the draws below
        # seldom meet
        n, perm, element = draw(st.sampled_from([
            ("3", "4,1,-3,2", paths["element3.json"]),
            ("3", f"@{paths['perm3.txt']}", paths["element3.json"]),
            ("2", "-1,2", paths["element2.json"])]))
        fixed = {"--n": n, "--perm": perm, "--input": element}
    parts = []
    if what and draw(st.integers(0, 19)):
        parts.append([draw(st.sampled_from(what * 3 + ["widgets"]))])
    for flag, required, choices in flags:
        if flag in fixed:
            value = st.just(fixed[flag])
        elif not draw(st.integers(0, 19 if required else 3)):
            continue
        elif choices:
            value = st.sampled_from(choices * 3 + ["bogus"])
        elif flag == "--input":
            value = st.sampled_from([*paths.values()] + 4 * [
                paths["element3.json"], paths["element2.json"]])
        elif flag == "--perm":
            value = st.sampled_from(GOOD_PERMS * 2 + BAD_PERMS
                                    + [f"@{p}" for p in paths.values()])
        else:
            value = st.sampled_from(SMALL + EDGES)
        parts.append([flag, draw(value)])
    budget = draw(st.sampled_from([BUDGET] * 8 + ["0", "-1", "ten"]))
    parts.append(["--budget", budget])
    order = draw(st.permutations(range(len(parts))))
    return [name] + [word for i in order for word in parts[i]]


def table_rows(out):
    """(n, involutions) pairs from a table in any of its formats."""
    if out.startswith("|"):
        lines = out.splitlines()
        assert lines[:2] == ["| n | involutions |", "|---|---|"]
        rows = [line.strip("|").split("|") for line in lines[2:]]
    elif out.startswith("n,"):
        rows = list(csv.reader(io.StringIO(out)))
        assert rows.pop(0) == ["n", "involutions"]
    else:
        rows = [[r["n"], r["involutions"]] for r in json.loads(out)]
    return [(int(a), int(b)) for a, b in rows]


def check_output(args, out):
    n, r = getattr(args, "n", None), getattr(args, "r", None)
    closed = {
        "automorphisms": lambda: counting.count_automorphisms(n),
        "involutions": lambda: counting.count_involutions(n),
        "r-involutions": lambda: counting.count_r_involutions(n, r),
        "preserving": lambda: counting.count_preserving(n),
        "signed-r-involutions":
            lambda: counting.count_signed_r_involutions(args.n_symbols, r),
    }
    if args.command == "count":
        assert json.loads(out) == closed[args.what]()
    elif args.command == "table":
        assert table_rows(out) == [(k, counting.count_involutions(k))
                                   for k in range(1, args.max_n + 1)]
    elif args.command == "apply":
        assert MulticomplexNumber.from_json_dict(json.loads(out)).order == n
    elif args.command == "verify":
        payload = json.loads(out)
        assert payload["ok"] is True
        for suite, result in payload["suites"].items():
            values = [result[k] for k in ("count", "expected", "brute", "formula")
                      if k in result]
            if suite != "special":
                assert values and set(values) == {closed[suite]()}
    elif args.what == "special":
        size = 2 ** 2 ** (n - 1)
        if out.startswith("{"):
            assert len(json.loads(out)["elements"]) == size
        else:
            rows = list(csv.reader(io.StringIO(out)))
            assert len(rows) == 1 + size
            assert {len(row) for row in rows} == {2 ** n}
    else:
        payload = json.loads(out)
        key = "involutions" if args.what == "preserving" else "automorphisms"
        assert payload["count"] == closed[args.what]()
        assert len(payload[key]) == payload["count"]


def test_every_argv_keeps_the_contract(tmp_path):
    paths = {name: str(tmp_path / name)
             for name in [*FILES, "latin-1.json", "missing.json"]}
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "latin-1.json").write_bytes(b'{"n": 1, "coeffs": {"\xff": "1"}}')

    @settings(max_examples=200, deadline=None, database=None)
    @given(argvs(subcommands(), paths),
           st.sampled_from([None, "json", "csv", "markdown", "yaml"]))
    def keeps_the_contract(argv, env_format):
        env = {} if env_format is None else {cli.FORMAT_ENV: env_format}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            if env_format is None:
                os.environ.pop(cli.FORMAT_ENV, None)
            code = cli.run(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert out == "", argv
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err.startswith(("error: ", "usage error: ")), (argv, err)
        if code == 0:
            assert err == "", (argv, err)
            args = cli._build_parser().parse_args(cli._join_perm(argv))
            with cli._any_size_ints():
                check_output(args, out)

    element = ["apply", "--n", "3", "--perm", "4,1,-3,2",
               "--input", paths["element3.json"]]
    for argv in [run.split() for run in RUNS] + [element]:
        keeps_the_contract = example(argv + ["--budget", BUDGET], None)(
            keeps_the_contract)
    keeps_the_contract()
