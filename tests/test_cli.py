"""End-to-end tests for the command-line interface, via run()."""
import csv
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from multicomplex import cli, counting

README = Path(__file__).resolve().parent.parent / "README.md"


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def involutions_to_cap():
    return {n: counting.count_involutions(n) for n in range(1, 17)}


class TestCount:
    @pytest.mark.parametrize(
        "args,expected",
        [
            (("count", "involutions", "--n", "4"), "32400"),
            (("count", "involutions", "--n", "5"), "50305536256"),
            (("count", "automorphisms", "--n", "3"), "384"),
            (("count", "preserving", "--n", "4"), "576"),
            (("count", "r-involutions", "--n", "3", "--r", "3"), "33"),
            (("count", "signed-r-involutions", "--N-symbols", "4", "--r", "2"),
             "76"),
        ],
    )
    def test_values(self, capsys, args, expected):
        code, out, err = invoke(capsys, *args)
        assert code == 0
        assert out.strip() == expected
        assert err == ""

    def test_rejects_bad_order(self, capsys):
        code, out, err = invoke(capsys, "count", "involutions", "--n", "0")
        assert code == 1
        assert "error" in err

    def test_missing_flags_are_usage_errors(self, capsys):
        code, _, err = invoke(capsys, "count", "involutions")
        assert code == 1 and "usage error" in err
        code, _, err = invoke(capsys, "count", "r-involutions", "--n", "3")
        assert code == 1 and "usage error" in err
        code, _, err = invoke(capsys, "count", "signed-r-involutions", "--r", "2")
        assert code == 1 and "usage error" in err

    def test_budget_default_and_override(self, capsys):
        code, _, err = invoke(capsys, "count", "involutions", "--n", "20")
        assert code == 1
        assert "exceeds the budget 1.00e+10" in err
        code, _, err = invoke(
            capsys, "count", "involutions", "--n", "6", "--budget", "5"
        )
        assert code == 1
        assert "exceeds the budget 5;" in err
        code, out, _ = invoke(
            capsys, "count", "involutions", "--n", "6", "--budget", "1000"
        )
        assert code == 0
        assert int(out) == counting.count_involutions(6)


class TestLargeCounts:
    """Counts run past Python's 4300-digit int-to-str limit; the CLI lifts
    it only while printing."""

    def test_prints_past_the_digit_limit(self, capsys):
        before = sys.get_int_max_str_digits()
        code, out, err = invoke(capsys, "count", "automorphisms", "--n", "12")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == before
        with cli._any_size_ints():
            assert out.strip() == str(counting.count_automorphisms(12))

    def test_argv_parsing_keeps_the_limit(self, capsys):
        code, _, err = invoke(capsys, "count", "involutions", "--n", "1" * 5000)
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("fmt", ["csv", "markdown"])  # json: TestCountCap
    def test_table_formats_print_past_the_limit(self, capsys, fmt, involutions_to_cap):
        code, out, err = invoke(capsys, "table", "--max-n", "13", "--format", fmt)
        assert (code, err) == (0, "")
        with cli._any_size_ints():
            if fmt == "csv":
                rows = [(int(n), int(v)) for n, v in list(csv.reader(io.StringIO(out)))[1:]]
            else:
                rows = [tuple(int(cell) for cell in line.strip("| ").split(" | "))
                        for line in out.splitlines()[2:]]
        assert rows == [(n, involutions_to_cap[n]) for n in range(1, 14)]


class TestCountsAtSixteen:
    """Every count at n = 16 is inside the default budget, finishes and
    prints the library's value."""

    def test_table(self, capsys, involutions_to_cap):
        code, out, _ = invoke(capsys, "table", "--max-n", "16")
        assert code == 0
        with cli._any_size_ints():
            rows = json.loads(out)
        assert rows == [{"n": n, "involutions": v} for n, v in involutions_to_cap.items()]

    def test_involutions(self, capsys, involutions_to_cap):
        code, out, _ = invoke(capsys, "count", "involutions", "--n", "16")
        assert code == 0
        with cli._any_size_ints():
            assert int(out) == involutions_to_cap[16]

    @pytest.mark.parametrize("args,value", [
        (("count", "automorphisms", "--n", "16"),
         lambda: counting.count_automorphisms(16)),
        (("count", "preserving", "--n", "16"),
         lambda: counting.count_preserving(16)),
        (("count", "r-involutions", "--n", "16", "--r", "3"),
         lambda: counting.count_r_involutions(16, 3)),
        (("count", "signed-r-involutions", "--N-symbols", "32768", "--r", "2"),
         lambda: counting.count_signed_r_involutions(32768, 2)),
    ])
    def test_count(self, capsys, args, value):
        code, out, _ = invoke(capsys, *args)
        assert code == 0
        with cli._any_size_ints():
            assert int(out) == value()


class TestEnumerate:
    def test_automorphism_listing(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "automorphisms", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["count"] == 8
        assert payload["automorphisms"][0] == {"N": 2, "images": [1, 2]}

    def test_involution_listing(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "involutions", "--n", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 6

    def test_r_involutions_need_r(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "r-involutions", "--n", "2")
        assert code == 1 and "usage error" in err

    def test_preserving_listing(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "preserving", "--n", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 6
        rows = payload["involutions"]
        identity_rows = [
            r for r in rows if r["unit_images"] == ["i1", "i2"]
        ]
        assert len(identity_rows) == 1
        row = identity_rows[0]
        assert row["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert row["permutation"] == {"N": 2, "images": [1, 2]}
        for r in rows:
            assert all(v in (0, 1) for line in r["matrix"] for v in line)

    def test_special_needs_kind(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "special", "--n", "2")
        assert code == 1 and "usage error" in err

    def test_special_json(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "special", "--n", "2", "--kind", "one"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["kind"] == "one"
        assert len(payload["elements"]) == 4
        assert payload["elements"][0] == {"n": 2, "coeffs": {"": "1"}}

    def test_special_csv_exact_bytes(self, capsys):
        code, out, _ = invoke(
            capsys, "enumerate", "special", "--n", "2", "--kind", "idempotent",
            "--format", "csv",
        )
        assert code == 0
        assert out == (
            '"1","i1","i2","i1*i2"\n'
            "0,0,0,0\n"
            '"1/2",0,0,"1/2"\n'
            '"1/2",0,0,"-1/2"\n'
            "1,0,0,0\n"
        )

    def test_refused_by_default(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "automorphisms", "--n", "5")
        assert code == 1 and "exceeds the budget" in err
        code, _, err = invoke(capsys, "enumerate", "preserving", "--n", "7")
        assert code == 1 and "exceeds the budget" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "enumerate", "preserving", "--n", "3")
        _, second, _ = invoke(capsys, "enumerate", "preserving", "--n", "3")
        assert first == second


class TestApply:
    def write_element(self, tmp_path, payload):
        path = tmp_path / "element.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_order_six_map_on_first_generator(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {"i1": "1"}})
        code, out, _ = invoke(
            capsys, "apply", "--n", "3", "--perm", "4,1,-3,2", "--input", path
        )
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "coeffs": {"i1": "1/2", "i2": "1/2", "i3": "1/2",
                       "i1*i2*i3": "1/2"},
        }

    @pytest.mark.parametrize("spelling", [("--perm", "-3,1,2,4"), ("--perm=-3,1,2,4",)])
    def test_permutation_text_starting_with_minus(self, capsys, tmp_path, spelling):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {"": "1"}})
        code, out, err = invoke(capsys, "apply", "--n", "3", *spelling, "--input", path)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"n": 3, "coeffs": {"": "1"}}

    def test_missing_permutation_text(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {}})
        code, _, err = invoke(capsys, "apply", "--n", "3", "--input", path, "--perm")
        assert code == 1 and "usage error" in err

    def test_identity(self, capsys, tmp_path):
        payload = {"n": 2, "coeffs": {"": "1/2", "i1*i2": "-3"}}
        path = self.write_element(tmp_path, payload)
        code, out, _ = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2", "--input", path
        )
        assert code == 0
        assert json.loads(out) == payload

    def test_order_mismatch(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {}})
        code, _, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2", "--input", path
        )
        assert code == 1 and "error" in err

    def test_bad_permutation_text(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 2, "coeffs": {}})
        code, _, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,1", "--input", path
        )
        assert code == 1 and "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2",
            "--input", str(tmp_path / "nope.json"),
        )
        assert code == 1 and "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2", "--input", str(path)
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("payload", [
        {"order": 3, "coeffs": {}},
        5,
        [3],
        {"n": 100, "coeffs": {}},  # larger than --n: refused before it is built
    ])
    def test_wrong_schema(self, capsys, tmp_path, payload):
        # valid JSON that is not an element: clean domain error, no traceback
        path = self.write_element(tmp_path, payload)
        code, _, err = invoke(
            capsys, "apply", "--n", "3", "--perm", "1,2,3,4", "--input", path
        )
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("coeffs", [["1"], {"i1": 1}, {"i1": None}])
    def test_wrong_coeffs_shape(self, capsys, tmp_path, coeffs):
        path = self.write_element(tmp_path, {"n": 2, "coeffs": coeffs})
        code, _, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2", "--input", path
        )
        assert code == 1 and err.startswith("error:")


class TestVerify:
    def test_involution_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "involutions",
                              "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["suites"]["involutions"] == {
            "ok": True, "brute": 76, "formula": 76
        }

    def test_special_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "special", "--n", "2")
        assert code == 0
        assert json.loads(out)["suites"]["special"]["ok"] is True

    def test_automorphism_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "automorphisms",
                              "--n", "2")
        assert code == 0
        payload = json.loads(out)["suites"]["automorphisms"]
        assert payload == {"ok": True, "count": 8, "expected": 8}

    def test_preserving_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "preserving",
                              "--n", "3")
        assert code == 0
        payload = json.loads(out)["suites"]["preserving"]
        assert payload["count"] == payload["expected"] == 44

    def test_r_suite_needs_r(self, capsys):
        code, _, err = invoke(capsys, "verify", "--suite", "r-involutions",
                              "--n", "2")
        assert code == 1 and "usage error" in err

    def test_r_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "r-involutions",
                              "--n", "3", "--r", "3")
        assert code == 0
        payload = json.loads(out)["suites"]["r-involutions"]
        assert payload == {"ok": True, "brute": 33, "formula": 33}

    def test_all_runs_every_suite(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "all", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload["suites"]) == {
            "special", "automorphisms", "involutions", "preserving"
        }

    def test_failure_exits_two(self, capsys, monkeypatch):
        from multicomplex.oracle import VerificationReport

        def fake(n):
            return VerificationReport(False, 1, {"law": "synthetic"})

        monkeypatch.setattr(cli, "verify_special_sets", fake)
        code, out, _ = invoke(capsys, "verify", "--suite", "special", "--n", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["suites"]["special"]["failure"] == {"law": "synthetic"}


class TestTable:
    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "5")
        assert code == 0
        assert json.loads(out) == [
            {"n": 1, "involutions": 2},
            {"n": 2, "involutions": 6},
            {"n": 3, "involutions": 76},
            {"n": 4, "involutions": 32400},
            {"n": 5, "involutions": 50305536256},
        ]

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, "table", "--max-n", "3", "--format", "csv")
        assert code == 0
        assert out == "n,involutions\n1,2\n2,6\n3,76\n"

    def test_markdown(self, capsys):
        code, out, _ = invoke(
            capsys, "table", "--max-n", "2", "--format", "markdown"
        )
        assert code == 0
        assert out == "| n | involutions |\n|---|---|\n| 1 | 2 |\n| 2 | 6 |\n"

    def test_validation(self, capsys):
        code, _, err = invoke(capsys, "table", "--max-n", "0")
        assert code == 1 and "error" in err


class TestFormatResolution:
    def test_environment_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "markdown")
        code, out, _ = invoke(capsys, "table", "--max-n", "1")
        assert code == 0
        assert out.startswith("| n |")

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "markdown")
        code, out, _ = invoke(capsys, "table", "--max-n", "1", "--format", "csv")
        assert code == 0
        assert out.startswith("n,involutions")

    def test_unknown_environment_value_falls_back_to_json(self, capsys,
                                                          monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "yaml")
        code, out, _ = invoke(capsys, "table", "--max-n", "1")
        assert code == 0
        json.loads(out)


class TestParsing:
    def test_unknown_command_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1 and "usage error" in err

    def test_unknown_choice_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "count", "widgets", "--n", "2")
        assert code == 1 and "usage error" in err


def estimate(*argv):
    return cli._work(cli._build_parser().parse_args(cli._join_perm(argv)))


class TestBudget:
    """One estimate per command, checked against one budget before any work."""

    @pytest.mark.parametrize("argv", [
        ("count", "automorphisms", "--n", "16"),
        ("count", "involutions", "--n", "16"),
        ("count", "r-involutions", "--n", "16", "--r", "3"),
        ("count", "preserving", "--n", "16"),
        ("count", "signed-r-involutions", "--N-symbols", "32768", "--r", "2"),
        ("table", "--max-n", "16"),
        ("verify", "--suite", "involutions", "--n", "4"),
        ("verify", "--suite", "r-involutions", "--n", "3", "--r", "12"),
        ("verify", "--suite", "special", "--n", "5"),
        ("verify", "--suite", "automorphisms", "--n", "3"),
        ("verify", "--suite", "preserving", "--n", "5"),
        ("enumerate", "automorphisms", "--n", "3"),
        ("enumerate", "preserving", "--n", "5"),
        ("enumerate", "special", "--n", "4", "--kind", "one"),
        ("apply", "--n", "5", "--perm", "1", "--input", "unread.json"),
    ])
    def test_admitted_by_default(self, argv):
        assert 1 <= estimate(*argv) <= cli.DEFAULT_BUDGET

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "automorphisms", "--n", "4"),
        ("verify", "--suite", "all", "--n", "4"),
        ("verify", "--suite", "preserving", "--n", "7"),
        ("enumerate", "automorphisms", "--n", "4"),
        ("verify", "--suite", "r-involutions", "--n", "3", "--r", "1000000"),
        ("verify", "--suite", "r-involutions", "--n", "4", "--r", "840"),
        ("count", "r-involutions", "--n", "13", "--r", "720720"),
        ("count", "signed-r-involutions", "--N-symbols", "4", "--r", "2", "--budget", "0"),
        ("apply", "--n", "100", "--perm", "1", "--input", "unread.json"),
        ("count", "involutions", "--n", "1000000"),
        ("count", "signed-r-involutions", "--N-symbols", "1000000000000", "--r", "2"),
        ("count", "signed-r-involutions", "--N-symbols", "10" * 20, "--r", "10" * 20),
        ("table", "--max-n", "1000000"),
        ("count", "preserving", "--n", "1000"),
        ("count", "preserving", "--n", "1000000"),
        ("enumerate", "preserving", "--n", "1000000"),
    ])
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        for name in ("_cmd_count", "_cmd_enumerate", "_cmd_apply", "_cmd_verify", "_cmd_table"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("dispatched"))
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: estimated work \S+ operations exceeds the budget "
                            r"\S+; raise --budget to run it\n", err)

    @pytest.mark.parametrize("argv", [
        ("count", "involutions", "--n", "6"),
        ("enumerate", "automorphisms", "--n", "2"),
        ("verify", "--suite", "involutions", "--n", "3"),
    ])
    def test_explicit_budget_is_the_threshold(self, capsys, argv):
        work = estimate(*argv)
        code, out, err = invoke(capsys, *argv, "--budget", str(work - 1))
        assert (code, out) == (1, "") and "exceeds the budget" in err
        code, out, err = invoke(capsys, *argv, "--budget", str(work))
        assert (code, err) == (0, "")
        assert invoke(capsys, *argv) == (0, out, "")

    def test_divisor_scan_is_bounded(self, monkeypatch):
        scanned = []

        class Watched(int):
            def __mod__(self, d):
                scanned.append(d)
                return int(self) % d

        monkeypatch.setattr(cli, "_DIVISOR_SCAN", 100)
        r = 10 ** 20
        cli._recurrence_ops(r, Watched(r))
        assert scanned == list(range(1, 101))

    def test_polynomial_factors_use_the_real_order(self):
        for what in (("count", "preserving"), ("enumerate", "preserving"),
                     ("apply", "--perm", "1", "--input", "unread.json")):
            assert estimate(*what, "--n", "1000") > estimate(*what, "--n", "100") \
                > estimate(*what, "--n", "64")

    def test_estimate_bounds_r(self):
        assert estimate("count", "r-involutions", "--n", "12", "--r", "720720") > \
            100 * estimate("count", "r-involutions", "--n", "12", "--r", "2")


def readme_examples():
    """(argv, stdout) for each `$ multicomplex ...` line of the README's
    command-line section, and the files its `$ cat` lines show."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    files, examples = {}, []
    for chunk in block.strip().split("\n\n"):
        lines = chunk.splitlines()
        while lines:
            command, *rest = shlex.split(lines[0][2:])
            end = next((i for i, line in enumerate(lines[1:], 1)
                        if line.startswith("$ ")), len(lines))
            shown = "".join(line + "\n" for line in lines[1:end])
            if command == "cat":
                files[rest[0]] = shown
            else:
                examples.append((rest, shown))
            lines = lines[end:]
    return files, examples


def test_readme_examples(capsys, tmp_path, monkeypatch):
    files, examples = readme_examples()
    assert len(examples) == 6
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.FORMAT_ENV, raising=False)
    for argv, shown in examples:
        assert invoke(capsys, *argv) == (0, shown, ""), argv
