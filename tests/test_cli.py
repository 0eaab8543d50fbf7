"""End-to-end tests for the command-line interface, via run()."""
import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from multicomplex import cli, counting, unit_name

README = Path(__file__).resolve().parent.parent / "README.md"


def child_env():
    """The environment for a child interpreter that imports this checkout."""
    src = str(README.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("what", [
        ("automorphisms",), ("involutions",), ("r-involutions", "--r", "2"),
        ("preserving",),
    ])
    def test_csv_is_for_special_only(self, capsys, what):
        code, out, err = invoke(capsys, "enumerate", *what, "--n", "2",
                                "--format", "csv")
        assert (code, out) == (1, "")
        assert err == f"usage error: enumerate {what[0]} prints json only\n"

    def test_markdown_is_not_a_choice(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "special", "--n", "2",
                                "--kind", "one", "--format", "markdown")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: argument --format: invalid choice")

    def test_refused_by_default(self, capsys):
        code, _, err = invoke(capsys, "enumerate", "automorphisms", "--n", "5")
        assert code == 1 and "exceeds the budget" in err
        code, _, err = invoke(capsys, "enumerate", "preserving", "--n", "7")
        assert code == 1 and "exceeds the budget" in err

    def test_deterministic_output(self, capsys):
        _, first, _ = invoke(capsys, "enumerate", "preserving", "--n", "3")
        _, second, _ = invoke(capsys, "enumerate", "preserving", "--n", "3")
        assert first == second

    def test_preserving_listing_is_streamed(self):
        # 576 rows, 125 KB of JSON, printed one row at a time
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = cli.run(["enumerate", "preserving", "--n", "4"])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 1 << 20

    @pytest.mark.parametrize("what, walk, key, count", [
        ("preserving", "enumerate_preserving_involutions", "involutions", 6),
        ("automorphisms", "enumerate_automorphisms", "automorphisms", 8),
    ])
    def test_a_dropped_map_exits_two(self, capsys, monkeypatch, what, walk, key,
                                     count):
        # the count is printed first, from the closed form, so a walk that
        # falls short is caught only after stdout is written
        full = getattr(cli, walk)
        monkeypatch.setattr(cli, walk, lambda n: itertools.islice(full(n), 1, None))
        code, out, err = invoke(capsys, "enumerate", what, "--n", "2")
        assert code == 2
        assert err == (f'error: printed {count - 1} items under "count": '
                       f"{count}; stdout is wrong\n")
        payload = json.loads(out)
        assert payload["count"] == count
        assert len(payload[key]) == count - 1

    def test_domain_error_prints_nothing(self, capsys):
        code, out, err = invoke(capsys, "enumerate", "r-involutions", "--n", "2",
                                "--r", "0")
        assert (code, out, err) == (1, "", "error: r must be at least 1\n")


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

    def test_permutation_text_from_file(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {"i1": "1"}})
        perm = tmp_path / "perm.txt"
        perm.write_text("4,1,-3,2\n", encoding="utf-8")
        by_text = invoke(capsys, "apply", "--n", "3", "--perm", "4,1,-3,2", "--input", path)
        for spelling in (("--perm", f"@{perm}"), (f"--perm=@{perm}",)):
            assert invoke(capsys, "apply", "--n", "3", *spelling, "--input", path) == by_text

    def test_two_spellings_of_one_unit(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 2, "coeffs": {"i1*i2": "1",
                                                                 "i2*i1": "5"}})
        code, out, err = invoke(capsys, "apply", "--n", "2", "--perm", "1,2",
                                "--input", path)
        assert (code, out) == (1, "")
        assert err == ("error: unit names 'i1*i2' and 'i2*i1' are the same "
                       "unit\n")

    def test_missing_permutation_file(self, capsys, tmp_path):
        path = self.write_element(tmp_path, {"n": 3, "coeffs": {}})
        code, out, err = invoke(capsys, "apply", "--n", "3",
                                "--perm", f"@{tmp_path / 'nope.txt'}", "--input", path)
        assert (code, out) == (1, "") and err.startswith("error:")

    def test_largest_admitted_order_as_a_process(self, capsys, tmp_path):
        # the n = 16 text is too long for one argument; @path carries it
        n = 16
        rng = random.Random(16)
        images = [j if rng.random() < 0.5 else -j for j in range(1, (1 << (n - 1)) + 1)]
        rng.shuffle(images)
        text = ",".join(map(str, images))
        perm = tmp_path / "perm.txt"
        perm.write_text(text, encoding="utf-8")
        path = self.write_element(tmp_path, {"n": n, "coeffs": {
            unit_name(m): str(rng.randint(-3, 3)) for m in range(1 << n)}})
        code, expected, _ = invoke(capsys, "apply", "--n", str(n), "--perm", text,
                                   "--input", path)
        assert code == 0
        proc = subprocess.run(
            [sys.executable, "-m", "multicomplex.cli", "apply", "--n", str(n),
             "--perm", f"@{perm}", "--input", path],
            capture_output=True, text=True, env=child_env(), timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == expected

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


    def test_deeply_nested_json(self, capsys, tmp_path):
        # json gives up with a RecursionError, which must not escape run()
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = invoke(
            capsys, "apply", "--n", "2", "--perm", "1,2", "--input", str(path)
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_bool_order_is_not_an_integer(self, capsys, tmp_path, n):
        # true == 1 in Python, but JSON true is no ring order
        path = self.write_element(tmp_path, {"n": True, "coeffs": {}})
        code, _, err = invoke(
            capsys, "apply", "--n", n, "--perm", "1", "--input", path
        )
        assert code == 1
        assert err == "error: field 'n' must be an integer\n"


# sha256 of stdout, pinned before the preserving generator moved to one
# GF(2) solve per unit block and the special-set identities to row order;
# verify --suite preserving (and all) for n <= 4 re-pinned when the suite
# gained its "brute" field
PINNED_STDOUT = [
    (("enumerate", "preserving", "--n", "1"),
     "a713caa109a0fda9d4ecd0372dfdacd0a179585442bd61a121b997b035d98b08"),
    (("enumerate", "preserving", "--n", "2"),
     "fcdad5e44b71eb4d2c1e55d7165275b9c07160715406490110865aaefd857bfd"),
    (("enumerate", "preserving", "--n", "3"),
     "1dfad5b0cf6857eefd6774678f542615c40e58b1d8db7b2a922d4d7a4a0a6faf"),
    (("enumerate", "preserving", "--n", "4"),
     "38d5fef84f3d2ef36ecffceb22272dcbffc435dd118f9c27f23a2053811d47bf"),
    (("enumerate", "preserving", "--n", "5"),
     "a6dc694d8005bd9a72cb671321bb3aeaac4685d2395d3142accc5890f23a8ae9"),
    (("verify", "--suite", "automorphisms", "--n", "1"),
     "cb873d59337907b4236b38bb3b4df7eae48e13dfe5c50d46efc0f6bbeb1b491f"),
    (("verify", "--suite", "automorphisms", "--n", "2"),
     "58a4526ceb84d38251cf670f93a943123c0a4b70b4493bd9bfa38657e4e71ee5"),
    (("verify", "--suite", "automorphisms", "--n", "3"),
     "fb5b3e7012b700996a4ff2c02dff453e37aa829d6e4bef85fb954ab521bf9554"),
    (("verify", "--suite", "preserving", "--n", "1"),
     "ad1e370a033b6b57fe5f8d7d6db4a7992efacd451bb819e0409847b58441ef39"),
    (("verify", "--suite", "preserving", "--n", "2"),
     "c6d4321a0fa16ca732cd9d5d93ea2a67d0b29ba2cd793408b89ae190af5bd76c"),
    (("verify", "--suite", "preserving", "--n", "3"),
     "652181a62948b2e0996e6cef5ebcf35c498a6eceb7bb9e603244cb9a3c095121"),
    (("verify", "--suite", "preserving", "--n", "4"),
     "2586b1983b550907dfddb240251f33718b0783a1dd127a39d14992d9d983183d"),
    (("verify", "--suite", "preserving", "--n", "5"),
     "29bbb15b8badf67fae7adeaa68277da1684fbb977bdc0cb022cd3811841808eb"),
    (("verify", "--suite", "special", "--n", "1"),
     "306e92a9b271b0970df5ffb6a9a24eef1bb0c4c40815f1f350a554294fad924a"),
    (("verify", "--suite", "special", "--n", "2"),
     "4f63e5da82731e0b9a154e3304ef69829e6e41163308b27a9e794b896a4fea2b"),
    (("verify", "--suite", "special", "--n", "3"),
     "7391e9934f2e8ef6eb4dc905f88c25c33577ec71443ac44cc359c801acfc14ca"),
    (("verify", "--suite", "special", "--n", "4"),
     "b8b6b20a0d0623330ed4ad51c7a32dc62aa489fc30407df97dbbd27e8a990f70"),
    (("verify", "--suite", "special", "--n", "5"),
     "c864b499583fe5fecd2a7186f54511b357c2e19ca2becf20243e7f87980b9dcd"),
    (("verify", "--suite", "involutions", "--n", "1"),
     "f708321be67a5ddd162fa612cbf7cc881ae38ef4faabe4688bb2af864763824f"),
    (("verify", "--suite", "involutions", "--n", "2"),
     "35192fa7aefbddb63bc25e6e8c15c05fbe78901576e10e48c9420bea8ce73c20"),
    (("verify", "--suite", "involutions", "--n", "3"),
     "54f22836b572e2b2b13321c03d574476e92a3068221a812d95dc450f10330417"),
    (("verify", "--suite", "involutions", "--n", "4"),
     "7f3e96de053e148c8c19d476eef7b87a19b5a85a0237d9755d963c2863158f02"),
    (("verify", "--suite", "r-involutions", "--n", "4", "--r", "3"),
     "57efae2cea53d8d5b68f19bea63e36485e35895d0cc0e869f3e563a091ad5a39"),
    (("verify", "--suite", "r-involutions", "--n", "4", "--r", "4"),
     "54008aba435ef777fd781208570aabd6abbd406a6f0cdbbb911138014e80fcff"),
    (("verify", "--suite", "r-involutions", "--n", "4", "--r", "6"),
     "9c281bc614d6460157fbacefc67d939819eada59c32e792a8659cf41364587cd"),
    (("verify", "--suite", "all", "--n", "3"),
     "599627e56fa72860698cf53c30e87e390a932c4fed0c7db30654efbc1cba4425"),
    # pinned while every listing was still built whole before printing
    (("enumerate", "automorphisms", "--n", "1"),
     "0083cba1b49ce54df03308f1e1971830cdd54e3a87376e8db1eac5e09f2ad09f"),
    (("enumerate", "automorphisms", "--n", "2"),
     "30eff5e6c6a37ec052ffb9410e1e3e1547d8bc88462f341a43f54387d0e6ed96"),
    (("enumerate", "automorphisms", "--n", "3"),
     "d2dd47e579f62e0dfe88f52ae259ea23c1c6ce60bb132802dda2c9d00f811652"),
    (("enumerate", "involutions", "--n", "3"),
     "de8535bdd4b642632d7537f5a9980925a3d6116f801f2883d54a2bae0d239ef1"),
    (("enumerate", "r-involutions", "--n", "3", "--r", "4"),
     "0b8e1340763ad77f8d3e5e44b49dda894254e1ea2c8325d2eb8a83b5176c5d6b"),
    (("enumerate", "special", "--n", "1", "--kind", "minus-one"),
     "bdf1fbc920d6541ab269238fb24705062fc50a9bba9e880c2457764ce7b01e7f"),
    (("enumerate", "special", "--n", "1", "--kind", "one"),
     "68df46e8636acf5549da05bf8cd29d4e45b72b948e6ade693f6947220a1990f8"),
    (("enumerate", "special", "--n", "1", "--kind", "idempotent"),
     "e5a15989c1408670f50e161d95043cc776d29222208f0ce63bcf71e6cfa79e3d"),
    (("enumerate", "special", "--n", "4", "--kind", "minus-one"),
     "569815b93eeb6483b58d9c4814d4b7c561c3dc232c48d50c309f8f8ece317e1c"),
    (("enumerate", "special", "--n", "4", "--kind", "one"),
     "dfe89b6df8909fecc726737645c6b8ed9b9d52a0138febbeef5c331ebf2b9b16"),
    (("enumerate", "special", "--n", "4", "--kind", "idempotent"),
     "13832ae8e68f563e96f115ee50b51b9414f57bbd3058801af763e1aeba24ff7b"),
    (("enumerate", "special", "--n", "1", "--kind", "minus-one", "--format", "csv"),
     "ba5826abc843dcb5429327345776747cf063e5b71751b88d3fbde6940552a762"),
    (("enumerate", "special", "--n", "1", "--kind", "one", "--format", "csv"),
     "14e66f077335f6d5e2735c0ec7c2e5c6d3df095837f03a0a0ff55ae318d85f84"),
    (("enumerate", "special", "--n", "1", "--kind", "idempotent", "--format", "csv"),
     "fa49769171995135a3a9359c9346016a53f2213ea6fd2efeea1f86ef5d354083"),
    (("enumerate", "special", "--n", "4", "--kind", "minus-one", "--format", "csv"),
     "a82de577e1d81501694e9a60180ef26d9f300ac6631b1ce3dffa8e488e03f169"),
    (("enumerate", "special", "--n", "4", "--kind", "one", "--format", "csv"),
     "2ea016ae06988d0c130ec9ac489addaac4fc184a1e19bd02f3f1e8020162e785"),
    (("enumerate", "special", "--n", "4", "--kind", "idempotent", "--format", "csv"),
     "e08542b70578e809081ca0b9e7724cd3ccb16dfd253b2fd76f0273704dd26d87"),
    (("table", "--format", "csv"),
     "08fb07feccc030be3dc45c73a251ea75ac3442dc0e0622c3209e0facc2256899"),
    (("table", "--max-n", "9", "--format", "csv"),
     "065e5ccb681051b9fec9ea2ebeb69caaac87f48eb200dbe4afd5878cf0ed2d12"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT)
def test_pinned_stdout(capsys, argv, digest):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        assert payload["count"] == payload["expected"] == payload["brute"] == 44

    def test_preserving_brute_count_is_checked(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "brute_count_preserving", lambda n: 45)
        code, out, _ = invoke(capsys, "verify", "--suite", "preserving",
                              "--n", "3")
        assert code == 2
        payload = json.loads(out)["suites"]["preserving"]
        assert payload == {"ok": False, "count": 44, "expected": 44,
                           "all_involutions": True, "brute": 45}

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

    @pytest.mark.parametrize("env,what", [
        ("csv", ("preserving",)),
        ("markdown", ("preserving",)),
        ("markdown", ("special", "--kind", "one")),
    ])
    def test_enumerate_falls_back_to_json(self, capsys, monkeypatch, env, what):
        # the environment sets a default, which a kind that cannot print it
        # replaces by json
        argv = ("enumerate", *what, "--n", "2")
        json_out = invoke(capsys, *argv, "--format", "json")[1]
        monkeypatch.setenv(cli.FORMAT_ENV, env)
        assert invoke(capsys, *argv) == (0, json_out, "")

    def test_environment_csv_reaches_enumerate_special(self, capsys, monkeypatch):
        argv = ("enumerate", "special", "--n", "2", "--kind", "idempotent")
        csv_out = invoke(capsys, *argv, "--format", "csv")[1]
        monkeypatch.setenv(cli.FORMAT_ENV, "csv")
        assert invoke(capsys, *argv) == (0, csv_out, "")

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
        ("verify", "--suite", "r-involutions", "--n", "4", "--r", "60"),
        ("verify", "--suite", "special", "--n", "5"),
        ("verify", "--suite", "automorphisms", "--n", "3"),
        ("verify", "--suite", "preserving", "--n", "5"),
        ("enumerate", "automorphisms", "--n", "3"),
        ("enumerate", "preserving", "--n", "5"),
        ("enumerate", "special", "--n", "4", "--kind", "one"),
        ("apply", "--n", "5", "--perm", "1", "--input", "unread.json"),
        ("verify", "--suite", "preserving", "--n", "6"),
    ])
    def test_admitted_by_default(self, argv):
        assert 1 <= estimate(*argv) <= cli.DEFAULT_BUDGET

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "automorphisms", "--n", "4"),
        ("verify", "--suite", "all", "--n", "4"),
        ("verify", "--suite", "preserving", "--n", "7"),
        ("enumerate", "automorphisms", "--n", "4"),
        ("verify", "--suite", "r-involutions", "--n", "3", "--r", "1000000"),
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
        ("enumerate", "preserving", "--n", "6"),
    ])
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        for name in ("_cmd_count", "_cmd_enumerate", "_cmd_apply", "_cmd_verify", "_cmd_table"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("dispatched"))
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: estimated work \S+ operations exceeds the budget "
                            r"\S+; raise --budget to run it\n", err)

    @pytest.mark.parametrize("argv", [
        ("verify", "--suite", "all", "--n", "3", "--r", "-1"),
        ("verify", "--suite", "r-involutions", "--n", "3", "--r", "0"),
        ("count", "r-involutions", "--n", "3", "--r", "0"),
        ("count", "signed-r-involutions", "--N-symbols", "5", "--r", "-1"),
        ("enumerate", "r-involutions", "--n", "2", "--r", "0"),
    ])
    def test_non_positive_r_refused_before_any_work(self, capsys, monkeypatch, argv):
        for name in ("_cmd_count", "_cmd_enumerate", "_cmd_apply", "_cmd_verify", "_cmd_table"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("dispatched"))
        assert invoke(capsys, *argv) == (1, "", "error: r must be at least 1\n")

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


def test_readme_quick_start(capsys):
    """The Quick start block prints what its comments say, line by line."""
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    shown = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("#")[2] or lines[i + 1].partition("#")[2]
            shown.append(comment.strip())
    assert len(shown) == 5
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == shown


def test_count_table_apply_load_neither_numpy_nor_mpmath(tmp_path):
    element = tmp_path / "i1.json"
    element.write_text('{"n": 3, "coeffs": {"i1": "1"}}', encoding="utf-8")
    script = f"""
import contextlib, io, json, sys
from multicomplex import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["count", "involutions", "--n", "4"]),
             cli.run(["table", "--max-n", "3"]),
             cli.run(["apply", "--n", "3", "--perm", "4,1,-3,2",
                      "--input", {str(element)!r}]),
             cli.run(["enumerate", "preserving", "--n", "3"]),
             cli.run(["verify", "--suite", "preserving", "--n", "3"]),
             cli.run(["verify", "--suite", "automorphisms", "--n", "2"])]
print(json.dumps([codes, [m for m in ("numpy", "mpmath") if m in sys.modules]]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0, 0, 0], []]
