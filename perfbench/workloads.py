"""The four benchmark workloads: seeded inputs, the op list of one pass, and
the output checks.

Every workload is closed loop with one caller: the next op starts when the
previous one has returned.  Inputs come only from the seed.  Op functions
look library functions up at call time, so the traced run's wrappers see
every call.  See README.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import multicomplex as mc  # noqa: E402
from multicomplex import cli as mc_cli  # noqa: E402

if Path(mc.__file__).resolve().parent != SRC / "multicomplex":
    raise ImportError(f"multicomplex imported from {mc.__file__}, not from {SRC}")

CHILD_TIMEOUT_S = 60


class OpFailed(Exception):
    """An op that produced no output: a non-zero exit or a timeout."""


@dataclass
class Op:
    key: object
    kind: str
    run: Callable[[], object]
    # returns a message when the output is wrong, None when it is right
    check: Callable[[object], str | None]
    # the same op without a child process, for the traced run
    inprocess: Callable[[], object] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    digest: str
    # span and counter totals one traced pass must show exactly
    coverage: dict[str, int]
    begin_pass: Callable[[], None] = lambda: None
    # cross-op checks: (op key, message) for each wrong output
    check_pass: Callable[[dict], list[tuple[object, str]]] = lambda results: []
    children: "ChildStats | None" = None
    close: Callable[[], None] = lambda: None
    # draws a fresh op order for every pass, so that per-op medians average
    # over predecessors rather than keep one order's cache and heap effects
    order: random.Random = field(default_factory=random.Random)

    def pass_order(self) -> list[int]:
        order = list(range(len(self.ops)))
        self.order.shuffle(order)
        return order


def _digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _library(name: str, *args):
    return getattr(mc, name)(*args)


def signed_permutation_count(N: int) -> int:
    """|B_N| = 2^N * N!, the automorphism count of MC(n) for N = 2^(n-1)."""
    return (1 << N) * math.factorial(N)


def random_automorphism(rng: random.Random, n: int) -> "mc.Automorphism":
    N = 1 << (n - 1)
    images = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, N + 1), N)]
    return mc.Automorphism(n, mc.SignedPermutation(images))


def dense_element(rng: random.Random, n: int) -> "mc.MulticomplexNumber":
    """All 2^n coefficients non-zero dyadics p/2^e with 1 <= |p| <= 15, e <= 3."""
    return mc.MulticomplexNumber(n, [
        mc.DyadicRational(rng.choice((-1, 1)) * rng.randint(1, 15), rng.randint(0, 3))
        for _ in range(1 << n)
    ])


# ---------------------------------------------------------------------------
# ring_dense


# operands carry denominators up to 2^3, so products up to 2^6
OPERAND_SCALE = 3


def scaled_coefficients(x: "mc.MulticomplexNumber", exp: int) -> list[int] | None:
    """Coefficients times 2^exp as integers, or None if one is finer."""
    out = []
    for c in x.coeffs:
        if c.exp > exp:
            return None
        out.append(c.num << (exp - c.exp))
    return out


@functools.lru_cache(maxsize=None)
def _convolution_tables(width: int) -> tuple[np.ndarray, np.ndarray]:
    mask = np.arange(width, dtype=np.int64)
    partner = mask[:, None] ^ mask[None, :]  # row c, column a: the b with a ^ b = c
    overlap = mask[None, :] & partner
    parity = np.zeros_like(overlap)
    for k in range(width.bit_length()):
        parity ^= (overlap >> k) & 1
    return partner, 1 - 2 * parity


def reference_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient vectors of MC(n) by the direct
    convolution e_a * e_b = (-1)^popcount(a & b) * e_(a xor b), in int64.

    Written here, apart from the library, so that the benchmark's check of
    the ring product does not trust the code it measures.
    """
    width = len(a)
    if len(b) != width or width & (width - 1):
        raise ValueError("operands must have the same power-of-two length")
    if width * max(map(abs, a)) * max(map(abs, b)) >= 1 << 62:
        raise OverflowError("coefficients too large for the int64 reference")
    partner, sign = _convolution_tables(width)
    av = np.array(a, dtype=np.int64)
    bv = np.array(b, dtype=np.int64)
    return (sign * av[None, :] * bv[partner]).sum(axis=1).tolist()


def _ring_op(a, b, f, g):
    product = a * b
    ia, ib = mc.to_idempotent(a), mc.to_idempotent(b)
    via_transform = mc.from_idempotent(mc.componentwise_mul(ia, ib))
    image = f.apply(a)
    order = f.compose(g).element_order()
    return product, via_transform, ia, image, order


def _ring_check(a, b, f, out) -> str | None:
    product, via_transform, ia, image, _ = out
    expected = reference_product(scaled_coefficients(a, OPERAND_SCALE),
                                 scaled_coefficients(b, OPERAND_SCALE))
    if scaled_coefficients(product, 2 * OPERAND_SCALE) != expected:
        return "a*b differs from the scaled-integer reference"
    if via_transform != product:
        return "the idempotent route differs from a*b"
    if mc.from_idempotent(ia) != a:
        return "from_idempotent(to_idempotent(a)) != a"
    if f.inverse().apply(image) != a:
        return "f.inverse().apply(f.apply(a)) != a"
    return None


def ring_dense(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    orders, per_order = ((2, 3), 50) if tiny else ((6, 7, 8), 34)
    # a fixed number of ops per order, so every seed does the same work
    sizes = [n for n in orders for _ in range(per_order)]
    ops, lines = [], []
    for i, n in enumerate(sizes):
        a, b = dense_element(rng, n), dense_element(rng, n)
        f, g = random_automorphism(rng, n), random_automorphism(rng, n)
        lines.append(f"{a.dumps()} {b.dumps()} {f.perm.to_text()} {g.perm.to_text()}")
        ops.append(Op(i, f"n={n}", functools.partial(_ring_op, a, b, f, g),
                      functools.partial(_ring_check, a, b, f)))
    _ring_op(dense_element(rng, 3), dense_element(rng, 3),
             random_automorphism(rng, 3), random_automorphism(rng, 3))  # warm-up
    k = len(ops)
    return Workload("ring_dense", ops, _digest(lines), coverage={
        "mc_core.mul.calls": k,
        "idempotent.to_idempotent.calls": 3 * k,  # two operands, one in apply
        "idempotent.from_idempotent.calls": 2 * k,
        "idempotent.componentwise_mul.calls": k,
        "automorphism.apply.calls": k,
        "automorphism.element_order.calls": k,
    })


# ---------------------------------------------------------------------------
# census


def _report_ok(out) -> str | None:
    report = out[1] if isinstance(out, tuple) else out
    return None if report.ok else f"verification failed: {report!r}"


def _verify_nth(state, i: int):
    f = state.autos[i]
    return f, mc.verify_homomorphism(f)


def _verify(f):
    return f, mc.verify_homomorphism(f)


def _preserving_suite(n: int) -> tuple[int, bool]:
    count, involutions = 0, True
    for _, auto in mc.enumerate_preserving_involutions(n):
        count += 1
        involutions = involutions and auto.is_involution()
    return count, involutions


def _check_preserving(n: int, out) -> str | None:
    count, involutions = out
    if count != mc.count_preserving(n):
        return f"{count} preserving maps, count_preserving({n}) = {mc.count_preserving(n)}"
    return None if involutions else "a preserving map is not an involution"


def _check_brute(n: int, r: int, out) -> str | None:
    formula = mc.count_r_involutions(n, r)
    return None if out == formula else f"brute {out} != formula {formula}"


def census(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    n_all, n_sample, sample_size = (2, 3, 80) if tiny else (3, 4, 12)
    n_suites = 3 if tiny else 5
    brute_n = 3 if tiny else 4
    total = signed_permutation_count(1 << (n_all - 1))
    state = SimpleNamespace(autos=[])

    def begin_pass():
        state.autos = list(mc.enumerate_automorphisms(n_all))

    def check_pass(results):
        if len(set(state.autos)) != total:
            return [(("all", 0), f"{len(set(state.autos))} distinct maps of MC({n_all}), "
                                 f"expected {total}")]
        return []

    sample, lines = [], []
    while len(sample) < sample_size:
        f = random_automorphism(rng, n_sample)
        if f not in sample:
            sample.append(f)
            lines.append(f.perm.to_text())
    ops = [Op(("all", i), f"verify n={n_all}", functools.partial(_verify_nth, state, i),
              _report_ok) for i in range(total)]
    ops += [Op(("sample", f.perm.images), f"verify n={n_sample}",
               functools.partial(_verify, f), _report_ok) for f in sample]
    ops.append(Op("special", "special",
                  functools.partial(_library, "verify_special_sets", n_suites), _report_ok))
    ops.append(Op("preserving", "preserving",
                  functools.partial(_preserving_suite, n_suites),
                  functools.partial(_check_preserving, n_suites)))
    ops += [Op(("brute", n, r), "brute",
               functools.partial(_library, "brute_count_r_involutions", n, r),
               functools.partial(_check_brute, n, r))
            for n in range(1, brute_n + 1) for r in (2, 3, 4, 6)]
    mc.verify_homomorphism(mc.Automorphism.identity(2))  # warm-up
    return Workload("census", ops, _digest(lines), coverage={
        "automorphism.enumerate_automorphisms.items": total,
        "oracle.verify_homomorphism.calls": total + sample_size,
        "gf2_preserving.enumerate_preserving_involutions.items": mc.count_preserving(n_suites),
        "oracle.brute_count_r_involutions.calls": 4 * brute_n,
    }, begin_pass=begin_pass, check_pass=check_pass)


# ---------------------------------------------------------------------------
# counts

R_VALUES = (2, 3, 4, 5, 6, 12, 60)
# count_r_involutions(8, 60) takes 72 s at commit 0802274, more than a run
TOO_SLOW = {("count_r_involutions", 8, 60)}


def _check_count(key, out) -> str | None:
    name, n, *rest = key
    if name == "count_automorphisms":
        expected = signed_permutation_count(1 << (n - 1))
    elif name == "count_r_involutions" and rest[0] in (3, 5):
        expected = mc.count_p_involutions(n, rest[0])
    else:
        return None
    return None if out == expected else f"{key} gave a value other than {name} expects"


def counts(seed: int, tiny: bool = False) -> Workload:
    top_inv, top, top_r = (8, 16, 6) if tiny else (13, 16, 8)
    grid = [("count_involutions", n) for n in range(1, top_inv + 1)]
    grid += [("g_sequence", 1 << (n - 1)) for n in range(1, top_inv + 1)]
    grid += [(name, n) for name in ("count_automorphisms", "count_preserving",
                                    "asymptotic_estimate") for n in range(1, top + 1)]
    grid += [("count_r_involutions", n, r) for n in range(1, top_r + 1) for r in R_VALUES
             if ("count_r_involutions", n, r) not in TOO_SLOW]
    # the seed orders the calls (in every pass) and nothing else, so every
    # seed costs the same
    ops = [Op(key, key[0], functools.partial(_library, *key),
              functools.partial(_check_count, key)) for key in grid]

    def check_pass(results):
        wrong = []
        for n in range(1, top_inv + 1):
            inv = results.get(("count_involutions", n))
            g = results.get(("g_sequence", 1 << (n - 1)))
            if inv is not None and g is not None and inv != g:
                wrong.append((("count_involutions", n), "differs from g_sequence(2^(n-1))"))
            r2 = results.get(("count_r_involutions", n, 2))
            if inv is not None and r2 is not None and inv != r2:
                wrong.append((("count_r_involutions", n, 2), "differs from count_involutions"))
        return wrong

    mc.count_involutions(2), mc.count_r_involutions(2, 2), mc.asymptotic_estimate(2)  # warm-up
    per_name = {}
    for key in grid:
        per_name[key[0]] = per_name.get(key[0], 0) + 1
    return Workload("counts", ops, _digest([repr(key) for key in grid]), coverage={
        f"counting.{name}.calls": k for name, k in per_name.items()
    }, check_pass=check_pass)


# ---------------------------------------------------------------------------
# cli


@dataclass
class ChildStats:
    max_rss_kb: int = 0
    count: int = 0


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != mc_cli.FORMAT_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: Sequence[str], workdir: Path, stats: ChildStats | None,
              timeout: float = CHILD_TIMEOUT_S) -> str:
    """Run `python -m multicomplex.cli args`; return its stdout, or raise
    OpFailed on a non-zero exit or a timeout."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, "-m", "multicomplex.cli", *args],
                                stdout=out, stderr=err, cwd=ROOT, env=child_env())
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if stats is not None:
            stats.max_rss_kb = max(stats.max_rss_kb, usage.ru_maxrss)
            stats.count += 1
        if expired.is_set():
            raise OpFailed(f"timed out after {timeout} s")
        if proc.returncode != 0:
            err.seek(0)
            raise OpFailed(f"exit {proc.returncode}: {err.read().decode().strip()}")
        out.seek(0)
        return out.read().decode()


def run_inprocess(args: Sequence[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mc_cli.run(list(args))
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


@contextlib.contextmanager
def unlimited_int_digits():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


_COUNTS = {
    "automorphisms": "count_automorphisms",
    "involutions": "count_involutions",
    "preserving": "count_preserving",
    "r-involutions": "count_r_involutions",
    "signed-r-involutions": "count_signed_r_involutions",
}


def _expected_cli(args: tuple[str, ...]):
    """What the CLI should print for args, computed in-process: the text
    for `count`, the parsed JSON otherwise."""
    flags = [part for arg in args[2 if args[0] in ("count", "enumerate") else 1:]
             for part in arg.split("=", 1)]
    opts = dict(zip(flags[::2], flags[1::2]))
    if args[0] == "count":
        numbers = [int(opts[k]) for k in ("--n", "--N-symbols", "--r") if k in opts]
        with unlimited_int_digits():
            return str(getattr(mc, _COUNTS[args[1]])(*numbers))
    if args[0] == "table":
        return [{"n": k, "involutions": mc.count_involutions(k)}
                for k in range(1, int(opts["--max-n"]) + 1)]
    if args[0] == "apply":
        n = int(opts["--n"])
        eta = mc.MulticomplexNumber.loads(Path(opts["--input"]).read_text())
        return mc.Automorphism.from_text(n, opts["--perm"]).apply(eta).to_json_dict()
    if args[0] == "verify":
        n = int(opts["--n"])
        return {"n": n, "ok": True, "suites": {"special": mc.verify_special_sets(n).to_json_dict()}}
    n = int(opts["--n"])
    if args[1] == "special":
        kind = mc.SpecialSetKind(opts["--kind"])
        return {"n": n, "kind": kind.value,
                "elements": [x.to_json_dict() for x in mc.enumerate_special(kind, n)]}
    # enumerate preserving: the count and the maps, in emission order
    return mc.count_preserving(n), [auto.perm.to_json_dict()
                                    for _, auto in mc.enumerate_preserving_involutions(n)]


def _check_cli(args: tuple[str, ...], cache: dict, stdout: str) -> str | None:
    if args not in cache:
        cache[args] = _expected_cli(args)
    expected = cache[args]
    if args[0] == "count":
        got = stdout.strip()
    elif args[:2] == ("enumerate", "preserving"):
        data = json.loads(stdout)
        got = data["count"], [row["permutation"] for row in data["involutions"]]
    else:
        got = json.loads(stdout)
    return None if got == expected else f"stdout of {' '.join(args)} is not what the library gives"


def cli(seed: int, tiny: bool = False) -> Workload:
    """The full mix whether tiny or not: it is already small per call."""
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    small_r = (2, 3, 4, 6)
    count_kinds = [
        lambda: ("count", "involutions", "--n", str(rng.randint(1, 8))),
        lambda: ("count", "automorphisms", "--n", str(rng.randint(1, 8))),
        lambda: ("count", "preserving", "--n", str(rng.randint(1, 10))),
        lambda: ("count", "r-involutions", "--n", str(rng.randint(1, 5)),
                 "--r", str(rng.choice(small_r))),
        lambda: ("count", "signed-r-involutions", "--N-symbols", str(rng.randint(1, 16)),
                 "--r", str(rng.choice(small_r))),
    ]

    def apply_args(n):
        path = workdir / f"element-{rng.getrandbits(64):016x}.json"
        path.write_text(dense_element(rng, n).dumps())
        # "--perm=" form: a text starting with "-" would read as an option
        return ("apply", "--n", str(n), f"--perm={random_automorphism(rng, n).perm.to_text()}",
                "--input", str(path))

    # Fixed counts per subcommand and size, so every seed costs the same; the
    # seed draws the values.  Each maker gets the call's index in its class.
    mix = [
        (32, lambda i: count_kinds[i % 5]()),
        # prints a 6,567-digit number: Python's int-to-str limit makes the
        # CLI exit 1 at commit 0802274, a known failure the run keeps
        (2, lambda i: ("count", "automorphisms", "--n", "12")),
        (14, lambda i: ("table", "--max-n", str(1 + i % 8))),
        (24, lambda i: apply_args(3 + i % 3)),
        (12, lambda i: ("enumerate", "special", "--n", str(1 + i % 3),
                        "--kind", rng.choice(["minus-one", "one", "idempotent"]))),
        (10, lambda i: ("enumerate", "preserving", "--n", str(1 + i % 3))),
        (8, lambda i: ("verify", "--suite", "special", "--n", "3")),
    ]
    calls = [make(i) for k, make in mix for i in range(k)]
    stats, cache = ChildStats(), {}
    ops = [Op(i, args[0], functools.partial(run_child, args, workdir, stats),
              functools.partial(_check_cli, args, cache),
              inprocess=functools.partial(run_inprocess, args))
           for i, args in enumerate(calls)]
    lines = [" ".join(a if not a.startswith(str(workdir)) else Path(a).read_text()
                      for a in args) for args in calls]
    run_child(("count", "preserving", "--n", "2"), workdir, None)  # warm-up
    sizes = [(args[1], int(args[3])) for args in calls if args[0] == "enumerate"]
    coverage = {
        "special_elements.enumerate_special.items":
            sum(1 << (1 << (n - 1)) for what, n in sizes if what == "special"),
        "gf2_preserving.enumerate_preserving_involutions.items":
            sum(mc.count_preserving(n) for what, n in sizes if what == "preserving"),
    }
    return Workload("cli", ops, _digest(lines), coverage, children=stats,
                    close=lambda: shutil.rmtree(workdir, ignore_errors=True))


BUILDERS = {"ring_dense": ring_dense, "census": census, "counts": counts, "cli": cli}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    workload = BUILDERS[name](seed, tiny)
    workload.order.seed(f"order-{seed}")
    return workload


def clock() -> float:
    """CLOCK_MONOTONIC, which every process on the machine shares."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)
