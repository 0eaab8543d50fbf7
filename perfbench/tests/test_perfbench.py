"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import mc  # noqa: E402


# ---- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_totals_by_name(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    root = tracer.open("op")            # t=0
    inner = tracer.open("mul")          # t=1
    tracer.close(inner)                 # t=2
    inner = tracer.open("mul")          # t=3
    leaf = tracer.open("add")           # t=4
    tracer.close(leaf)                  # t=5
    tracer.close(inner)                 # t=6
    tracer.close(root)                  # t=7
    assert list(tracer.parent) == [-1, 0, 0, 2]
    # op: 7 - 1 - 3; mul: 1 + (3 - 1); add: 1
    assert tracer.layer_totals() == {"op": (1, 3.0), "mul": (2, 3.0), "add": (1, 1.0)}


def test_installed_patches_every_binding_and_restores_it():
    from multicomplex import automorphism, idempotent, oracle
    original = idempotent.to_idempotent
    tracer = tracing.Tracer()
    with tracer.installed():
        assert automorphism.to_idempotent is idempotent.to_idempotent is mc.to_idempotent
        assert oracle.to_idempotent is not original
        mc.Automorphism.identity(3).apply(mc.MulticomplexNumber.one(3))
    assert automorphism.to_idempotent is original and mc.to_idempotent is original
    assert tracing.layer_metrics(tracer, ["idempotent.to_idempotent.calls",
                                          "automorphism.apply.calls"], 1) == {
        "idempotent.to_idempotent.calls": 1, "automorphism.apply.calls": 1}


# ---- percentiles -------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile([4, 1, 3, 2], 0.5) == 2


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 0.9) == 10
    assert stats.samples_beyond(99, 0.9) == 9
    assert stats.tail_percentile(list(range(100)), 0.9) == 89
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(99)), 0.9)


def test_spread_uses_statistics_quartiles():
    med, q1, q3, rel = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


# ---- seeded inputs ---------------------------------------------------------


@pytest.mark.parametrize("name", ["ring_dense", "census", "counts", "cli"])
def test_same_seed_same_inputs(name):
    first, second = workloads.build(name, 7, tiny=True), workloads.build(name, 7, tiny=True)
    try:
        assert first.digest == second.digest
        assert [op.key for op in first.ops] == [op.key for op in second.ops]
    finally:
        first.close()
        second.close()


@pytest.mark.parametrize("name", ["ring_dense", "census"])
def test_other_seed_other_inputs(name):
    assert workloads.build(name, 7, tiny=True).digest != workloads.build(name, 8, tiny=True).digest


def test_counts_seed_changes_only_the_order():
    a, b = workloads.build("counts", 7), workloads.build("counts", 8)
    assert a.digest == b.digest and [op.key for op in a.ops] == [op.key for op in b.ops]
    assert a.pass_order() != b.pass_order()
    assert a.pass_order() != a.pass_order()


def test_same_seed_same_pass_orders():
    a, b = workloads.build("counts", 7), workloads.build("counts", 7)
    assert [a.pass_order() for _ in range(3)] == [b.pass_order() for _ in range(3)]


# ---- the product reference -------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reference_product_agrees_with_library(n):
    rng = random.Random(n)
    scale = workloads.OPERAND_SCALE
    for _ in range(5):
        a, b = workloads.dense_element(rng, n), workloads.dense_element(rng, n)
        expected = workloads.scaled_coefficients(a * b, 2 * scale)
        assert workloads.reference_product(workloads.scaled_coefficients(a, scale),
                                           workloads.scaled_coefficients(b, scale)) == expected


def test_ring_check_rejects_a_wrong_product():
    rng = random.Random(0)
    a, b = workloads.dense_element(rng, 3), workloads.dense_element(rng, 3)
    f, g = workloads.random_automorphism(rng, 3), workloads.random_automorphism(rng, 3)
    out = workloads._ring_op(a, b, f, g)
    assert workloads._ring_check(a, b, f, out) is None
    product = out[0]
    off_by_one = mc.MulticomplexNumber(3, [product.coeffs[0] + 1, *product.coeffs[1:]])
    assert "reference" in workloads._ring_check(a, b, f, (off_by_one, *out[1:]))


# ---- smoke runs ------------------------------------------------------------


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["ring_dense", "census", "counts", "cli"])
def test_tiny_run(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "OUT", tmp_path)  # keep perfbench/out for real runs
    record = run.run_one(name, 3, 0.01, trace, tiny=True, probes=1)
    result = record["result"]
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in run.SPEC[kind]}
    assert all(m["value"] >= 0 for m in result["metrics"].values())
    assert result["correct"], record["failures"]
    if not trace:
        assert record["samples"]["op_p90_ms"] >= 100
    # the cli mix holds two known failures (count automorphisms --n 12) a pass
    known = 2 * result["attempted"] // record["ops_per_pass"] if name == "cli" else 0
    assert result["failed"] == known, record["failures"]
