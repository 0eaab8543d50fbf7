"""The package's public names, and the names the benchmark harness reaches.

The public surface is written once, as the modules' __all__ lists; this
pins it, so that adding or deleting a public name is a visible change.  The
harness in perfbench/ wraps library functions by module and attribute name;
resolving those names here makes a deleted or renamed traced function fail
this suite, not only a traced benchmark run.
"""
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import multicomplex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = {
    # mc_core
    "DyadicRational", "MulticomplexNumber", "unit_product", "unit_name",
    "parse_unit_name",
    # idempotent
    "ComplexComponent", "IdempotentVector", "basis_element", "to_idempotent",
    "from_idempotent", "componentwise_mul",
    # special_elements
    "SpecialSetKind", "enumerate_special", "special_element_for_pattern",
    "u_times", "idempotent_from_h", "is_plus_minus_elementary",
    # automorphism
    "SignedPermutation", "Automorphism", "enumerate_automorphisms",
    "enumerate_r_involutions",
    # counting
    "count_automorphisms", "count_involutions", "count_signed_involutions",
    "g_sequence", "count_p_involutions", "count_r_involutions",
    "count_signed_r_involutions", "count_preserving",
    "count_subspaces_containing_all_ones", "count_independent_image_tuples",
    "asymptotic_estimate", "cycle_types_with_parts_dividing",
    # gf2_preserving
    "GF2Matrix", "GF2Subspace", "solve", "enumerate_subspaces_containing_e",
    "enumerate_preserving_involutions", "unit_images_to_automorphism",
    # oracle
    "VerificationReport", "brute_count_preserving",
    "brute_count_r_involutions", "brute_count_signed_involutions",
    "verify_homomorphism", "verify_special_sets",
    # the package itself
    "BudgetExceeded",
}


def load_tracing():
    """perfbench/tracing.py as a module, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    old, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = old
    return module


def test_public_names_are_pinned():
    assert len(multicomplex.__all__) == len(PUBLIC)
    assert set(multicomplex.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in multicomplex.__all__
            if not hasattr(multicomplex, name)] == []


@pytest.mark.parametrize("module_name,path,stem,kind", load_tracing().TARGETS)
def test_traced_name_resolves(module_name, path, stem, kind):
    owner = importlib.import_module(f"multicomplex.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer swaps the binding it finds in the owner's own namespace
    assert attr in vars(owner), (module_name, path)


def test_names_the_harness_uses_resolve():
    used = set()
    for source in PERFBENCH.glob("*.py"):
        used |= set(re.findall(r"\bmc\.([A-Za-z]\w*)", source.read_text()))
    assert used
    assert used <= PUBLIC, used - PUBLIC
