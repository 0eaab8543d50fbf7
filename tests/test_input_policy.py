"""One input policy for every order, symbol count, power and exponent.

Each public entry point reads such an integer with operator.index and a
lower bound: a float is refused with a TypeError, a value below the bound
with a ValueError that names the argument, and a bool reads as the int it
equals, so True gives what 1 gives.
"""
import itertools

import pytest

from multicomplex import (
    Automorphism,
    DyadicRational,
    GF2Matrix,
    GF2Subspace,
    IdempotentVector,
    MulticomplexNumber,
    SignedPermutation,
    SpecialSetKind,
    asymptotic_estimate,
    basis_element,
    brute_count_preserving,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    count_automorphisms,
    count_independent_image_tuples,
    count_involutions,
    count_p_involutions,
    count_preserving,
    count_r_involutions,
    count_signed_involutions,
    count_signed_r_involutions,
    count_subspaces_containing_all_ones,
    cycle_types_with_parts_dividing,
    enumerate_automorphisms,
    enumerate_preserving_involutions,
    enumerate_r_involutions,
    enumerate_special,
    enumerate_subspaces_containing_e,
    g_sequence,
    special_element_for_pattern,
    unit_images_to_automorphism,
    verify_special_sets,
)

ONE = SpecialSetKind.SQUARE_ONE


def head(items):
    """The first few items of a lazy listing, which checks on first use."""
    return list(itertools.islice(items, 4))


# (entry point and the name its errors give the argument, the call with
# that argument set to v, a valid value, the least valid value)
CASES = [
    ("DyadicRational.exp", lambda v: DyadicRational(1, v), 1, 0),
    ("MulticomplexNumber.order", lambda v: MulticomplexNumber(v, [1, 2]), 1, 1),
    ("MulticomplexNumber.exp", lambda v: MulticomplexNumber(1, [1, 2], v), 1, 0),
    ("MulticomplexNumber.zero.order", MulticomplexNumber.zero, 1, 1),
    ("MulticomplexNumber.one.order", MulticomplexNumber.one, 1, 1),
    ("MulticomplexNumber.unit.order", lambda v: MulticomplexNumber.unit(1, v), 1, 1),
    ("MulticomplexNumber.generator.order",
     lambda v: MulticomplexNumber.generator(1, v), 1, 1),
    ("MulticomplexNumber.from_coeff_map.order",
     lambda v: MulticomplexNumber.from_coeff_map(v, {1: 2}), 1, 1),
    ("IdempotentVector.order", lambda v: IdempotentVector(v, [1, 2]), 1, 1),
    ("IdempotentVector.exp", lambda v: IdempotentVector(1, [1, 2], v), 1, 0),
    ("basis_element.order", lambda v: basis_element(0, v), 1, 1),
    ("special_element_for_pattern.n",
     lambda v: special_element_for_pattern(ONE, v, 1), 1, 1),
    ("enumerate_special.n", lambda v: head(enumerate_special(ONE, v)), 1, 1),
    ("SignedPermutation.identity.n", SignedPermutation.identity, 1, 0),
    ("Automorphism.n", lambda v: Automorphism(v, SignedPermutation([1])), 1, 1),
    ("Automorphism.identity.n", Automorphism.identity, 1, 1),
    ("Automorphism.from_text.n", lambda v: Automorphism.from_text(v, "-1"), 1, 1),
    ("enumerate_automorphisms.n", lambda v: head(enumerate_automorphisms(v)), 1, 1),
    ("enumerate_r_involutions.n",
     lambda v: head(enumerate_r_involutions(v, 2)), 1, 1),
    ("enumerate_r_involutions.r",
     lambda v: head(enumerate_r_involutions(2, v)), 1, 1),
    ("count_automorphisms.n", count_automorphisms, 1, 1),
    ("count_involutions.n", count_involutions, 1, 1),
    ("count_signed_involutions.N", count_signed_involutions, 1, 1),
    ("g_sequence.m", g_sequence, 1, 1),
    ("count_p_involutions.n", lambda v: count_p_involutions(v, 3), 1, 1),
    ("count_p_involutions.p", lambda v: count_p_involutions(3, v), 3, 3),
    ("count_r_involutions.n", lambda v: count_r_involutions(v, 2), 1, 1),
    ("count_r_involutions.r", lambda v: count_r_involutions(2, v), 1, 1),
    ("count_signed_r_involutions.N",
     lambda v: count_signed_r_involutions(v, 2), 1, 1),
    ("count_signed_r_involutions.r",
     lambda v: count_signed_r_involutions(2, v), 1, 1),
    ("count_preserving.n", count_preserving, 1, 1),
    ("count_subspaces_containing_all_ones.k",
     lambda v: count_subspaces_containing_all_ones(v, 2), 1, 0),
    ("count_subspaces_containing_all_ones.n",
     lambda v: count_subspaces_containing_all_ones(1, v), 1, 1),
    ("count_independent_image_tuples.k",
     lambda v: count_independent_image_tuples(v, 2), 1, 0),
    ("count_independent_image_tuples.n",
     lambda v: count_independent_image_tuples(1, v), 1, 1),
    ("asymptotic_estimate.n", asymptotic_estimate, 1, 1),
    ("cycle_types_with_parts_dividing.N",
     lambda v: head(cycle_types_with_parts_dividing(v, 2)), 1, 1),
    ("cycle_types_with_parts_dividing.r",
     lambda v: head(cycle_types_with_parts_dividing(2, v)), 1, 1),
    ("GF2Matrix.n_rows", lambda v: GF2Matrix(v, 1, [0]), 1, 0),
    ("GF2Subspace.width", lambda v: GF2Subspace(v, []), 1, 0),
    ("enumerate_subspaces_containing_e.n",
     lambda v: head(enumerate_subspaces_containing_e(v, 1)), 1, 1),
    ("enumerate_subspaces_containing_e.k",
     lambda v: head(enumerate_subspaces_containing_e(2, v)), 1, 1),
    ("enumerate_preserving_involutions.n",
     lambda v: head(enumerate_preserving_involutions(v)), 1, 1),
    ("unit_images_to_automorphism.n",
     lambda v: unit_images_to_automorphism([(1, 1)], v), 1, 1),
    ("brute_count_preserving.n", brute_count_preserving, 1, 1),
    ("brute_count_r_involutions.n", lambda v: brute_count_r_involutions(v, 2), 1, 1),
    ("brute_count_r_involutions.r", lambda v: brute_count_r_involutions(2, v), 1, 1),
    ("brute_count_signed_involutions.N", brute_count_signed_involutions, 1, 1),
    ("verify_special_sets.n", lambda v: verify_special_sets(v).to_json_dict(), 1, 1),
]

POLICY = pytest.mark.parametrize("call,valid,least,argument", [
    pytest.param(call, valid, least, name.rpartition(".")[2], id=name)
    for name, call, valid, least in CASES
])


def outcome(call, value):
    """What call(value) gives: its result, or the type and text of its error."""
    try:
        return call(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@POLICY
def test_a_float_is_refused(call, valid, least, argument):
    # the message of operator.index, not an error of the arithmetic the
    # float would have reached
    with pytest.raises(TypeError, match="integer"):
        call(float(valid))


@POLICY
def test_one_below_the_bound_names_the_argument(call, valid, least, argument):
    with pytest.raises(ValueError, match=rf"\b{argument}\b"):
        call(least - 1)


@POLICY
def test_true_reads_as_one(call, valid, least, argument):
    assert outcome(call, True) == outcome(call, 1)
