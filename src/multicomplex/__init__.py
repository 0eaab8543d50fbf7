"""Exact arithmetic, automorphisms, and involution counting for the
multicomplex rings MC(n)."""

from .mc_core import (
    DyadicRational,
    MulticomplexNumber,
    unit_product,
    unit_name,
    parse_unit_name,
)
from .idempotent import (
    ComplexComponent,
    IdempotentVector,
    basis_element,
    to_idempotent,
    from_idempotent,
    componentwise_mul,
)
from .special_elements import (
    SpecialSetKind,
    enumerate_special,
    special_element_for_pattern,
    u_times,
    idempotent_from_h,
    is_plus_minus_elementary,
)
from .automorphism import (
    Automorphism,
    CycleType,
    SignedPermutation,
    enumerate_automorphisms,
    enumerate_r_involutions,
)
from .counting import (
    count_automorphisms,
    count_involutions,
    count_signed_involutions,
    g_sequence,
    count_p_involutions,
    count_r_involutions,
    count_signed_r_involutions,
    cycle_types_with_parts_dividing,
    count_preserving,
    count_subspaces_containing_all_ones,
    count_independent_image_tuples,
    asymptotic_estimate,
)
from .gf2_preserving import (
    GF2Matrix,
    GF2Subspace,
    enumerate_preserving_involutions,
    enumerate_subspaces_containing_e,
    unit_images_to_automorphism,
)
from .oracle import (
    VerificationReport,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    corrupted_component_action,
    verify_homomorphism,
    verify_special_sets,
)

__version__ = "0.1.0"


class BudgetExceeded(ValueError):
    """Raised by the command line when a command's estimated work is over
    the limit it runs under; nothing is computed."""


__all__ = [
    "DyadicRational",
    "MulticomplexNumber",
    "unit_product",
    "unit_name",
    "parse_unit_name",
    "ComplexComponent",
    "IdempotentVector",
    "basis_element",
    "to_idempotent",
    "from_idempotent",
    "componentwise_mul",
    "SpecialSetKind",
    "enumerate_special",
    "special_element_for_pattern",
    "u_times",
    "idempotent_from_h",
    "is_plus_minus_elementary",
    "Automorphism",
    "BudgetExceeded",
    "CycleType",
    "SignedPermutation",
    "enumerate_automorphisms",
    "enumerate_r_involutions",
    "count_automorphisms",
    "count_involutions",
    "count_signed_involutions",
    "g_sequence",
    "count_p_involutions",
    "count_r_involutions",
    "count_signed_r_involutions",
    "cycle_types_with_parts_dividing",
    "count_preserving",
    "count_subspaces_containing_all_ones",
    "count_independent_image_tuples",
    "asymptotic_estimate",
    "GF2Matrix",
    "GF2Subspace",
    "enumerate_preserving_involutions",
    "enumerate_subspaces_containing_e",
    "unit_images_to_automorphism",
    "VerificationReport",
    "brute_count_r_involutions",
    "brute_count_signed_involutions",
    "corrupted_component_action",
    "verify_homomorphism",
    "verify_special_sets",
]
