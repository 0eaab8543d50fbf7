"""Whole-library acceptance suite.

Each test here states a cross-module contract: the headline counting
table, agreement between closed forms and the brute-force oracle, the
exhaustive small-order censuses, the frozen catalogs of special elements,
a fully worked sample automorphism, the unit-preserving involutions with
their GF(2) matrix shapes, the structural laws of the idempotent
representation, and the asymptotic behavior of the involution counts.
Module-level tests live next to their modules; this file is the gate.
"""
import math
import time

import mpmath
import pytest

from multicomplex import (
    Automorphism,
    DyadicRational,
    GF2Matrix,
    MulticomplexNumber,
    SignedPermutation,
    SpecialSetKind,
    asymptotic_estimate,
    basis_element,
    brute_count_r_involutions,
    brute_count_signed_involutions,
    componentwise_mul,
    count_involutions,
    count_preserving,
    count_r_involutions,
    count_signed_involutions,
    enumerate_automorphisms,
    enumerate_preserving_involutions,
    enumerate_r_involutions,
    enumerate_special,
    from_idempotent,
    g_sequence,
    to_idempotent,
    verify_homomorphism,
    verify_special_sets,
)
from preserving_matrix import matrix_unit_data

D = DyadicRational


def element(order, entries):
    """Build a number from {unit_mask: (numerator, halving_exponent)}."""
    return MulticomplexNumber.from_coeff_map(
        order, {mask: D(num, exp) for mask, (num, exp) in entries.items()}
    )


def combo(masks, nums, exp=2):
    """Linear combination nums[k]/2^exp over the given unit masks."""
    return element(3, {m: (v, exp) for m, v in zip(masks, nums) if v})


# sign patterns shared by the printed order-3 square-root catalogs: four
# pure units and four half-weight mixtures, each taken with both signs
ROOT_PATTERNS = [
    (4, 0, 0, 0),
    (0, 4, 0, 0),
    (0, 0, 4, 0),
    (0, 0, 0, 4),
    (2, 2, 2, 2),
    (2, -2, -2, 2),
    (2, 2, -2, -2),
    (2, -2, 2, -2),
]

ODD_MASKS = (0b001, 0b010, 0b100, 0b111)  # i1, i2, i3, i1*i2*i3
EVEN_MASKS = (0b000, 0b011, 0b101, 0b110)  # 1, i1*i2, i1*i3, i2*i3

IDEMPOTENT_PATTERNS = [
    (4, 0, 0, 0),
    (0, 0, 0, 0),
    (2, 2, 0, 0),
    (2, -2, 0, 0),
    (2, 0, 2, 0),
    (2, 0, -2, 0),
    (2, 0, 0, 2),
    (2, 0, 0, -2),
    (3, 1, 1, 1),
    (1, -1, -1, -1),
    (3, -1, -1, 1),
    (1, 1, 1, -1),
    (3, 1, -1, -1),
    (1, -1, 1, 1),
    (3, -1, 1, -1),
    (1, 1, -1, 1),
]


class TestHeadlineCounts:
    def test_involution_counts_for_small_orders(self):
        start = time.perf_counter()
        values = [count_involutions(n) for n in range(1, 6)]
        elapsed = time.perf_counter() - start
        assert values == [2, 6, 76, 32400, 50305536256]
        assert elapsed < 1.0


class TestBruteForceAgreement:
    def test_order_three_brute_force_is_fast(self):
        start = time.perf_counter()
        count = brute_count_r_involutions(3, 2)
        elapsed = time.perf_counter() - start
        assert count == 76
        assert elapsed < 1.0

    def test_order_four_brute_force_within_budget(self):
        # walks all 10,321,920 signed permutations of eight symbols
        start = time.perf_counter()
        count = brute_count_r_involutions(4, 2)
        elapsed = time.perf_counter() - start
        assert count == 32400
        assert elapsed < 120.0

    def test_every_power_count_matches_brute_force_at_order_three(self):
        for r in range(1, 13):
            assert brute_count_r_involutions(3, r) == count_r_involutions(3, r)

    def test_specific_power_counts(self):
        assert count_r_involutions(3, 2) == 76
        assert count_r_involutions(3, 3) == 33


class TestSignedInvolutionRecurrence:
    def test_recurrence_matches_closed_form(self):
        for N in range(1, 9):
            assert g_sequence(N) == count_signed_involutions(N)

    def test_component_count_bridges_the_two_counts(self):
        for n in range(1, 7):
            assert g_sequence(1 << (n - 1)) == count_involutions(n)

    def test_closed_form_matches_brute_force(self):
        for N in range(1, 6):
            assert count_signed_involutions(N) == brute_count_signed_involutions(N)


class TestAutomorphismCensus:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_census_is_complete_and_every_map_is_a_homomorphism(self, n):
        N = 1 << (n - 1)
        expected = (2 ** N) * math.factorial(N)
        seen = 0
        for f in enumerate_automorphisms(n):
            report = verify_homomorphism(f)
            assert report.ok, report.failure
            seen += 1
        assert seen == expected


class TestSpecialElementCatalogs:
    def test_printed_square_roots_of_minus_one_at_order_three(self):
        base = {combo(ODD_MASKS, nums) for nums in ROOT_PATTERNS}
        expected = base | {-x for x in base}
        assert len(expected) == 16
        got = set(enumerate_special(SpecialSetKind.SQUARE_MINUS_ONE, 3))
        assert got == expected

    def test_printed_square_roots_of_one_at_order_three(self):
        base = {combo(EVEN_MASKS, nums) for nums in ROOT_PATTERNS}
        expected = base | {-x for x in base}
        assert len(expected) == 16
        got = set(enumerate_special(SpecialSetKind.SQUARE_ONE, 3))
        assert got == expected

    def test_printed_idempotents_at_order_three(self):
        expected = {combo(EVEN_MASKS, nums) for nums in IDEMPOTENT_PATTERNS}
        assert len(expected) == 16
        got = set(enumerate_special(SpecialSetKind.IDEMPOTENT, 3))
        assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_family_has_one_element_per_sign_pattern(self, n):
        expected = 1 << (1 << (n - 1))
        for kind in SpecialSetKind:
            family = list(enumerate_special(kind, n))
            assert len(family) == len(set(family)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_defining_equations_hold_for_every_element(self, n):
        report = verify_special_sets(n)
        assert report.ok, report.failure


class TestWorkedSampleAutomorphism:
    """A component permutation given in an external 1-based labeling.

    The source lists the four primitive idempotents of the order-3 ring
    explicitly and names the map by where it sends each of them.  The
    test matches those elements against our basis by value, rebuilds the
    permutation in our indexing, and checks the advertised properties.
    """

    SOURCE_COMPONENTS = {
        1: (1, -1, -1, -1),
        2: (1, 1, 1, -1),
        3: (1, -1, 1, 1),
        4: (1, 1, -1, 1),
    }
    SOURCE_IMAGES = {1: 3, 2: -2, 3: 4, 4: 1}

    def match_labels(self):
        internal_of = {}
        for label, nums in self.SOURCE_COMPONENTS.items():
            target = combo(EVEN_MASKS, nums)
            matches = [j for j in range(4) if basis_element(j, 3) == target]
            assert len(matches) == 1
            internal_of[label] = matches[0]
        assert sorted(internal_of.values()) == [0, 1, 2, 3]
        return internal_of

    def build_map(self):
        internal_of = self.match_labels()
        images = [0, 0, 0, 0]
        for label, signed_target in self.SOURCE_IMAGES.items():
            sign = 1 if signed_target > 0 else -1
            images[internal_of[label]] = sign * (internal_of[abs(signed_target)] + 1)
        return Automorphism(3, SignedPermutation(tuple(images)))

    def test_relabeled_permutation_text(self):
        # same map, spelled in our component order
        assert self.build_map().perm.to_text() == "4,1,-3,2"

    def test_element_order_is_six(self):
        f = self.build_map()
        assert f.element_order() == 6
        assert not f.is_involution()

    def test_displayed_generator_images(self):
        f = self.build_map()
        expected = {
            1: combo(ODD_MASKS, (1, 1, 1, 1), exp=1),
            2: combo(ODD_MASKS, (1, -1, -1, 1), exp=1),
            3: combo(ODD_MASKS, (1, 1, -1, -1), exp=1),
        }
        for k, image in expected.items():
            assert f.apply(MulticomplexNumber.generator(k, 3)) == image

    def test_displayed_composite_images(self):
        f = self.build_map()
        expected = {
            0b000: MulticomplexNumber.one(3),
            0b011: -MulticomplexNumber.unit(0b110, 3),
            0b101: MulticomplexNumber.unit(0b011, 3),
            0b110: -MulticomplexNumber.unit(0b101, 3),
            0b111: combo(ODD_MASKS, (1, -1, 1, -1), exp=1),
        }
        for mask, image in expected.items():
            assert f.apply(MulticomplexNumber.unit(mask, 3)) == image

    def test_homomorphism_certificate(self):
        assert verify_homomorphism(self.build_map()).ok


def gf2_column(m, j):
    return sum(((row >> j) & 1) << i for i, row in enumerate(m.rows))


def gf2_square(m):
    """m times m over GF(2): row i is the XOR of the rows its bits pick."""
    rows = []
    for row in m.rows:
        acc = 0
        for j in range(m.n_cols):
            if (row >> j) & 1:
                acc ^= m.rows[j]
        rows.append(acc)
    return GF2Matrix(m.n_rows, m.n_cols, rows)


class TestUnitPreservingInvolutions:
    def test_headline_counts(self):
        assert [count_preserving(n) for n in (1, 2, 3)] == [2, 6, 44]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_enumeration_is_complete_and_every_map_checks_out(self, n):
        N = 1 << (n - 1)
        identity = SignedPermutation.identity(N)
        full_identity = GF2Matrix.identity(n + 1)
        block_identity = GF2Matrix.identity(n)

        # component vectors of the signed units, for fast image membership
        unit_vectors = {}
        for mask in range(1 << n):
            u = MulticomplexNumber.unit(mask, n)
            unit_vectors[to_idempotent(u).components] = (1, mask)
            unit_vectors[to_idempotent(-u).components] = (-1, mask)
        generator_components = [
            to_idempotent(MulticomplexNumber.generator(k, n)).components
            for k in range(1, n + 1)
        ]

        seen = set()
        for matrix, auto in enumerate_preserving_involutions(n):
            seen.add(auto.perm.images)
            assert auto.is_involution()
            assert auto.perm.compose(auto.perm) == identity

            # every generator lands on a signed unit
            images = auto.perm.images
            for comps in generator_components:
                out = [None] * N
                for j, c in enumerate(comps):
                    v = images[j]
                    out[abs(v) - 1] = c if v > 0 else c.conjugate()
                assert tuple(out) in unit_vectors

            # matrix shape: affine column is the bare corner, and every
            # unit column names an odd number of generators
            assert matrix.n_rows == matrix.n_cols == n + 1
            assert gf2_column(matrix, n) == 1 << n
            for j in range(n):
                unit_bits = gf2_column(matrix, j) & ((1 << n) - 1)
                assert unit_bits.bit_count() % 2 == 1

            # the unit block is always a mod-2 involution; the bordered
            # matrix also is while signs cannot carry (three generators
            # or fewer), and the exact self-inverse checks above hold
            # at every order regardless
            masks, _ = matrix_unit_data(matrix)
            block = GF2Matrix.from_columns(masks, n)
            assert gf2_square(block) == block_identity
            if n <= 3:
                assert gf2_square(matrix) == full_identity

        assert len(seen) == count_preserving(n)

    def test_four_advertised_samples_appear_at_order_three(self):
        i1 = MulticomplexNumber.generator(1, 3)
        i2 = MulticomplexNumber.generator(2, 3)
        i3 = MulticomplexNumber.generator(3, 3)
        i123 = MulticomplexNumber.unit(0b111, 3)
        wanted = [
            (-i1, -i2, i123),
            (-i1, -i2, -i123),
            (i1, i3, i2),
            (i1, -i3, -i2),
        ]
        found = {
            tuple(auto.apply(g) for g in (i1, i2, i3))
            for _, auto in enumerate_preserving_involutions(3)
        }
        for triple in wanted:
            assert triple in found


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_of_unity(self, n):
        N = 1 << (n - 1)
        total = MulticomplexNumber.zero(n)
        for j in range(N):
            total = total + basis_element(j, n)
        assert total == MulticomplexNumber.one(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonality_of_the_basis(self, n):
        N = 1 << (n - 1)
        basis = [basis_element(j, n) for j in range(N)]
        for j in range(N):
            for k in range(N):
                product = basis[j] * basis[k]
                assert product == (basis[j] if j == k else MulticomplexNumber.zero(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_component_round_trip(self, n):
        for mask in range(1 << n):
            u = MulticomplexNumber.unit(mask, n)
            assert from_idempotent(to_idempotent(u)) == u
            assert from_idempotent(to_idempotent(-u)) == -u

    def test_multiplication_transport(self):
        for a_mask in range(8):
            for b_mask in range(8):
                a = MulticomplexNumber.unit(a_mask, 3)
                b = MulticomplexNumber.unit(b_mask, 3)
                assert to_idempotent(a * b) == componentwise_mul(
                    to_idempotent(a), to_idempotent(b)
                )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_automorphisms_send_basis_idempotents_to_idempotents(self, n):
        N = 1 << (n - 1)
        basis = [basis_element(j, n) for j in range(N)]
        for f in enumerate_automorphisms(n):
            for e in basis:
                image = f.apply(e)
                assert image.square() == image
                assert image in basis

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involutions_fix_a_square_root_of_one(self, n):
        one = MulticomplexNumber.one(n)
        i1 = MulticomplexNumber.generator(1, n)
        for f in enumerate_r_involutions(n, 2):
            h = -(i1 * f.apply(i1))
            assert h.square() == one
            assert f.apply(h) == h


class TestAsymptoticGap:
    def gaps(self):
        out = []
        with mpmath.workdps(60):
            for n in range(3, 9):
                exact_log = mpmath.ln(mpmath.mpf(count_involutions(n)))
                out.append(abs(exact_log - asymptotic_estimate(n)))
        return out

    def test_log_gap_strictly_decreases(self):
        gaps = self.gaps()
        for earlier, later in zip(gaps, gaps[1:]):
            assert later < earlier

    def test_log_gap_values_are_stable(self):
        expected = [
            0.18999672,
            0.14213240,
            0.10521309,
            0.07693159,
            0.05570196,
            0.04004835,
        ]
        for got, want in zip(self.gaps(), expected):
            assert abs(float(got) - want) < 1e-6
