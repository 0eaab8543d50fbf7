"""Tests for the square-root and idempotent families."""
import pytest

from multicomplex import (
    DyadicRational,
    MulticomplexNumber,
    SpecialSetKind,
    enumerate_special,
    idempotent_from_h,
    is_plus_minus_elementary,
    special_element_for_pattern,
    u_times,
)

ALL_KINDS = list(SpecialSetKind)


def family(kind, n):
    return list(enumerate_special(kind, n))


class TestEnumeration:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cardinality(self, kind, n):
        elems = family(kind, n)
        expected = 1 << (1 << (n - 1))
        assert len(elems) == expected
        assert len(set(elems)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_defining_equations(self, n):
        one = MulticomplexNumber.one(n)
        for eta in family(SpecialSetKind.SQUARE_MINUS_ONE, n):
            assert eta.square() == -one
        for eta in family(SpecialSetKind.SQUARE_ONE, n):
            assert eta.square() == one
        for eta in family(SpecialSetKind.IDEMPOTENT, n):
            assert eta.square() == eta

    def test_order_one_families(self):
        i1 = MulticomplexNumber.generator(1, 1)
        one = MulticomplexNumber.one(1)
        zero = MulticomplexNumber.zero(1)
        assert family(SpecialSetKind.SQUARE_MINUS_ONE, 1) == [i1, -i1]
        assert family(SpecialSetKind.SQUARE_ONE, 1) == [one, -one]
        assert family(SpecialSetKind.IDEMPOTENT, 1) == [zero, one]

    def test_order_two_families_exactly(self):
        i1 = MulticomplexNumber.generator(1, 2)
        i2 = MulticomplexNumber.generator(2, 2)
        pair = MulticomplexNumber.unit(0b11, 2)
        one = MulticomplexNumber.one(2)
        half = DyadicRational(1, 1)
        e_plus = MulticomplexNumber.from_coeff_map(2, {0: half, 3: half})
        e_minus = MulticomplexNumber.from_coeff_map(2, {0: half, 3: -half})
        assert set(family(SpecialSetKind.SQUARE_MINUS_ONE, 2)) == {
            i1, -i1, i2, -i2
        }
        assert set(family(SpecialSetKind.SQUARE_ONE, 2)) == {
            one, -one, pair, -pair
        }
        assert set(family(SpecialSetKind.IDEMPOTENT, 2)) == {
            MulticomplexNumber.zero(2), one, e_plus, e_minus
        }

    def test_pattern_addressing_matches_enumeration(self):
        for kind in ALL_KINDS:
            for idx, eta in enumerate(family(kind, 3)):
                assert special_element_for_pattern(kind, 3, idx) == eta

    def test_pattern_range_errors(self):
        with pytest.raises(ValueError):
            special_element_for_pattern(SpecialSetKind.IDEMPOTENT, 2, 4)
        with pytest.raises(ValueError):
            special_element_for_pattern(SpecialSetKind.IDEMPOTENT, 2, -1)
        with pytest.raises(ValueError):
            special_element_for_pattern(SpecialSetKind.IDEMPOTENT, 0, 0)

    def test_string_kind_accepted(self):
        direct = special_element_for_pattern(SpecialSetKind.SQUARE_ONE, 2, 1)
        via_value = special_element_for_pattern("one", 2, 1)
        assert direct == via_value


class TestCrossIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multiplying_by_root_swaps_families(self, n):
        i1 = MulticomplexNumber.generator(1, n)
        h_family = family(SpecialSetKind.SQUARE_ONE, n)
        u_family = family(SpecialSetKind.SQUARE_MINUS_ONE, n)
        assert set(u_times(i1, h_family)) == set(u_family)
        # applying it twice negates, landing back in the same set
        assert set(u_times(i1, u_family)) == set(h_family)

    def test_u_times_validates_square(self):
        one = MulticomplexNumber.one(2)
        with pytest.raises(ValueError):
            u_times(one, [one])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_idempotents_from_square_roots_of_one(self, n):
        h_family = family(SpecialSetKind.SQUARE_ONE, n)
        e_family = set(family(SpecialSetKind.IDEMPOTENT, n))
        built = {idempotent_from_h(h) for h in h_family}
        assert built == e_family

    def test_idempotent_from_h_validates_square(self):
        i1 = MulticomplexNumber.generator(1, 2)
        with pytest.raises(ValueError):
            idempotent_from_h(i1)


class TestElementaryPredicate:
    def test_accepts_signed_units(self):
        for n in (1, 2, 3):
            for mask in range(1 << n):
                u = MulticomplexNumber.unit(mask, n)
                assert is_plus_minus_elementary(u)
                assert is_plus_minus_elementary(-u)

    def test_rejects_others(self):
        zero = MulticomplexNumber.zero(2)
        one = MulticomplexNumber.one(2)
        i1 = MulticomplexNumber.generator(1, 2)
        assert not is_plus_minus_elementary(zero)
        assert not is_plus_minus_elementary(one + i1)
        assert not is_plus_minus_elementary(one.scale(DyadicRational(1, 1)))
