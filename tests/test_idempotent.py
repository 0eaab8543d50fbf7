"""Tests for the idempotent coordinate system and its exact transforms."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    ComplexComponent,
    DyadicRational,
    IdempotentVector,
    MulticomplexNumber,
    basis_element,
    componentwise_mul,
    from_idempotent,
    to_idempotent,
)


def dyadics(max_num=8, max_exp=2):
    return st.builds(
        DyadicRational,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=0, max_value=max_exp),
    )


def elements(n):
    width = 1 << n
    return st.builds(
        MulticomplexNumber,
        st.just(n),
        st.lists(dyadics(), min_size=width, max_size=width),
    )


def fractions(vec):
    """The numbers of an IdempotentVector as exact fractions."""
    return [Fraction(v, 1 << vec.exp) for v in vec.nums]


class TestComplexComponent:
    def test_conjugate(self):
        half = DyadicRational(1, 1)
        assert ComplexComponent(1, half).conjugate() == ComplexComponent(1, -half)

    def test_truthiness(self):
        assert not ComplexComponent(0, 0)
        assert ComplexComponent(0, DyadicRational(1, 2))

    def test_immutable(self):
        c = ComplexComponent(1, 1)
        with pytest.raises(AttributeError):
            c.re = DyadicRational(2)


class TestIdempotentVector:
    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            IdempotentVector(3, [1, 0] * 3)

    def test_order_is_an_int(self):
        assert type(IdempotentVector(True, [1, 2]).order) is int
        with pytest.raises(TypeError):
            IdempotentVector(1.0, [1, 2])

    def test_component_type_enforced(self):
        # numbers, two per component: components are views, not input
        with pytest.raises(TypeError):
            IdempotentVector(1, [0.5, 0])
        with pytest.raises(TypeError):
            IdempotentVector(1, [ComplexComponent(1, 0)])


class TestTransforms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_on_units(self, n):
        for mask in range(1 << n):
            x = MulticomplexNumber.unit(mask, n)
            assert from_idempotent(to_idempotent(x)) == x

    @given(st.integers(1, 4).flatmap(elements))
    def test_round_trip(self, x):
        assert from_idempotent(to_idempotent(x)) == x

    @given(elements(3), elements(3))
    def test_multiplication_is_componentwise(self, x, y):
        lhs = to_idempotent(x * y)
        rhs = componentwise_mul(to_idempotent(x), to_idempotent(y))
        assert lhs == rhs

    @given(elements(2), elements(2))
    def test_addition_is_componentwise(self, x, y):
        vx, vy = to_idempotent(x), to_idempotent(y)
        summed = [a + b for a, b in zip(fractions(vx), fractions(vy))]
        assert fractions(to_idempotent(x + y)) == summed

    def test_order_one_components_are_the_coefficients(self):
        three_quarters = DyadicRational(3, 2)
        vec = to_idempotent(MulticomplexNumber(1, [three_quarters, -2]))
        assert vec.components == (ComplexComponent(three_quarters, -2),)

    def test_componentwise_mul_order_mismatch(self):
        u = to_idempotent(MulticomplexNumber.one(2))
        v = to_idempotent(MulticomplexNumber.one(3))
        with pytest.raises(ValueError):
            componentwise_mul(u, v)


class TestBasisElements:
    def test_index_range(self):
        with pytest.raises(ValueError):
            basis_element(4, 3)
        with pytest.raises(ValueError):
            basis_element(-1, 3)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            basis_element(0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_of_unity(self, n):
        total = MulticomplexNumber.zero(n)
        for j in range(1 << (n - 1)):
            total = total + basis_element(j, n)
        assert total == MulticomplexNumber.one(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthogonal_idempotents(self, n):
        es = [basis_element(j, n) for j in range(1 << (n - 1))]
        zero = MulticomplexNumber.zero(n)
        for a, ea in enumerate(es):
            for b, eb in enumerate(es):
                assert ea * eb == (ea if a == b else zero)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_components_are_indicator_vectors(self, n):
        for j in range(1 << (n - 1)):
            vec = to_idempotent(basis_element(j, n))
            for t, comp in enumerate(vec.components):
                expected = ComplexComponent(1 if t == j else 0, 0)
                assert comp == expected

    def test_order_three_values(self):
        def quarters(signs):
            return MulticomplexNumber(
                3, [1, 0, 0, signs[0], 0, signs[1], signs[2], 0], 2
            )

        # coefficient signs of (i1i2, i1i3, i2i3) per basis index
        assert basis_element(0, 3) == quarters((1, -1, 1))
        assert basis_element(1, 3) == quarters((-1, 1, 1))
        assert basis_element(2, 3) == quarters((1, 1, -1))
        assert basis_element(3, 3) == quarters((-1, -1, -1))

    def test_order_one_basis_is_one(self):
        assert basis_element(0, 1) == MulticomplexNumber.one(1)

    def test_level_pair_acts_by_sign(self):
        # i1i2 = e0 - e1, so it scales component 0 by +1 and component 1 by -1
        e0 = basis_element(0, 2)
        e1 = basis_element(1, 2)
        pair = MulticomplexNumber.unit(0b11, 2)
        assert pair == e0 - e1
        assert pair * e0 == e0
        assert pair * e1 == -e1
