"""Tests for GF(2) linear algebra and the unit-preserving involutions."""
import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    Automorphism,
    GF2Matrix,
    GF2Subspace,
    MulticomplexNumber,
    count_independent_image_tuples,
    count_preserving,
    count_subspaces_containing_all_ones,
    enumerate_preserving_involutions,
    enumerate_subspaces_containing_e,
    unit_images_to_automorphism,
)
from multicomplex.gf2_preserving import (
    enumerate_independent_tuples,
    kernel_basis,
    matrix_unit_data,
    rank,
    solve,
    solve_affine,
    unit_images_matrix,
)


def small_matrices(n_rows=4, n_cols=4):
    return st.integers(1, n_rows).flatmap(
        lambda r: st.integers(1, n_cols).flatmap(
            lambda c: st.builds(
                GF2Matrix,
                st.just(r),
                st.just(c),
                st.lists(
                    st.integers(0, (1 << c) - 1), min_size=r, max_size=r
                ),
            )
        )
    )


@st.composite
def invertible_matrices(draw, n=4):
    rows = [1 << i for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            rows[i], rows[(i + 1) % n] = rows[(i + 1) % n], rows[i]
        else:
            rows[i] ^= rows[j]
    return GF2Matrix(n, n, rows)


class TestGF2Matrix:
    def test_entry_column_transpose(self):
        m = GF2Matrix(2, 3, [0b101, 0b110])
        assert m.entry(0, 2) == 1
        assert m.entry(1, 0) == 0
        assert m.column(1) == 0b10
        assert m.transpose().rows == (0b01, 0b10, 0b11)
        assert m.transpose().transpose() == m

    def test_from_columns(self):
        m = GF2Matrix.from_columns([0b11, 0b01], 2)
        assert m.rows == (0b11, 0b01)
        assert m.column(0) == 0b11
        assert m.column(1) == 0b01

    def test_to_lists(self):
        m = GF2Matrix(2, 2, [0b01, 0b10])
        assert m.to_lists() == [[1, 0], [0, 1]]

    def test_add_is_xor(self):
        a = GF2Matrix(2, 2, [0b11, 0b01])
        b = GF2Matrix(2, 2, [0b10, 0b01])
        assert (a + b).rows == (0b01, 0b00)

    def test_identity_is_neutral_for_matmul(self):
        m = GF2Matrix(3, 3, [0b101, 0b011, 0b110])
        ident = GF2Matrix.identity(3)
        assert m @ ident == m
        assert ident @ m == m

    @given(small_matrices(3, 3), st.integers(0, 7))
    def test_apply_matches_column_combination(self, m, vec):
        expected = 0
        for j in range(m.n_cols):
            if (vec >> j) & 1:
                expected ^= m.column(j)
        assert m.apply(vec) == expected

    @given(small_matrices(3, 3), small_matrices(3, 3))
    def test_matmul_matches_entrywise_definition(self, a, b):
        if a.n_cols != b.n_rows:
            return
        prod = a @ b
        for i in range(a.n_rows):
            for j in range(b.n_cols):
                s = 0
                for k in range(a.n_cols):
                    s ^= a.entry(i, k) & b.entry(k, j)
                assert prod.entry(i, j) == s

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GF2Matrix(2, 2, [0b100, 0])
        with pytest.raises(ValueError):
            GF2Matrix(2, 2, [0])
        with pytest.raises(ValueError):
            GF2Matrix(2, 3, [0, 0]) @ GF2Matrix(2, 3, [0, 0])
        with pytest.raises(ValueError):
            GF2Matrix(2, 2, [0, 0]) + GF2Matrix(2, 3, [0, 0])


class TestRankKernelSolve:
    def test_rank_basics(self):
        assert rank(GF2Matrix.identity(5)) == 5
        assert rank(GF2Matrix.zero(3, 3)) == 0
        assert rank(GF2Matrix(2, 2, [0b11, 0b11])) == 1

    @given(small_matrices())
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(m.transpose())

    @given(small_matrices())
    def test_kernel_annihilates(self, m):
        ker = kernel_basis(m)
        assert ker.dimension == m.n_cols - rank(m)
        for v in ker.spanned():
            assert m.apply(v) == 0

    def test_solve_identity(self):
        t = GF2Matrix(3, 2, [0b01, 0b11, 0b10])
        assert solve(GF2Matrix.identity(3), t) == t

    @given(invertible_matrices(4))
    def test_solve_inverts(self, m):
        inv = solve(m, GF2Matrix.identity(4))
        assert m @ inv == GF2Matrix.identity(4)
        assert inv @ m == GF2Matrix.identity(4)

    def test_solve_detects_inconsistency(self):
        m = GF2Matrix(2, 1, [1, 1])
        bad = GF2Matrix(2, 1, [1, 0])
        with pytest.raises(ValueError):
            solve(m, bad)

    def test_solve_requires_full_column_rank(self):
        m = GF2Matrix(2, 2, [0b11, 0b11])
        with pytest.raises(ValueError):
            solve(m, GF2Matrix.zero(2, 2))

    @given(small_matrices(4, 4), st.integers(0, 15))
    def test_affine_solutions_exact(self, m, x):
        rhs = m.apply(x)
        particular, ker = solve_affine(m, rhs)
        assert m.apply(particular) == rhs
        solutions = {particular ^ v for v in ker.spanned()}
        brute = {
            v for v in range(1 << m.n_cols) if m.apply(v) == rhs
        }
        assert solutions == brute

    def test_affine_detects_inconsistency(self):
        m = GF2Matrix(2, 2, [0b01, 0b01])
        with pytest.raises(ValueError):
            solve_affine(m, 0b10)

    def test_affine_validates_rhs_width(self):
        with pytest.raises(ValueError):
            solve_affine(GF2Matrix.identity(2), 0b100)


class TestSubspace:
    def test_canonical_basis(self):
        s = GF2Subspace.from_vectors([0b111, 0b110, 0b001], 3)
        t = GF2Subspace.from_vectors([0b001, 0b110], 3)
        assert s == t
        assert s.dimension == 2

    def test_contains_and_reduce(self):
        s = GF2Subspace.from_vectors([0b011, 0b100], 3)
        assert s.contains(0b111)
        assert not s.contains(0b001)
        assert s.reduce(0b111) == 0

    def test_spanned_size(self):
        s = GF2Subspace.from_vectors([0b011, 0b100], 3)
        assert sorted(s.spanned()) == [0b000, 0b011, 0b100, 0b111]


class TestSubspaceEnumeration:
    def test_counts_match_formula(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                spaces = list(enumerate_subspaces_containing_e(n, k))
                assert len(spaces) == count_subspaces_containing_all_ones(k, n)
                assert len(set(spaces)) == len(spaces)

    def test_each_contains_all_ones(self):
        for n in range(1, 5):
            for k in range(1, n + 1):
                for s in enumerate_subspaces_containing_e(n, k):
                    assert s.dimension == k
                    assert s.contains((1 << n) - 1)

    def test_planes_of_dimension_two_in_three(self):
        spaces = list(enumerate_subspaces_containing_e(3, 2))
        assert {s.basis for s in spaces} == {
            (0b001, 0b110), (0b101, 0b010), (0b011, 0b100)
        }

    def test_deterministic(self):
        a = [s.basis for s in enumerate_subspaces_containing_e(4, 2)]
        b = [s.basis for s in enumerate_subspaces_containing_e(4, 2)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_subspaces_containing_e(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_subspaces_containing_e(3, 4))

    def test_independent_tuple_counts_match_formula(self):
        for n in range(1, 5):
            for k in range((n + 1) // 2, n + 1):
                expected = count_independent_image_tuples(k, n)
                for kernel in enumerate_subspaces_containing_e(n, k):
                    tuples = list(enumerate_independent_tuples(kernel, n - k))
                    assert len(tuples) == expected
                    assert tuples == sorted(tuples)
                    for t in tuples:
                        span = GF2Subspace.from_vectors(t, n)
                        assert span.dimension == len(t)
                        assert all(kernel.contains(v) for v in t)

    def test_zero_count_tuple(self):
        s = GF2Subspace.from_vectors([0b11], 2)
        assert list(enumerate_independent_tuples(s, 0)) == [()]


def signed_unit(sign_bit, mask, n):
    u = MulticomplexNumber.unit(mask, n)
    return -u if sign_bit else u


class TestUnitImageConstruction:
    def test_identity_images(self):
        for n in range(1, 5):
            images = [(1, 1 << k) for k in range(n)]
            assert unit_images_to_automorphism(images, n) == Automorphism.identity(n)

    def test_total_conjugation(self):
        for n in range(1, 5):
            images = [(-1, 1 << k) for k in range(n)]
            f = unit_images_to_automorphism(images, n)
            N = 1 << (n - 1)
            assert f.perm.images == tuple(-j for j in range(1, N + 1))

    def test_swap_of_generators(self):
        # i1 -> i1, i2 -> i3, i3 -> i2
        f = unit_images_to_automorphism([(1, 0b001), (1, 0b100), (1, 0b010)], 3)
        assert f.perm.to_text() == "2,1,3,4"
        i2 = MulticomplexNumber.generator(2, 3)
        i3 = MulticomplexNumber.generator(3, 3)
        assert f.apply(i2) == i3
        assert f.apply(i3) == i2

    def test_accepts_ring_elements(self):
        i2 = MulticomplexNumber.generator(2, 2)
        f = unit_images_to_automorphism([-i2, MulticomplexNumber.generator(1, 2)], 2)
        i1 = MulticomplexNumber.generator(1, 2)
        assert f.apply(i1) == -i2
        assert f.apply(i2) == i1

    def test_rejects_even_weight_image(self):
        with pytest.raises(ValueError, match="squares to \\+1"):
            unit_images_to_automorphism([(1, 0b11), (1, 0b10)], 2)

    def test_rejects_dependent_masks(self):
        with pytest.raises(ValueError, match="linearly dependent"):
            unit_images_to_automorphism(
                [(1, 0b001), (1, 0b001), (1, 0b100)], 3
            )
        with pytest.raises(ValueError, match="linearly dependent"):
            # 0b0111 = 0b0001 ^ 0b0010 ^ 0b0100, all of odd weight
            unit_images_to_automorphism(
                [(1, 0b0001), (1, 0b0010), (1, 0b0100), (1, 0b0111)], 4
            )

    def test_rejects_non_unit_elements(self):
        one = MulticomplexNumber.one(2)
        i1 = MulticomplexNumber.generator(1, 2)
        with pytest.raises(ValueError):
            unit_images_to_automorphism([i1 + one, i1], 2)
        with pytest.raises(ValueError):
            unit_images_to_automorphism([i1.scale("1/2"), i1], 2)

    def test_rejects_bad_tuples(self):
        with pytest.raises(ValueError):
            unit_images_to_automorphism([(2, 0b1), (1, 0b10)], 2)
        with pytest.raises(ValueError):
            unit_images_to_automorphism([(1, 0b100), (1, 0b10)], 2)
        with pytest.raises(ValueError):
            unit_images_to_automorphism([(1, 0b1)], 2)

    def test_matrix_round_trip(self):
        masks = [0b001, 0b111, 0b010]
        signs = [1, 0, 1]
        m = unit_images_matrix(3, masks, signs)
        assert matrix_unit_data(m) == (masks, signs)
        assert m.n_rows == m.n_cols == 4
        # affine corner and empty top-right column
        assert m.entry(3, 3) == 1
        assert m.column(3) == 1 << 3


def preserving(n):
    return list(enumerate_preserving_involutions(n))


class TestPreservingEnumeration:
    def test_counts(self):
        for n in range(1, 5):
            items = preserving(n)
            assert len(items) == count_preserving(n)
            texts = {auto.perm.to_text() for _, auto in items}
            assert len(texts) == len(items)

    def test_order_one_maps(self):
        items = preserving(1)
        assert [m.to_lists() for m, _ in items] == [
            [[1, 0], [0, 1]], [[1, 0], [1, 1]]
        ]
        i1 = MulticomplexNumber.generator(1, 1)
        images = [auto.apply(i1) for _, auto in items]
        assert images == [i1, -i1]

    def test_every_map_is_an_exact_involution(self):
        from multicomplex import SignedPermutation

        for n in range(1, 5):
            ident = SignedPermutation.identity(1 << (n - 1))
            for _, auto in preserving(n):
                assert auto.perm.order() <= 2
                assert auto.perm.compose(auto.perm) == ident

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_double_application_fixes_all_units(self, n):
        for _, auto in preserving(n):
            for mask in range(1 << n):
                u = MulticomplexNumber.unit(mask, n)
                assert auto.apply(auto.apply(u)) == u

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_images_match_matrix_columns(self, n):
        # the generic ring action must reproduce the signed units recorded
        # in the matrix, column by column
        for matrix, auto in preserving(n):
            masks, signs = matrix_unit_data(matrix)
            for k in range(n):
                expected = signed_unit(signs[k], masks[k], n)
                got = auto.apply(MulticomplexNumber.generator(k + 1, n))
                assert got == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matrix_structure(self, n):
        for matrix, _ in preserving(n):
            assert matrix.n_rows == matrix.n_cols == n + 1
            # affine column: nothing above the corner 1
            assert matrix.column(n) == 1 << n
            # every unit column has an odd number of generators
            for j in range(n):
                unit_bits = matrix.column(j) & ((1 << n) - 1)
                assert unit_bits.bit_count() % 2 == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_matrix_squares_to_identity_for_small_orders(self, n):
        for matrix, _ in preserving(n):
            assert matrix @ matrix == GF2Matrix.identity(n + 1)

    def test_unit_block_always_squares_to_identity(self):
        for n in range(1, 5):
            for matrix, _ in preserving(n):
                masks, _ = matrix_unit_data(matrix)
                block = GF2Matrix.from_columns(masks, n)
                assert block @ block == GF2Matrix.identity(n)

    def test_sign_freedom_grows_with_kernel(self):
        # for a fixed unit block, the admissible sign vectors form a coset
        # of the kernel of Y^T, so each block appears exactly 2^k times
        for n in (2, 3, 4):
            by_block = {}
            for matrix, _ in preserving(n):
                masks, _ = matrix_unit_data(matrix)
                by_block.setdefault(tuple(masks), 0)
                by_block[tuple(masks)] += 1
            for masks, copies in by_block.items():
                block = GF2Matrix.from_columns(masks, n)
                y = block + GF2Matrix.identity(n)
                k = n - rank(y)
                assert copies == 1 << k
                assert 2 * k >= n

    def test_mod_two_square_is_not_the_exact_condition(self):
        # from four generators on, mod-2 matrix arithmetic cannot see the
        # sign carries of the exact composition: the emitted maps are exact
        # involutions, yet only a fixed subset of their matrices square to
        # the identity mod 2.  This split is deterministic.
        ident = GF2Matrix.identity(5)
        congruent = sum(
            1 for matrix, _ in preserving(4) if matrix @ matrix == ident
        )
        assert congruent == 480
        assert count_preserving(4) == 576

    def test_round_trip_through_unit_images(self):
        for n in (1, 2, 3):
            for matrix, auto in preserving(n):
                masks, signs = matrix_unit_data(matrix)
                rebuilt = unit_images_to_automorphism(
                    [((-1) ** s, m) for s, m in zip(signs, masks)], n
                )
                assert rebuilt == auto

    def test_sample_involutions_present_at_order_three(self):
        images = {
            auto.perm.to_text(): [auto.apply(MulticomplexNumber.generator(k, 3))
                                  for k in (1, 2, 3)]
            for _, auto in preserving(3)
        }
        i1 = MulticomplexNumber.generator(1, 3)
        i2 = MulticomplexNumber.generator(2, 3)
        i3 = MulticomplexNumber.generator(3, 3)
        i123 = MulticomplexNumber.unit(0b111, 3)
        wanted = [
            [-i1, -i2, i123],
            [-i1, -i2, -i123],
            [i1, i3, i2],
            [i1, -i3, -i2],
        ]
        found = list(images.values())
        for triple in wanted:
            assert triple in found

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            list(enumerate_preserving_involutions(0))

    def test_deterministic(self):
        a = [(m.rows, auto.perm.images) for m, auto in preserving(3)]
        b = [(m.rows, auto.perm.images) for m, auto in preserving(3)]
        assert a == b
