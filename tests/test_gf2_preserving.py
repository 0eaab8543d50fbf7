"""Tests for GF(2) linear algebra and the unit-preserving involutions."""
import hashlib

import pytest
from hypothesis import given, strategies as st

from multicomplex import (
    Automorphism,
    GF2Matrix,
    GF2Subspace,
    MulticomplexNumber,
    SignedPermutation,
    count_independent_image_tuples,
    count_preserving,
    count_subspaces_containing_all_ones,
    enumerate_preserving_involutions,
    enumerate_subspaces_containing_e,
    gf2_preserving,
    unit_images_to_automorphism,
    unit_product,
)
from multicomplex.gf2_preserving import (
    _independent_tuples,
    _linear_table,
    _linear_value_form,
    _parity,
    _transpose,
    matrix_unit_data,
    solve,
)


def pivots(space):
    """The pivot columns of a canonical basis: the lowest set bit of each
    row."""
    return tuple((r & -r).bit_length() - 1 for r in space.basis)


def entry(m, i, j):
    return (m.rows[i] >> j) & 1


def mat_vec(m, vec):
    """The matrix-vector product over GF(2), the vector packed as an int."""
    out = 0
    for i, row in enumerate(m.rows):
        out |= _parity(row & vec) << i
    return out


def transpose(m):
    return GF2Matrix.from_columns(list(m.rows), m.n_cols)


def column(m, j):
    return sum(entry(m, i, j) << i for i in range(m.n_rows))


def matmul(a, b):
    """The product over GF(2): entry i,j is the parity of row i of a
    against column j of b."""
    assert a.n_cols == b.n_rows
    return GF2Matrix(a.n_rows, b.n_cols, [mat_vec(transpose(b), row) for row in a.rows])


def rank(m):
    return GF2Subspace(m.n_cols, m.rows).dimension


def unit_images_matrix(n, masks, sign_bits):
    """The emitted layout: column j is masks[j] over sign bit j, and the
    last column is the affine corner 1."""
    columns = [m | (b << n) for m, b in zip(masks, sign_bits)] + [1 << n]
    return GF2Matrix.from_columns(columns, n + 1)


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
    def test_column_and_transpose_by_columns(self):
        m = GF2Matrix(2, 3, [0b101, 0b110])
        assert column(m, 1) == 0b10
        assert column(m, 2) == 0b11
        assert transpose(m).rows == (0b01, 0b10, 0b11)
        assert transpose(transpose(m)) == m

    def test_from_columns(self):
        m = GF2Matrix.from_columns([0b11, 0b01], 2)
        assert m.rows == (0b11, 0b01)
        assert column(m, 0) == 0b11
        assert column(m, 1) == 0b01

    def test_to_lists(self):
        m = GF2Matrix(2, 2, [0b01, 0b10])
        assert m.to_lists() == [[1, 0], [0, 1]]

    @given(small_matrices(3, 3), st.integers(0, 7))
    def test_mat_vec_matches_column_combination(self, m, vec):
        expected = 0
        for j in range(m.n_cols):
            if (vec >> j) & 1:
                expected ^= column(m, j)
        assert mat_vec(m, vec) == expected

    def test_dimensions_go_through_index(self):
        m = GF2Matrix(True, 1, [1])
        assert type(m.n_rows) is int and repr(m) == "GF2Matrix(1x1: 1)"
        assert m == GF2Matrix(1, 1, [1]) and hash(m) == hash(GF2Matrix(1, 1, [1]))
        with pytest.raises(TypeError):
            GF2Matrix(1, 1.0, [1])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GF2Matrix(2, 2, [0b100, 0])
        with pytest.raises(ValueError):
            GF2Matrix(2, 2, [0])


class TestRankKernelSolve:
    def test_rank_basics(self):
        assert rank(GF2Matrix.identity(5)) == 5
        assert rank(GF2Matrix(3, 3, [0, 0, 0])) == 0
        assert rank(GF2Matrix(2, 2, [0b11, 0b11])) == 1

    @given(small_matrices())
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(transpose(m))

    def test_solve_identity(self):
        t = GF2Matrix(3, 2, [0b01, 0b11, 0b10])
        assert solve(GF2Matrix.identity(3), t) == t

    @given(invertible_matrices(4))
    def test_solve_inverts(self, m):
        inv = solve(m, GF2Matrix.identity(4))
        assert matmul(m, inv) == GF2Matrix.identity(4)
        assert matmul(inv, m) == GF2Matrix.identity(4)

    def test_solve_detects_inconsistency(self):
        m = GF2Matrix(2, 1, [1, 1])
        bad = GF2Matrix(2, 1, [1, 0])
        with pytest.raises(ValueError):
            solve(m, bad)

    def test_solve_requires_full_column_rank(self):
        m = GF2Matrix(2, 2, [0b11, 0b11])
        with pytest.raises(ValueError):
            solve(m, GF2Matrix(2, 2, [0, 0]))

    @given(small_matrices(4, 3), st.integers(0, 15))
    def test_solve_matches_brute_force(self, m, rhs):
        # one elimination must tell a unique solution from none or many
        rhs &= (1 << m.n_rows) - 1
        hits = [x for x in range(1 << m.n_cols) if mat_vec(m, x) == rhs]
        target = GF2Matrix.from_columns([rhs], m.n_rows)
        if len(hits) == 1:
            assert solve(m, target) == GF2Matrix.from_columns(hits, m.n_cols)
        else:
            with pytest.raises(ValueError):
                solve(m, target)


def span(vectors):
    """Every GF(2) combination of the vectors, by brute force."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


@st.composite
def spanning_sets(draw, max_width=6):
    width = draw(st.integers(1, max_width))
    vectors = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=width + 2))
    return width, vectors


class TestSubspace:
    def test_canonical_basis(self):
        s = GF2Subspace(3, [0b111, 0b110, 0b001])
        t = GF2Subspace(3, [0b001, 0b110])
        assert s == t
        assert s.basis == (0b001, 0b110) and pivots(s) == (0, 1)
        assert s.dimension == 2

    def test_equal_spans_are_equal(self):
        assert GF2Subspace(2, [0b01, 0b11]) == GF2Subspace(2, [0b01, 0b10])
        assert GF2Subspace(2, [0b11, 0b11, 0]) == GF2Subspace(2, [0b11])

    def test_pivots_are_derived(self):
        with pytest.raises(TypeError):
            GF2Subspace(2, [0b11], [5])
        s = GF2Subspace(2, [0b11])
        assert pivots(s) == (0,) and 0b11 in set(s.spanned())
        # each pivot column holds a single 1, and pivots rise with the rows
        t = GF2Subspace(4, [0b1111, 0b0110, 0b1100])
        cols = pivots(t)
        assert list(cols) == sorted(set(cols))
        assert all(sum((r >> c) & 1 for r in t.basis) == 1 for c in cols)

    def test_width_and_bits_are_checked(self):
        with pytest.raises(ValueError):
            GF2Subspace(2, [0b100])
        with pytest.raises(ValueError):
            GF2Subspace(2, [-1])
        with pytest.raises(ValueError):
            GF2Subspace(-1, [])
        with pytest.raises(TypeError):
            GF2Subspace(2.0, [0b11])
        assert type(GF2Subspace(True, [1]).width) is int

    def test_membership_in_spanned(self):
        members = set(GF2Subspace(3, [0b011, 0b100]).spanned())
        assert 0b111 in members
        assert 0b001 not in members

    def test_spanned_size(self):
        s = GF2Subspace(3, [0b011, 0b100])
        assert sorted(s.spanned()) == [0b000, 0b011, 0b100, 0b111]

    @given(spanning_sets(), st.data())
    def test_recombined_spanning_sets_agree(self, case, data):
        width, vectors = case
        # add to each vector a combination of the ones after it: an
        # invertible (unitriangular) recombination, so the span is unchanged
        mixed = list(vectors)
        for i in range(len(mixed)):
            for j in range(i + 1, len(mixed)):
                if data.draw(st.booleans()):
                    mixed[i] ^= mixed[j]
        order = data.draw(st.permutations(mixed))
        s, t = GF2Subspace(width, vectors), GF2Subspace(width, order)
        assert s == t and hash(s) == hash(t)

    @given(spanning_sets())
    def test_spanned_matches_brute_span(self, case):
        width, vectors = case
        members = span(vectors)
        s = GF2Subspace(width, vectors)
        assert len(members) == 1 << s.dimension
        assert set(s.spanned()) == members


def recursive_tuples(space, count):
    """Ordered independent count-tuples of the subspace's nonzero vectors,
    by extending each chosen prefix with every sorted vector outside its
    span: the reference for _independent_tuples."""
    elems = sorted(v for v in space.spanned() if v)

    def rec(chosen):
        if len(chosen) == count:
            yield tuple(chosen)
            return
        members = span(chosen)
        for v in elems:
            if v not in members:
                chosen.append(v)
                yield from rec(chosen)
                chosen.pop()

    yield from rec([])


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
                    assert (1 << n) - 1 in set(s.spanned())

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
                    tuples = list(_independent_tuples(kernel, n - k))
                    assert len(tuples) == expected
                    assert tuples == sorted(tuples)
                    members = set(kernel.spanned())
                    for t in tuples:
                        assert GF2Subspace(n, t).dimension == len(t)
                        assert members.issuperset(t)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_independent_tuples_match_the_recursive_walk(self, n):
        # order included: the generator's emission order rests on it
        for k in range(1, n + 1):
            for kernel in enumerate_subspaces_containing_e(n, k):
                assert (list(_independent_tuples(kernel, n - k))
                        == list(recursive_tuples(kernel, n - k)))

    def test_zero_count_tuple(self):
        s = GF2Subspace(2, [0b11])
        assert list(_independent_tuples(s, 0)) == [()]


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
        assert entry(m, 3, 3) == 1
        assert column(m, 3) == 1 << 3


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
            assert column(matrix, n) == 1 << n
            # every unit column has an odd number of generators
            for j in range(n):
                unit_bits = column(matrix, j) & ((1 << n) - 1)
                assert unit_bits.bit_count() % 2 == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_matrix_squares_to_identity_for_small_orders(self, n):
        for matrix, _ in preserving(n):
            assert matmul(matrix, matrix) == GF2Matrix.identity(n + 1)

    def test_unit_block_always_squares_to_identity(self):
        for n in range(1, 5):
            for matrix, _ in preserving(n):
                masks, _ = matrix_unit_data(matrix)
                block = GF2Matrix.from_columns(masks, n)
                assert matmul(block, block) == GF2Matrix.identity(n)

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
                y = GF2Matrix(n, n, [
                    row ^ (1 << i)
                    for i, row in enumerate(GF2Matrix.from_columns(masks, n).rows)
                ])
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
            1 for matrix, _ in preserving(4) if matmul(matrix, matrix) == ident
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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_emitted_values_equal_their_checked_rebuild(self, n):
        # the generator builds its values without the constructors' checks
        for matrix, auto in enumerate_preserving_involutions(n):
            rebuilt = GF2Matrix(matrix.n_rows, matrix.n_cols, list(matrix.rows))
            assert matrix == rebuilt and hash(matrix) == hash(rebuilt)
            assert type(matrix.rows) is tuple
            perm = SignedPermutation(list(auto.perm.images))
            assert auto.perm == perm and hash(auto.perm) == hash(perm)
            again = Automorphism(auto.order_n, perm)
            assert auto == again and hash(auto) == hash(again)
            assert type(auto.perm.images) is tuple

    def test_order_six_stream(self):
        digest = hashlib.sha256()
        count = 0
        for matrix, auto in enumerate_preserving_involutions(6):
            digest.update(repr((matrix.rows, auto.perm.images)).encode())
            count += 1
        assert count == 759_936 == count_preserving(6)
        assert digest.hexdigest().startswith("02791380f0fa9094")

    def test_deterministic(self):
        a = [(m.rows, auto.perm.images) for m, auto in preserving(3)]
        b = [(m.rows, auto.perm.images) for m, auto in preserving(3)]
        assert a == b


def per_map_action(n, masks, sign_bits):
    """The component action built map by map, one GF(2) inversion per sign
    vector: the reference for the per-block builder."""
    nbits = n - 1
    lam_rows = []
    beta = 0
    for r in range(nbits):
        m_lo, m_hi = masks[r], masks[r + 1]
        coef, const = _linear_value_form(m_lo ^ m_hi)
        carry = _parity(m_lo & m_hi)
        lam_rows.append(coef)
        beta |= ((sign_bits[r] ^ sign_bits[r + 1] ^ carry ^ const) & 1) << r
    inv = solve(GF2Matrix(nbits, nbits, lam_rows), GF2Matrix.identity(nbits))
    scoef, sconst = _linear_value_form(masks[0] ^ 1)
    sbase = sign_bits[0] ^ sconst ^ (0 if masks[0] & 1 else 1)
    images = []
    for t in range(1 << nbits):
        x = t ^ beta
        u = 0
        for r in range(nbits):
            u |= _parity(inv.rows[r] & x) << r
        negative = sbase ^ _parity(scoef & u)
        images.append(-(u + 1) if negative else u + 1)
    return Automorphism(n, SignedPermutation(images))


@st.composite
def independent_unit_images(draw):
    n = draw(st.integers(1, 5))
    odd = [m for m in range(1 << n) if m.bit_count() % 2]
    masks = draw(st.lists(st.sampled_from(odd), min_size=n, max_size=n)
                 .filter(lambda ms: GF2Subspace(n, ms).dimension == n))
    signs = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, masks, signs


class TestPerBlockActions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_generator_matches_per_map_reference(self, n):
        emitted = 0
        for matrix, auto in enumerate_preserving_involutions(n):
            masks, signs = matrix_unit_data(matrix)
            assert matrix == unit_images_matrix(n, masks, signs)
            assert auto == per_map_action(n, masks, signs)
            emitted += 1
        assert emitted == count_preserving(n)

    @given(independent_unit_images())
    def test_single_map_matches_per_map_reference(self, data):
        n, masks, signs = data
        images = [((-1) ** s, m) for s, m in zip(signs, masks)]
        assert unit_images_to_automorphism(images, n) == per_map_action(n, masks, signs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sign_vectors_are_every_solution_of_the_sign_system(self, n):
        # per unit block, the emitted signs are all s with Y^T s = c over
        # GF(2)^n, c_j the sign of the product of the images over bits of m_j
        by_block = {}
        for matrix, _ in enumerate_preserving_involutions(n):
            masks, sign_bits = matrix_unit_data(matrix)
            signs = sum(b << j for j, b in enumerate(sign_bits))
            by_block.setdefault(tuple(masks), set()).add(signs)
        for masks, signs in by_block.items():
            carry = 0
            for j, m in enumerate(masks):
                sign, acc = 1, 0
                for b in range(n):
                    if (m >> b) & 1:
                        s, acc = unit_product(acc, masks[b])
                        sign *= s
                carry |= (sign < 0) << j
            yt = GF2Matrix(n, n, [m ^ (1 << j) for j, m in enumerate(masks)])
            assert signs == {s for s in range(1 << n) if mat_vec(yt, s) == carry}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corrupted_component_table_raises(self, n, monkeypatch):
        def singular(w):
            # a zero coefficient makes the block's component map u -> lam u
            # constant, so it fills one slot of the table
            return 0, _linear_value_form(w)[1]

        monkeypatch.setattr(gf2_preserving, "_linear_value_form", singular)
        with pytest.raises(RuntimeError, match="not a permutation"):
            next(enumerate_preserving_involutions(n))
        identity = [(1, 1 << k) for k in range(n)]
        with pytest.raises(RuntimeError, match="not a permutation"):
            unit_images_to_automorphism(identity, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_solve_per_kernel_and_none_per_unit_block(self, n, monkeypatch):
        calls = []

        def counted(matrix, targets):
            calls.append(matrix.n_cols)
            return solve(matrix, targets)

        monkeypatch.setattr(gf2_preserving, "solve", counted)
        assert sum(1 for _ in enumerate_preserving_involutions(n)) == count_preserving(n)
        # per kernel, one inversion for the complement coordinates
        expected = sum(count_subspaces_containing_all_ones(k, n)
                       for k in range((n + 1) // 2, n + 1))
        assert calls == [n] * expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inconsistent_sign_system_raises(self, n, monkeypatch):
        carry_vector = gf2_preserving._carry_vector
        identity = [1 << j for j in range(n)]

        def off_image(masks):
            # the identity block, the last one walked, has Y = 0, so the
            # image of its Y^T is {0} and any nonzero carry is outside it
            return carry_vector(masks) | (masks == identity)

        monkeypatch.setattr(gf2_preserving, "_carry_vector", off_image)
        emitted = 0
        with pytest.raises(RuntimeError, match="sign system inconsistent"):
            for _ in enumerate_preserving_involutions(n):
                emitted += 1
        assert emitted == count_preserving(n) - 2 ** n

    @given(st.lists(st.integers(0, 255), max_size=8))
    def test_linear_table_is_the_xor_over_the_bits_of_each_index(self, columns):
        table = _linear_table(columns)
        assert len(table) == 1 << len(columns)
        for x, value in enumerate(table):
            naive = 0
            for j, column in enumerate(columns):
                if (x >> j) & 1:
                    naive ^= column
            assert value == naive

    @given(st.integers(0, 10).flatmap(lambda width: st.tuples(
        st.just(width),
        st.lists(st.integers(-(1 << 14), 1 << 14), max_size=10))))
    def test_transpose_matches_the_bit_by_bit_loop(self, case):
        # the vectors reach past width, where bits must be ignored
        width, vectors = case
        naive = [0] * width
        for r in range(width):
            for c, v in enumerate(vectors):
                naive[r] |= ((v >> r) & 1) << c
        assert _transpose(vectors, width) == naive

    @pytest.mark.parametrize("images, n, error, message", [
        ([], 0, ValueError, "n must be at least 1"),
        ([(1, 1)], 0, ValueError, "n must be at least 1"),
        ([(1, 1.0)], 1, TypeError, "sign and mask must be integers"),
        ([(1.0, 1)], 1, TypeError, "sign and mask must be integers"),
        ([(1, "1")], 1, TypeError, "sign and mask must be integers"),
        ([("-1", 1)], 1, TypeError, "sign and mask must be integers"),
    ], ids=["no-images", "n-zero", "float-mask", "float-sign", "text-mask",
            "text-sign"])
    def test_unit_images_are_validated(self, images, n, error, message):
        with pytest.raises(error, match=message):
            unit_images_to_automorphism(images, n)

    def test_bool_unit_images_read_as_ints(self):
        images = [(True, True), (1, 0b10)]
        assert unit_images_to_automorphism(images, 2) == Automorphism.identity(2)
