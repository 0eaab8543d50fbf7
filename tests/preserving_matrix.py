"""The test-side reader of the matrices that enumerate_preserving_involutions
yields, shared by the test modules that check them."""
from multicomplex.gf2_preserving import _transpose


def matrix_unit_data(matrix):
    """Read (masks, sign_bits) back from an emitted (n+1) x (n+1) matrix:
    column j < n holds masks[j] above sign bit j, and the last column is
    zero above the affine corner 1."""
    n = matrix.n_cols - 1
    masks = _transpose(matrix.rows[:n], n)
    sign_bits = [(matrix.rows[n] >> j) & 1 for j in range(n)]
    return masks, sign_bits
