"""Brute-force validators, independent of every closed-form count.

The counting module trusts formulas; this module trusts nothing.  It walks
entire signed-permutation groups element by element, literally composes
maps, and grinds through special sets with exact scaled-integer arithmetic,
so that agreement between the two routes is meaningful evidence.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .automorphism import Automorphism
from .idempotent import ComplexComponent, IdempotentVector, from_idempotent, to_idempotent
from .mc_core import DyadicRational, MulticomplexNumber, unit_product
from .special_elements import SpecialSetKind, special_element_for_pattern

__all__ = [
    "VerificationReport",
    "brute_count_r_involutions",
    "brute_count_signed_involutions",
    "verify_homomorphism",
    "verify_special_sets",
    "corrupted_component_action",
]


class VerificationReport:
    """Outcome of a verification run: a pass flag, a check count, and the
    first violated identity with witnesses (when any)."""

    __slots__ = ("ok", "checks", "failure")

    def __init__(self, ok: bool, checks: int, failure: dict | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "failure", failure)

    def __setattr__(self, name, value):
        raise AttributeError("VerificationReport is immutable")

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        out = {"ok": self.ok, "checks": self.checks}
        if self.failure is not None:
            out["failure"] = self.failure
        return out

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAILED: {self.failure}"
        return f"VerificationReport({self.checks} checks, {status})"


def _signed_power_count(N: int, r: int) -> int:
    """Literally compose every signed permutation on N symbols with itself
    r times and count the identities.  The walk is exhaustive by design,
    N! unsigned permutations times r compositions, so the caller bounds N
    and r.

    The unsigned part iterates sigma^t by repeated application; the sign of
    the r-fold composite at position j is the product of the sign choices
    along sigma^0(j)..sigma^(r-1)(j), evaluated for all 2^N sign vectors at
    once as a +-1 integer array.
    """
    n_masks = 1 << N
    signs = np.ones((n_masks, N), dtype=np.int8)
    mask_values = np.arange(n_masks)
    for j in range(N):
        signs[:, j] = 1 - 2 * ((mask_values >> j) & 1)
    identity = tuple(range(N))
    total = 0
    for base in itertools.permutations(range(N)):
        powers = [identity]
        for _ in range(r - 1):
            prev = powers[-1]
            powers.append(tuple(base[p] for p in prev))
        final = tuple(base[p] for p in powers[-1])
        if final != identity:
            continue
        prod = np.ones((n_masks, N), dtype=np.int32)
        for table in powers:
            prod *= signs[:, table]
        total += int(np.count_nonzero((prod == 1).all(axis=1)))
    return total


def brute_count_r_involutions(n: int, r: int) -> int:
    """Count automorphisms f of MC(n) with f^r = identity by exhausting the
    signed-permutation group, no formulas involved."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return _signed_power_count(1 << (n - 1), r)


def brute_count_signed_involutions(N: int) -> int:
    """Count signed permutations on N symbols squaring to the identity by
    exhaustive composition."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return _signed_power_count(N, 2)


# ---------------------------------------------------------------------------
# homomorphism verification


class _CorruptedAction:
    """A linear map agreeing with a base automorphism except that the image
    of one elementary idempotent has its sign flipped, while the matching
    imaginary part transports normally.  Deliberately not multiplicative."""

    __slots__ = ("base", "component")

    def __init__(self, base: Automorphism, component: int):
        self.base = base
        self.component = component

    @property
    def order_n(self) -> int:
        return self.base.order_n

    def apply(self, eta: MulticomplexNumber) -> MulticomplexNumber:
        n = self.base.order_n
        vec = to_idempotent(eta)
        out = list(vec.components)
        for j, comp in enumerate(vec.components):
            v = self.base.perm.images[j]
            moved = comp if v > 0 else comp.conjugate()
            if j == self.component:
                moved = ComplexComponent(-moved.re, moved.im)
            out[abs(v) - 1] = moved
        return from_idempotent(IdempotentVector(n, out))


def corrupted_component_action(base: Automorphism, component: int):
    """Negative control for verify_homomorphism: flips the sign on one
    idempotent-component image without touching its imaginary partner."""
    if not 0 <= component < (1 << (base.order_n - 1)):
        raise ValueError("component index out of range")
    return _CorruptedAction(base, component)


def _witness(law: str, inputs: Sequence[MulticomplexNumber],
             lhs: MulticomplexNumber, rhs: MulticomplexNumber) -> dict:
    return {
        "law": law,
        "inputs": [str(x) for x in inputs],
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def verify_homomorphism(f, samples: Iterable[MulticomplexNumber] | None = None
                        ) -> VerificationReport:
    """Check ring-homomorphism laws for a map on MC(n), exactly.

    Multiplicativity is checked on every pair of canonical units (which
    spans everything by bilinearity), along with additivity and real
    scaling; the optional samples are checked pairwise on top of that.
    f may be an Automorphism or any object with order_n and apply().
    """
    n = f.order_n
    apply = f.apply
    units = [MulticomplexNumber.unit(m, n) for m in range(1 << n)]
    images = [apply(u) for u in units]
    scalars = [DyadicRational(3, 1), DyadicRational(-2, 0)]
    checks = 0

    for a, ua in enumerate(units):
        for b, ub in enumerate(units):
            product = ua * ub
            lhs = apply(product)
            rhs = images[a] * images[b]
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks, _witness("multiplicative", [ua, ub], lhs, rhs)
                )
            total = ua + ub
            lhs = apply(total)
            rhs = images[a] + images[b]
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks, _witness("additive", [ua, ub], lhs, rhs)
                )
        for lam in scalars:
            lhs = apply(ua.scale(lam))
            rhs = images[a].scale(lam)
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks,
                    _witness(f"real-scaling by {lam}", [ua], lhs, rhs),
                )

    sample_list = list(samples) if samples is not None else []
    sample_images = [apply(s) for s in sample_list]
    for (i, x), (j, y) in itertools.combinations(enumerate(sample_list), 2):
        lhs = apply(x * y)
        rhs = sample_images[i] * sample_images[j]
        checks += 1
        if lhs != rhs:
            return VerificationReport(
                False, checks, _witness("multiplicative", [x, y], lhs, rhs)
            )
        lhs = apply(x + y)
        rhs = sample_images[i] + sample_images[j]
        checks += 1
        if lhs != rhs:
            return VerificationReport(
                False, checks, _witness("additive", [x, y], lhs, rhs)
            )
    for i, x in enumerate(sample_list):
        for lam in scalars:
            lhs = apply(x.scale(lam))
            rhs = sample_images[i].scale(lam)
            checks += 1
            if lhs != rhs:
                return VerificationReport(
                    False, checks,
                    _witness(f"real-scaling by {lam}", [x], lhs, rhs),
                )
    return VerificationReport(True, checks)


# ---------------------------------------------------------------------------
# special-set verification


def _scaled_coeff_row(eta: MulticomplexNumber, n: int) -> np.ndarray:
    """Coefficient vector of eta times 2^(n-1), as int64 (must be exact)."""
    scale_exp = n - 1
    out = np.zeros(1 << n, dtype=np.int64)
    for mask, coeff in eta.support():
        if coeff.exp > scale_exp:
            raise AssertionError(
                f"coefficient {coeff} too fine for scale 2^{scale_exp}"
            )
        out[mask] = coeff.num << (scale_exp - coeff.exp)
    return out


def _element_from_scaled_row(row: np.ndarray, n: int) -> MulticomplexNumber:
    coeffs = {
        mask: DyadicRational(int(v), n - 1) for mask, v in enumerate(row) if v
    }
    return MulticomplexNumber.from_coeff_map(n, coeffs)


def _component_basis_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled coefficient vectors of the elementary idempotents and of their
    i1-multiples, one row per component index, via the library transform."""
    N = 1 << (n - 1)
    zero = ComplexComponent(DyadicRational(0), DyadicRational(0))
    one = ComplexComponent(DyadicRational(1), DyadicRational(0))
    imag = ComplexComponent(DyadicRational(0), DyadicRational(1))
    re_rows = np.zeros((N, 1 << n), dtype=np.int64)
    im_rows = np.zeros((N, 1 << n), dtype=np.int64)
    for t in range(N):
        comps = [zero] * N
        comps[t] = one
        re_rows[t] = _scaled_coeff_row(
            from_idempotent(IdempotentVector(n, comps)), n
        )
        comps[t] = imag
        im_rows[t] = _scaled_coeff_row(
            from_idempotent(IdempotentVector(n, comps)), n
        )
    return re_rows, im_rows


def _vectorized_square(C: np.ndarray, n: int) -> np.ndarray:
    """Row-wise square of scaled coefficient vectors."""
    width = 1 << n
    out = np.zeros_like(C)
    for a in range(width):
        ca = C[:, a]
        sign_aa, m = unit_product(a, a)
        out[:, m] += sign_aa * ca * ca
        for b in range(a + 1, width):
            sign, m = unit_product(a, b)
            out[:, m] += (2 * sign) * ca * C[:, b]
    return out


def verify_special_sets(n: int) -> VerificationReport:
    """Exact verification of the three special families of MC(n).

    Checks, for each of the squares-to-minus-one, squares-to-one, and
    idempotent families: the defining equation for every element, the
    cardinality 2^(2^(n-1)), and the cross-identities (minus-one family =
    i1 times the one family; idempotents = (1 + one family)/2, elementwise
    as sets).  Works on scaled integer coefficient arrays so n = 5 stays
    fast; spot-checks rows against the literal library enumeration.
    """
    if not 1 <= n <= 5:
        raise ValueError("n must be between 1 and 5")
    N = 1 << (n - 1)
    width = 1 << n
    scale = 1 << (n - 1)
    count = 1 << N
    re_rows, im_rows = _component_basis_rows(n)

    patterns = np.arange(count)
    bits = ((patterns[:, None] >> np.arange(N)[None, :]) & 1).astype(np.int64)
    pm = 1 - 2 * bits

    family_rows = {
        SpecialSetKind.SQUARE_MINUS_ONE: pm @ im_rows,
        SpecialSetKind.SQUARE_ONE: pm @ re_rows,
        SpecialSetKind.IDEMPOTENT: bits @ re_rows,
    }

    checks = 0
    failure = None

    # spot-check the array construction against the literal enumeration
    probe_indices = sorted({0, 1, count - 1, count // 3, (2 * count) // 3})
    for kind, rows in family_rows.items():
        literal = dict(_probe_special(kind, n, probe_indices))
        for idx in probe_indices:
            checks += 1
            expected = _scaled_coeff_row(literal[idx], n)
            if not np.array_equal(rows[idx], expected):
                return VerificationReport(False, checks, {
                    "law": "enumeration mismatch",
                    "kind": kind.value,
                    "index": idx,
                    "lhs": str(_element_from_scaled_row(rows[idx], n)),
                    "rhs": str(literal[idx]),
                })

    for kind, rows in family_rows.items():
        squares = _vectorized_square(rows, n)
        if kind is SpecialSetKind.SQUARE_MINUS_ONE:
            target = np.zeros(width, dtype=np.int64)
            target[0] = -scale * scale
            bad = np.nonzero((squares != target).any(axis=1))[0]
        elif kind is SpecialSetKind.SQUARE_ONE:
            target = np.zeros(width, dtype=np.int64)
            target[0] = scale * scale
            bad = np.nonzero((squares != target).any(axis=1))[0]
        else:
            bad = np.nonzero((squares != scale * rows).any(axis=1))[0]
        checks += rows.shape[0]
        if bad.size:
            idx = int(bad[0])
            failure = {
                "law": f"defining equation of {kind.value}",
                "element": str(_element_from_scaled_row(rows[idx], n)),
                "square": str(
                    _element_from_scaled_row(squares[idx] // scale, n)
                ),
            }
            return VerificationReport(False, checks, failure)
        checks += 1
        if len({row.tobytes() for row in rows}) != count:
            return VerificationReport(False, checks, {
                "law": f"cardinality of {kind.value}",
                "expected": count,
            })

    # minus-one family = i1 * (one family)
    h_rows = family_rows[SpecialSetKind.SQUARE_ONE]
    u_rows = family_rows[SpecialSetKind.SQUARE_MINUS_ONE]
    i1_h = np.zeros_like(h_rows)
    for m in range(width):
        sign, mm = unit_product(1, m)
        i1_h[:, mm] = sign * h_rows[:, m]
    checks += 1
    if {r.tobytes() for r in i1_h} != {r.tobytes() for r in u_rows}:
        return VerificationReport(False, checks, {
            "law": "minus-one family equals i1 times one family"
        })

    # idempotents = (1 + one family) / 2
    shifted = h_rows.copy()
    shifted[:, 0] += scale
    checks += 1
    if (shifted % 2 != 0).any():
        return VerificationReport(False, checks, {
            "law": "(1 + h)/2 stays dyadic at the family scale"
        })
    half = shifted // 2
    e_rows = family_rows[SpecialSetKind.IDEMPOTENT]
    checks += 1
    if {r.tobytes() for r in half} != {r.tobytes() for r in e_rows}:
        return VerificationReport(False, checks, {
            "law": "idempotent family equals (1 + one family)/2"
        })

    return VerificationReport(True, checks)


def _probe_special(kind, n: int, indices: Sequence[int]):
    """Literal library enumeration of a special family at chosen pattern
    indices only (the full generator is too slow at n = 5)."""
    for idx in indices:
        yield idx, special_element_for_pattern(kind, n, idx)
