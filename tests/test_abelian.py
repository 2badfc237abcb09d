"""Smith normal form and H1.

The SNF oracle values below were computed by hand from the two standard
facts d_1 = gcd(entries) and d_1 ... d_k = gcd(k x k minors); the property
block then checks the defining equations U M V = D, unimodularity (by an
independent determinant), and the divisibility chain on random matrices.
The fault-injection block feeds the built-in witness check broken Smith
forms, each of which must raise.
"""

import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from m4kit.abelian import (
    AbelianGroup,
    SmithCheckError,
    _check_smith,
    cokernel,
    h1,
    identity_matrix,
    mat_mul,
    relation_matrix,
    smith_normal_form,
)
from m4kit.presentation import ConditionalRelator, FpPresentation, MeridionalTier, PresentationError
from m4kit.words import commutator, gen, parse_word


def determinant(m):
    """Exact determinant by Bareiss fraction-free elimination: the oracle
    for unimodularity and for the product of the invariant factors."""
    n = len(m)
    if n == 0:
        return 1
    assert all(len(row) == n for row in m), "determinant needs a square matrix"
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# -- frozen oracles -----------------------------------------------------------

@pytest.mark.parametrize("matrix, diag", [
    ([[2, 4], [6, 8]], [2, 4]),          # det -8, gcd 2
    ([[1, 0], [0, 1]], [1, 1]),
    ([[2, 0], [0, 3]], [1, 6]),          # coprime diagonal folds to 1, 6
    ([[0]], [0]),
    ([[6, 10], [15, 25]], [1, 0]),       # rank 1, unit content
    ([[4, 6], [6, 4]], [2, 10]),         # det -20, gcd 2
    ([[2, 0], [0, 2], [0, 0]], [2, 2]),  # non-square
    ([[0, 0], [0, 0]], [0, 0]),
])
def test_snf_oracles(matrix, diag):
    assert smith_normal_form(matrix).diagonal == diag


def test_snf_transforms_witness_the_form():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    f = smith_normal_form(m)
    assert mat_mul(mat_mul(f.u, m), f.v) == f.d
    assert abs(determinant(f.u)) == 1
    assert abs(determinant(f.v)) == 1


def test_determinant_oracles():
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant(identity_matrix(4)) == 1
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # 3-cycle is even


def test_mat_mul_oracles():
    assert mat_mul([[1, 2], [3, 4]], [[5, 6], [7, 8]]) == [[19, 22], [43, 50]]
    assert mat_mul([[0, 0, 2]], [[1], [5], [-3]]) == [[-6]]
    assert mat_mul([[1], [0]], [[4, 5]]) == [[4, 5], [0, 0]]
    assert mat_mul([], [[1]]) == []
    with pytest.raises(ValueError):
        mat_mul([[1, 2]], [[1, 2]])


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


# -- fault injection: the witness check must catch each broken form -----------

# a hand-checked witness: U M V = D, U is its own inverse
M = [[2, 4], [6, 8]]
D = [[2, 0], [0, 4]]
U = [[1, 0], [3, -1]]
V = [[1, -2], [0, 1]]
V_INV = [[1, 2], [0, 1]]
I1, I2 = identity_matrix(1), identity_matrix(2)


def test_hand_witness_passes_the_check():
    _check_smith(M, D, U, V, U, V_INV)


@pytest.mark.parametrize("m, d, u, v, u_inv, v_inv, message", [
    (M, [[2, 0], [0, 8]], U, V, U, V_INV, "U M V != D"),
    (M, D, U, V, U, V, "V V^-1 != I"),
    # U = [[2]] has no integer inverse; [[1]] does not invert it
    ([[1]], [[2]], [[2]], I1, I1, I1, "U U^-1 != I"),
    ([[2, 0], [0, 3]], [[2, 0], [0, 3]], I2, I2, I2, I2,
     "2 does not divide 3"),
    ([[0, 0], [0, 3]], [[0, 0], [0, 3]], I2, I2, I2, I2,
     "zero followed by a nonzero"),
    ([[-2]], [[-2]], I1, I1, I1, I1, "negative"),
    ([[1, 1]], [[1, 1]], I1, I2, I1, I2, "not diagonal"),
])
def test_witness_check_raises(m, d, u, v, u_inv, v_inv, message):
    with pytest.raises(SmithCheckError, match=re.escape(message)):
        _check_smith(m, d, u, v, u_inv, v_inv)


def test_witness_check_raises_under_optimize():
    # the check is an exception, not an assert: python -O keeps it
    code = ("from m4kit.abelian import _check_smith\n"
            "_check_smith([[1]], [[2]], [[2]], [[1]], [[1]], [[1]])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "SmithCheckError: U U^-1 != I" in proc.stderr


# -- property block -----------------------------------------------------------

entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_snf_defining_equations(m):
    f = smith_normal_form(m)
    assert mat_mul(mat_mul(f.u, m), f.v) == f.d
    assert abs(determinant(f.u)) == 1
    assert abs(determinant(f.v)) == 1
    diag = f.diagonal
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    # off-diagonal must vanish
    for i, row in enumerate(f.d):
        for j, v in enumerate(row):
            assert i == j or v == 0


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_snf_square_preserves_determinant_magnitude(m):
    n = min(len(m), len(m[0]))
    m = [row[:n] for row in m[:n]]
    prod = 1
    for d in smith_normal_form(m).diagonal:
        prod *= d
    assert prod == abs(determinant(m))


# -- cokernels / H1 -----------------------------------------------------------

def test_cokernel_oracles():
    assert cokernel([], 3) == AbelianGroup(3)
    assert cokernel([[5]], 1) == AbelianGroup(0, (5,))
    assert cokernel([[1]], 1) == AbelianGroup(0)
    assert cokernel([[2, 0], [0, 4]], 2) == AbelianGroup(0, (2, 4))
    assert cokernel([[0, 0]], 2) == AbelianGroup(2)


def test_abelian_group_order_and_str():
    assert str(AbelianGroup(1, (3,))) == "Z + Z/3"
    assert str(AbelianGroup(0)) == "0"


def test_h1_oracles():
    a, b = gen("a"), gen("b")
    free2 = FpPresentation(("a", "b"))
    assert h1(free2) == AbelianGroup(2)
    torus = FpPresentation(("a", "b"), (commutator(a, b),))
    assert h1(torus) == AbelianGroup(2)
    mixed = FpPresentation(("a", "b"),
                           (commutator(a, b), parse_word("a^2 b^4")))
    assert h1(mixed) == AbelianGroup(1, (2,))
    cyclic = FpPresentation(("a",), (parse_word("a^5"),))
    assert h1(cyclic) == AbelianGroup(0, (5,))


def test_h1_refuses_meridional_tier():
    p = FpPresentation(("a",), meridional=(MeridionalTier("g", gen("a")),))
    with pytest.raises(PresentationError):
        h1(p)


def test_h1_safe_conditional_rule():
    a, b = gen("a"), gen("b")
    # key [a,b] has zero exponent sums -> relation a^2 holds in H1 regardless
    safe = FpPresentation(("a", "b"), conditional=(
        ConditionalRelator(parse_word("a^2"), commutator(a, b)),))
    assert h1(safe) == AbelianGroup(2)
    assert h1(safe, include_h1_safe_conditionals=True) == AbelianGroup(1, (2,))
    # key a^2 survives abelianization -> never safe to include
    unsafe = FpPresentation(("a", "b"), conditional=(
        ConditionalRelator(parse_word("b^3"), parse_word("a^2")),))
    assert h1(unsafe, include_h1_safe_conditionals=True) == AbelianGroup(2)


def test_relation_matrix_shape():
    p = FpPresentation(("a", "b", "c"), (parse_word("a b^-1"), parse_word("c^2")))
    assert relation_matrix(p) == [[1, -1, 0], [0, 0, 2]]
