"""Smith normal form and H1.

The SNF oracle values below were computed by hand from the two standard
facts d_1 = gcd(entries) and d_1 ... d_k = gcd(k x k minors); the property
block rebuilds U and V from the operation logs and checks the defining
equations U M V = D, unimodularity (by an independent determinant), and
the divisibility chain on random matrices.  The fault-injection blocks
feed the built-in witness check broken Smith forms, each of which must
raise, directly and by corrupting the elimination's witness on its way to
the check.  The full-scan block keeps the dense pivot rule as a reference:
the sparse elimination, which both the Smith form and H1 run, must give
the same D and the same logged operations, with no swap of a line with
itself.
"""

import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import m4kit.abelian as abelian
from m4kit.abelian import (
    AbelianGroup,
    SmithCheckError,
    SmithForm,
    _check_smith,
    _smith,
    _sparse,
    cokernel,
    h1,
    relation_rows,
    smith_normal_form,
)
from m4kit.constructions import exotic_odd_cp2
from m4kit.presentation import ConditionalRelator, FpPresentation, MeridionalTier, PresentationError
from m4kit.words import commutator, gen, parse_word


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def dense(rows, width):
    """The dense matrix of sparse rows ({column: entry} per row)."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def check(m, form):
    """The witness check on a dense M and a dense Smith form."""
    return _check_smith(_sparse(m), len(m[0]) if m else 0, _sparse(form.d),
                        form.row_ops, form.col_ops)


def transforms(m, f):
    """(U, V) as the products of the logged operations: each operation is
    applied to the lines of an identity matrix, columns of V as rows of
    its transpose.  Written apart from the package's own replay."""
    def apply(ops, n):
        e = identity_matrix(n)
        for op in ops:
            if op[0] == "swap":
                e[op[1]], e[op[2]] = e[op[2]], e[op[1]]
            elif op[0] == "negate":
                e[op[1]] = [-x for x in e[op[1]]]
            else:
                _, i, j, q = op
                e[j] = [x + q * y for x, y in zip(e[j], e[i])]
        return e
    v_t = apply(f.col_ops, len(m[0]) if m else 0)
    return apply(f.row_ops, len(m)), [list(col) for col in zip(*v_t)]


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
    # two unit pivots leave the unit-free block [[4, 6], [6, 4]] above
    ([[1, 2, 0, 0], [0, 4, 6, 0], [3, 12, 4, 0], [0, 0, 5, -1]],
     [1, 1, 2, 10]),
])
def test_snf_oracles(matrix, diag):
    assert smith_normal_form(matrix).diagonal == diag


def test_snf_transforms_witness_the_form():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    f = smith_normal_form(m)
    u, v = transforms(m, f)
    assert mat_mul(mat_mul(u, m), v) == f.d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1


def test_determinant_oracles():
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant(identity_matrix(4)) == 1
    assert determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1  # 3-cycle is even


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])


# -- fault injection: the witness check must catch each broken form -----------

# a hand-checked witness: row 1 -= 3 row 0, negate row 1, then
# column 1 -= 2 column 0 takes M to D
M = [[2, 4], [6, 8]]
D = [[2, 0], [0, 4]]
ROW_OPS = [("add", 0, 1, -3), ("negate", 1)]
COL_OPS = [("add", 0, 1, -2)]


def test_hand_witness_passes_the_check():
    check(M, SmithForm(D, ROW_OPS, COL_OPS))


@pytest.mark.parametrize("m, form, message", [
    (M, SmithForm([[2, 0], [0, 8]], ROW_OPS, COL_OPS), "U M V != D"),
    # D is right, but the log does not produce it
    (M, SmithForm(D, ROW_OPS, COL_OPS + [("swap", 0, 1)]), "U M V != D"),
    # row 0 += row 0 doubles it: the replay gives D, but U = [[2]] is not
    # unimodular, so the operation must be refused
    ([[1]], SmithForm([[2]], [("add", 0, 0, 1)], []),
     "('add', 0, 0, 1) is not an elementary row operation"),
    ([[1]], SmithForm([[1]], [], [("swap", 0, 1)]),
     "('swap', 0, 1) is not an elementary column operation on 1 columns"),
    ([[1]], SmithForm([[1]], [("negate", -1)], []),
     "is not an elementary row operation"),
    ([[1]], SmithForm([[1]], [("scale", 0, 1)], []),
     "is not an elementary row operation"),
    ([[2, 0], [0, 3]], SmithForm([[2, 0], [0, 3]], [], []),
     "2 does not divide 3"),
    ([[0, 0], [0, 3]], SmithForm([[0, 0], [0, 3]], [], []),
     "zero followed by a nonzero"),
    ([[-2]], SmithForm([[-2]], [], []), "negative"),
    ([[1, 1]], SmithForm([[1, 1]], [], []), "not diagonal"),
], ids=["wrong D", "wrong D from the log", "line added to itself",
        "index out of range", "negative index", "unknown kind",
        "broken chain", "zero before a nonzero", "negative entry",
        "not diagonal"])
def test_witness_check_raises(m, form, message):
    with pytest.raises(SmithCheckError, match=re.escape(message)):
        check(m, form)


@pytest.mark.parametrize("m", [[], [[], []], [[0, 0]], [[0], [0], [0]]],
                         ids=["no rows", "no columns", "one zero row",
                              "one zero column"])
def test_empty_and_zero_shapes_pass_the_check(m):
    f = smith_normal_form(m)
    assert f.d == m
    check(m, f)
    # the shape of D is part of the witness, including its empty rows
    with pytest.raises(SmithCheckError, match="U M V != D"):
        check(m, SmithForm(m[:-1] if m else [[]], [], []))


def test_witness_check_raises_under_optimize():
    # the check is an exception, not an assert: python -O keeps it
    code = ("from m4kit.abelian import _check_smith\n"
            "_check_smith([{0: 1}], 1, [{0: 2}], [('add', 0, 0, 1)], [])\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert ("SmithCheckError: ('add', 0, 0, 1) is not an elementary row "
            "operation") in proc.stderr


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
    u, v = transforms(m, f)
    assert mat_mul(mat_mul(u, m), v) == f.d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
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


# -- the full-scan pivot rule, kept as an oracle --------------------------------

def full_scan_smith(m):
    """(D, row operations, column operations) by the pivot rule the unit
    shortcuts must reproduce: each pivot search scans the whole trailing
    block for its first smallest entry, and each pivot is followed by a
    full divisibility scan."""
    rows, cols = len(m), len(m[0])
    a = [row[:] for row in m]
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            row_ops.append(("swap", i, j))

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            col_ops.append(("swap", i, j))

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        col_ops.append(("add", src, dst, q))

    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j])
                                     < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                add_row(t, i, -(a[i][t] // a[t][t]))
                if a[i][t] != 0:
                    swap_rows(t, i)
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                add_col(t, j, -(a[t][j] // a[t][t]))
                if a[t][j] != 0:
                    swap_cols(t, j)
            if any(a[i][t] for i in range(t + 1, rows)) or \
               any(a[t][j] for j in range(t + 1, cols)):
                continue
            break
        bad = [i for i in range(t + 1, rows) for j in range(t + 1, cols)
               if a[i][j] % a[t][t] != 0]
        if bad:
            add_row(bad[0], t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            row_ops.append(("negate", t))
        t += 1
    return a, row_ops, col_ops


def identity_swaps(f):
    """The logged swaps of a line with itself: a pivot already in place
    needs no operation, so the log holds none."""
    return [op for op in f.row_ops + f.col_ops
            if op[0] == "swap" and op[1] == op[2]]


def random_matrices(count, seed):
    """Seeded matrices of 1-9 rows and columns with entries in -6..6: some
    sparse like relation matrices, some with a zero row or column, and
    every third one free of units."""
    rng = random.Random(seed)
    for k in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        values = [x for x in range(-6, 7) if x and (k % 3 or abs(x) != 1)]
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.choice(values) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if k % 4 == 0:
            m[rng.randrange(rows)] = [0] * cols
        if k % 5 == 0:
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        yield m


def test_snf_matches_the_full_scan_oracle_on_random_matrices():
    matrices = list(random_matrices(600, seed=20240))
    assert sum(not any(x in (1, -1) for row in m for x in row)
               for m in matrices) >= 200
    for m in matrices:
        f = smith_normal_form(m)
        assert (f.d, f.row_ops, f.col_ops) == full_scan_smith(m), m
        assert not identity_swaps(f), m


@st.composite
def padded_matrices(draw):
    """Matrices for the sparse elimination: up to 6 x 6 entries from a set
    that may hold no unit, so that some trailing blocks are unit-free,
    with zero rows and columns inserted anywhere (shapes down to 0 x 0)."""
    values = draw(st.sampled_from([(1, -1, 2, -3), (2, -2, 3, -4, 6),
                                   (1, -1), (4, -6, 9)]))
    entries = st.sampled_from((0, 0) + values)
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    for i in draw(st.lists(st.integers(min_value=0, max_value=6), max_size=2)):
        m.insert(min(i, len(m)), [0] * cols)
    for j in draw(st.lists(st.integers(min_value=0, max_value=6), max_size=2)):
        for row in m:
            row.insert(min(j, cols), 0)
        cols += 1
    return m, cols


@settings(max_examples=300, deadline=None)
@given(padded_matrices())
def test_sparse_elimination_matches_the_full_scan_oracle(case):
    m, width = case
    expected = [], [], []
    if m and width:
        d, row_ops, col_ops = full_scan_smith(m)
        diag = [d[i][i] for i in range(min(len(m), width))]
        expected = diag, row_ops, col_ops
    assert _smith(_sparse(m), width)[:3] == expected


@pytest.mark.parametrize("n", [5, 20])
def test_snf_matches_the_full_scan_oracle_on_the_paper_family(n):
    p = exotic_odd_cp2(n, 1).pi1.strip_meridional()
    rows = relation_rows(p, include_h1_safe_conditionals=True)
    m = dense(rows, len(p.generators))
    for matrix in (m, [row for row in m if any(row)]):
        f = smith_normal_form(matrix)
        assert (f.d, f.row_ops, f.col_ops) == full_scan_smith(matrix)
        assert not identity_swaps(f)


# -- the sparse elimination's witness -----------------------------------------

# the last case of test_snf_oracles as sparse rows: row 2 -= 3 row 0, then
# columns 1 and 2 are cleared of rows 0 and 3, and the two unit pivots
# leave the unit-free block [[4, 6], [6, 4]]
MIXED_PIVOTS = [{0: 1, 1: 2}, {1: 4, 2: 6}, {0: 3, 1: 12, 2: 4}, {2: 5, 3: -1}]


def sparse_cases():
    p = exotic_odd_cp2(5, 1).pi1.strip_meridional()
    rows = [row for row in relation_rows(p, True) if row]
    return [(rows, len(p.generators)), (MIXED_PIVOTS, 4)]


def _drop_an_add(m, width, d, row_ops, col_ops):
    k = next(k for k, op in enumerate(row_ops) if op[0] == "add" and op[3])
    return m, width, d, row_ops[:k] + row_ops[k + 1:], col_ops


def _self_add(m, width, d, row_ops, col_ops):
    return m, width, d, [("add", 0, 0, 1)] + row_ops, col_ops


def _index_out_of_range(m, width, d, row_ops, col_ops):
    return m, width, d, row_ops, col_ops + [("swap", 0, width)]


def _wrong_diagonal(m, width, d, row_ops, col_ops):
    return m, width, [{0: 2}] + d[1:], row_ops, col_ops


SPARSE_FAULTS = {"dropped operation": (_drop_an_add, "U M V != D"),
                 "self-add": (_self_add, "not an elementary row operation"),
                 "index out of range": (_index_out_of_range,
                                        "not an elementary column operation"),
                 "wrong diagonal": (_wrong_diagonal, "U M V != D")}


@pytest.mark.parametrize("fault", SPARSE_FAULTS)
def test_sparse_witness_check_catches_a_corrupted_witness(fault, monkeypatch):
    corrupt, message = SPARSE_FAULTS[fault]
    real = abelian._check_smith
    monkeypatch.setattr(abelian, "_check_smith",
                        lambda *w: real(*corrupt(*w)))
    for m, width in sparse_cases():
        with pytest.raises(SmithCheckError, match=re.escape(message)):
            _smith(m, width)


def test_sparse_witness_check_raises_under_optimize():
    code = ("import sys\n"
            "sys.path.insert(0, 'tests')\n"
            "import m4kit.abelian as abelian\n"
            "from test_abelian import SPARSE_FAULTS, sparse_cases\n"
            "real = abelian._check_smith\n"
            "for corrupt, _ in SPARSE_FAULTS.values():\n"
            "    abelian._check_smith = lambda *w: real(*corrupt(*w))\n"
            "    for m, width in sparse_cases():\n"
            "        try:\n"
            "            abelian._smith(m, width)\n"
            "        except abelian.SmithCheckError:\n"
            "            print('raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parent.parent)
    assert proc.stdout.split() == ["raised"] * 2 * len(SPARSE_FAULTS), \
        proc.stderr


def test_sparse_elimination_work_is_linear_in_relator_letters():
    # entries read or written by the elimination and its check at n = 320
    # stay within twice the relator letters; a dense elimination copies
    # and scans every cell of the relation matrix, which is over that bound
    p = exotic_odd_cp2(320, 1).pi1.strip_meridional()
    rows = [row for row in relation_rows(p, True) if row]
    letters = sum(map(len, p.relators)) + sum(
        len(c.relator) for c in p.conditional)
    diag, _, _, touched = _smith(rows, len(p.generators))
    assert diag == [1] * len(p.generators)
    assert touched <= 2 * letters
    assert len(rows) * len(p.generators) > 2 * letters


# -- cokernels / H1 -----------------------------------------------------------

def test_cokernel_oracles():
    assert cokernel([], 3) == AbelianGroup(3)
    assert cokernel([{0: 5}], 1) == AbelianGroup(0, (5,))
    assert cokernel([{0: 1}], 1) == AbelianGroup(0)
    assert cokernel([{0: 2}, {1: 4}], 2) == AbelianGroup(0, (2, 4))
    assert cokernel([{}], 2) == AbelianGroup(2)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.lists(st.integers(min_value=0, max_value=6), max_size=4))
def test_cokernel_ignores_zero_rows(m, at):
    n_cols = len(m[0])
    padded = [row[:] for row in m]
    for i in at:
        padded.insert(min(i, len(padded)), [0] * n_cols)
    nonzero = [row for row in m if any(row)]
    assert cokernel(_sparse(padded), n_cols) == cokernel(_sparse(m), n_cols) \
        == cokernel(_sparse(nonzero), n_cols)


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
    p = FpPresentation(("a", "b", "c"),
                       (parse_word("a b^-1"), parse_word("c^2"), commutator(
                           gen("a"), gen("c"))))
    assert relation_rows(p) == [{0: 1, 1: -1}, {2: 2}, {}]
    assert dense(relation_rows(p), 3) == [[1, -1, 0], [0, 0, 2], [0, 0, 0]]
