"""Exact integer matrix algebra: Smith normal form and first homology.

Everything is plain Python ints (arbitrary precision); no floating point
anywhere.  Matrices are lists of row lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import FpPresentation, PresentationError

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact product a b.  Each row of the result sums the rows of b scaled
    by the nonzero entries of the matching row of a, so the cost follows
    the nonzeros of a, not its full size."""
    if a and len(a[0]) != len(b):
        raise ValueError(f"cannot multiply a {len(a)}x{len(a[0])} matrix "
                         f"by a {len(b)}-row matrix")
    width = len(b[0]) if b else 0
    product = []
    for row in a:
        acc = [0] * width
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        product.append(acc)
    return product


class SmithCheckError(ArithmeticError):
    """A computed Smith form failed its witness check: a fault in the
    elimination, never a property of the input."""


@dataclass(frozen=True)
class SmithForm:
    """D = U M V with U, V unimodular and D diagonal, each diagonal entry
    nonnegative and dividing the next."""

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d),
                                                len(self.d[0]) if self.d else 0))]


def _check_smith(m: IntMatrix, d: IntMatrix, u: IntMatrix, v: IntMatrix,
                 u_inv: IntMatrix, v_inv: IntMatrix) -> None:
    """Raise SmithCheckError unless U M V = D, D is diagonal, U U^-1 = I,
    V V^-1 = I and the diagonal of D is a nonnegative divisibility chain
    with its zeros last.  Integer matrices whose product is I have
    determinant ±1, so the two inverse products prove U and V unimodular."""
    if mat_mul(mat_mul(u, m), v) != d:
        raise SmithCheckError("U M V != D")
    if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        raise SmithCheckError("D is not diagonal")
    if mat_mul(u, u_inv) != identity_matrix(len(u)):
        raise SmithCheckError("U U^-1 != I: U is not unimodular")
    if mat_mul(v, v_inv) != identity_matrix(len(v)):
        raise SmithCheckError("V V^-1 != I: V is not unimodular")
    diag = SmithForm(d, u, v).diagonal
    if any(x < 0 for x in diag):
        raise SmithCheckError("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise SmithCheckError("zero followed by a nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise SmithCheckError(f"divisibility chain broken: {x} does not "
                                  f"divide {y}")


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over Z with recorded transforms.

    Pivoting always picks a smallest-magnitude nonzero entry, the first in
    row-major order, which keeps intermediate growth tame for the small
    matrices we see.  No nonzero entry is smaller than a unit, so the
    search stops at the first entry of magnitude 1, and a unit pivot skips
    the divisibility scan of the trailing block, since it divides every
    entry.  Relation matrices are mostly unit entries, so most pivots end
    their search early (Havas, Holt & Rees, Linear Algebra Appl. 192,
    1993).  Every row or column operation is mirrored on integer inverses
    of U and V, and the result is checked by _check_smith (U M V = D,
    U U^-1 = V V^-1 = I, divisibility chain) before being returned; a
    failed check raises SmithCheckError, also under python -O.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = [row[:] for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    # U^-1 transposed and V^-1: the inverse of each operation on U or V is
    # a row operation on these, as cheap as the operation itself
    u_inv_t = identity_matrix(rows)
    v_inv = identity_matrix(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, q):        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - q * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(src, dst, q):        # col dst += q * col src
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        u_inv_t[i] = [-x for x in u_inv_t[i]]

    t = 0
    while True:
        # first smallest-magnitude nonzero entry of the trailing block, in
        # row-major order; no entry beats a unit, so the search ends there
        pivot, least = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (pivot is None or x < least):
                    pivot, least = (i, j), x
                    if x == 1:
                        break
            if least == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        # clear row and column t; each pass strictly shrinks |a[t][t]|
        # whenever a remainder shows up, so this terminates
        while True:
            for i in range(t + 1, rows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:          # nonzero remainder: better pivot
                    swap_rows(t, i)
            if any(a[i][t] for i in range(t + 1, rows)):
                continue
            for j in range(t + 1, cols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    swap_cols(t, j)
            if any(a[i][t] for i in range(t + 1, rows)) or \
               any(a[t][j] for j in range(t + 1, cols)):
                continue
            break

        # divisibility: the pivot must divide the whole trailing block,
        # which a unit always does
        p = a[t][t]
        bad = None if abs(p) == 1 else next(
            (i for i in range(t + 1, rows) if any(x % p for x in a[i][t + 1:])),
            None)
        if bad is not None:
            add_row(bad, t, 1)        # drag the offending row up, redo block
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    _check_smith(m, a, u, v, [list(col) for col in zip(*u_inv_t)], v_inv)
    return SmithForm(d=a, u=u, v=v)


@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank  (+)  Z/t1 (+) ... (+) Z/tk  with 2 <= t1 | t2 | ... | tk."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntMatrix, n_cols: int) -> AbelianGroup:
    """Z^n_cols / (row space of m).

    Zero rows are dropped first: they add nothing to the row space, so the
    cokernel is the same, and the Smith form (and its witness check) then
    works on the nonzero rows only.  Relation matrices have many, one for
    each relator with zero exponent sum in every generator, such as a
    commutator."""
    m = [row for row in m if any(row)]
    if not m:
        return AbelianGroup(rank=n_cols)
    diag = smith_normal_form(m).diagonal
    nonzero = [d for d in diag if d != 0]
    return AbelianGroup(rank=n_cols - len(nonzero),
                        torsion=tuple(d for d in nonzero if d > 1))


def relation_matrix(p: FpPresentation, include_h1_safe_conditionals: bool = False
                    ) -> IntMatrix:
    """Exponent-sum matrix: one row per relator, one column per generator.

    A conditional relator may be included only when its key word has zero
    exponent sum in every generator — then the key is already trivial in
    H1, so the relation holds there unconditionally.
    """
    if p.meridional:
        raise PresentationError(
            "presentation still carries a meridional tier; its generator "
            "count is symbolic, so the abelianization is not determined — "
            "discharge or strip the tier first")
    index = {g: j for j, g in enumerate(p.generators)}
    rows: list[list[int]] = []

    def row_of(w) -> list[int]:
        row = [0] * len(p.generators)
        for name, sign in w.letters:
            row[index[name]] += sign
        return row

    for r in p.relators:
        rows.append(row_of(r))
    if include_h1_safe_conditionals:
        for c in p.conditional:
            if all(v == 0 for v in row_of(c.key)):
                rows.append(row_of(c.relator))
    return rows


def h1(p: FpPresentation, include_h1_safe_conditionals: bool = False
       ) -> AbelianGroup:
    """First homology (abelianization) of the presented group."""
    return cokernel(relation_matrix(p, include_h1_safe_conditionals),
                    len(p.generators))
