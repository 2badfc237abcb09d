"""Exact integer matrix algebra: Smith normal form and first homology.

Everything is plain Python ints (arbitrary precision); no floating point
anywhere.  Matrices are lists of row lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import FpPresentation, PresentationError

IntMatrix = list[list[int]]
# one elementary operation on the lines (rows, or columns) of a matrix:
# ("swap", i, j), ("negate", i), or ("add", i, j, q) for line j += q line i
Operation = tuple


class SmithCheckError(ArithmeticError):
    """A computed Smith form failed its witness check: a fault in the
    elimination, never a property of the input."""


@dataclass(frozen=True)
class SmithForm:
    """D = U M V with D diagonal, each diagonal entry nonnegative and
    dividing the next.  U and V are kept as logs of elementary operations:
    U is the product of the row operations and V of the column operations,
    so both are unimodular by construction."""

    d: IntMatrix
    row_ops: list[Operation]
    col_ops: list[Operation]

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d),
                                                len(self.d[0]) if self.d else 0))]


def _replay(lines: IntMatrix, ops: list[Operation], what: str) -> None:
    """Apply a log of elementary operations to `lines` in place.  Raise
    SmithCheckError on any other operation: an unknown kind, an index out
    of range, or a line added to itself (which scales it by 1 + q)."""
    n = len(lines)
    for op in ops:
        match op:
            case ("swap", int(i), int(j)) if 0 <= i < n and 0 <= j < n:
                lines[i], lines[j] = lines[j], lines[i]
            case ("negate", int(i)) if 0 <= i < n:
                lines[i] = [-x for x in lines[i]]
            case ("add", int(i), int(j), int(q)) if (
                    i != j and 0 <= i < n and 0 <= j < n):
                lines[j] = [x + q * y for x, y in zip(lines[j], lines[i])]
            case _:
                raise SmithCheckError(f"{op!r} is not an elementary {what} "
                                      f"operation on {n} {what}s")


def _transpose(a: IntMatrix, width: int) -> IntMatrix:
    return [[row[j] for row in a] for j in range(width)]


def _check_smith(m: IntMatrix, form: SmithForm) -> None:
    """Raise SmithCheckError unless replaying the logs on M gives D, every
    logged operation is elementary, D is diagonal and its diagonal is a
    nonnegative divisibility chain with its zeros last.  Row operations
    act on the rows of M, then column operations on the rows of the
    transpose: the two kinds commute, so this is U M V."""
    rows = [row[:] for row in m]
    _replay(rows, form.row_ops, "row")
    cols = _transpose(rows, len(m[0]) if m else 0)
    _replay(cols, form.col_ops, "column")
    if _transpose(cols, len(m)) != form.d:
        raise SmithCheckError("U M V != D")
    d = form.d
    if any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        raise SmithCheckError("D is not diagonal")
    diag = form.diagonal
    if any(x < 0 for x in diag):
        raise SmithCheckError("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise SmithCheckError("zero followed by a nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise SmithCheckError(f"divisibility chain broken: {x} does not "
                                  f"divide {y}")


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over Z with a logged witness.

    Pivoting always picks a smallest-magnitude nonzero entry, the first in
    row-major order, which keeps intermediate growth tame for the small
    matrices we see.  No nonzero entry is smaller than a unit, so the
    search stops at the first entry of magnitude 1, and a unit pivot skips
    the divisibility scan of the trailing block, since it divides every
    entry.  Relation matrices are mostly unit entries, so most pivots end
    their search early (Havas, Holt & Rees, Linear Algebra Appl. 192,
    1993).  The elimination transforms M alone and logs each elementary
    operation.  The result is checked by _check_smith, which replays the
    logs on M with its own code, before being returned; a failed check
    raises SmithCheckError, also under python -O.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    a = [row[:] for row in m]
    row_ops: list[Operation] = []
    col_ops: list[Operation] = []

    def swap_rows(i, j):             # a pivot already in place logs nothing
        if i != j:
            a[i], a[j] = a[j], a[i]
            row_ops.append(("swap", i, j))

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            col_ops.append(("swap", i, j))

    def add_row(src, dst, q):        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q):        # col dst += q * col src
        for row in a:
            row[dst] += q * row[src]
        col_ops.append(("add", src, dst, q))

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
            a[t] = [-x for x in a[t]]
            row_ops.append(("negate", t))
        t += 1

    form = SmithForm(d=a, row_ops=row_ops, col_ops=col_ops)
    _check_smith(m, form)
    return form


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
