"""Exact integer matrix algebra: Smith normal form and first homology.

Everything is plain Python ints (arbitrary precision); no floating point
anywhere.  A dense matrix is a list of row lists; a sparse one is a list
of rows, each a dict from column to nonzero entry.  H1 builds its relation
matrix sparsely, from the relators' letters; H1 and the dense Smith form
run one sparse elimination.
"""

from __future__ import annotations

from .presentation import FpPresentation, PresentationError
from .words import Record, set_field

IntMatrix = list[list[int]]
SparseRows = list[dict[int, int]]
# one elementary operation on the lines (rows, or columns) of a matrix:
# ("swap", i, j), ("negate", i), or ("add", i, j, q) for line j += q line i
Operation = tuple


class SmithCheckError(ArithmeticError):
    """A computed Smith form failed its witness check: a fault in the
    elimination, never a property of the input."""


class SmithForm(Record):
    """D = U M V with D diagonal, each diagonal entry nonnegative and
    dividing the next.  U and V are kept as logs of elementary operations:
    U is the product of the row operations and V of the column operations,
    so both are unimodular by construction."""

    __slots__ = ("d", "row_ops", "col_ops")

    def __init__(self, d: IntMatrix, row_ops: list[Operation],
                 col_ops: list[Operation]) -> None:
        set_field(self, "d", d)
        set_field(self, "row_ops", row_ops)
        set_field(self, "col_ops", col_ops)

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d),
                                                len(self.d[0]) if self.d else 0))]


def _replay(lines: SparseRows, ops: list[Operation], what: str) -> int:
    """Apply a log of elementary operations to the sparse `lines` in place
    and return the number of entries it touched.  Raise SmithCheckError on
    any other operation: an unknown kind, an index out of range, or a line
    added to itself (which scales it by 1 + q)."""
    n = len(lines)
    touched = 0
    for op in ops:
        match op:
            case ("swap", int(i), int(j)) if 0 <= i < n and 0 <= j < n:
                lines[i], lines[j] = lines[j], lines[i]
            case ("negate", int(i)) if 0 <= i < n:
                lines[i] = {k: -x for k, x in lines[i].items()}
                touched += len(lines[i])
            case ("add", int(i), int(j), int(q)) if (
                    i != j and 0 <= i < n and 0 <= j < n):
                line = lines[j]
                for k, y in lines[i].items():
                    if x := line.get(k, 0) + q * y:
                        line[k] = x
                    else:
                        line.pop(k, None)       # q may be 0
                touched += len(lines[i])
            case _:
                raise SmithCheckError(f"{op!r} is not an elementary {what} "
                                      f"operation on {n} {what}s")
    return touched


def _transpose(a: SparseRows, width: int) -> SparseRows:
    t: SparseRows = [{} for _ in range(width)]
    for i, row in enumerate(a):
        for j, x in row.items():
            t[j][i] = x
    return t


def _check_smith(m: SparseRows, width: int, d: SparseRows,
                 row_ops: list[Operation], col_ops: list[Operation]) -> int:
    """Raise SmithCheckError unless replaying the logs on M gives D, every
    logged operation is elementary, D is diagonal and its diagonal is a
    nonnegative divisibility chain with its zeros last.  M (`width`
    columns) and D are sparse.  Row operations act on the rows of M, then
    column operations on the rows of the transpose: the two kinds commute,
    so this is U M V.  Returns the number of entries the check touched."""
    rows = [dict(row) for row in m]
    touched = _replay(rows, row_ops, "row") + sum(map(len, rows))
    cols = _transpose(rows, width)
    touched += _replay(cols, col_ops, "column") + sum(map(len, cols))
    if _transpose(cols, len(m)) != d:
        raise SmithCheckError("U M V != D")
    if any(j != i for i, row in enumerate(d) for j in row):
        raise SmithCheckError("D is not diagonal")
    diag = [d[i].get(i, 0) for i in range(min(len(d), width))]
    if any(x < 0 for x in diag):
        raise SmithCheckError("negative diagonal entry")
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise SmithCheckError("zero followed by a nonzero on the diagonal")
        if x != 0 and y % x != 0:
            raise SmithCheckError(f"divisibility chain broken: {x} does not "
                                  f"divide {y}")
    return touched


def _sparse(m: IntMatrix) -> SparseRows:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _smith(m: SparseRows, width: int
           ) -> tuple[list[int], list[Operation], list[Operation], int]:
    """The Smith diagonal of the sparse M with `width` columns, its row and
    column logs, and the number of entries that the elimination and its
    check read or wrote.

    Each pivot is a smallest-magnitude nonzero entry of the trailing block,
    the first in row-major order.  No entry beats a unit, so the search
    stops at the first row that holds one, and a unit pivot skips the
    divisibility scan, since it divides every entry.  Relation matrices
    are mostly unit entries (Havas, Holt & Rees, Linear Algebra Appl. 192,
    1993).  Rows are dicts keyed by column; line swaps only move positions,
    and a column index finds the rows that a pivot clears, so the work
    follows the entries, not rows times columns.  The elimination
    transforms M alone and logs each elementary operation by position;
    _check_smith replays the logs on M with its own code before the result
    is returned, and a failed check raises SmithCheckError, also under
    python -O."""
    a = [dict(row) for row in m]
    n = len(a)
    where: list[set[int]] = [set() for _ in range(width)]  # rows per column
    for r, row in enumerate(a):
        for k in row:
            where[k].add(r)
    # the row (column) at each position, and the position of each
    rat, cat = list(range(n)), list(range(width))
    rpos, cpos = rat[:], cat[:]
    row_ops: list[Operation] = []
    col_ops: list[Operation] = []
    touched = 0

    def swap(at, pos, ops, i, j):   # a pivot already in place logs nothing
        if i != j:
            at[i], at[j] = at[j], at[i]
            pos[at[i]], pos[at[j]] = i, j
            ops.append(("swap", i, j))

    def add_row(src, dst, q):       # row dst += q * row src
        nonlocal touched
        d, row = rat[dst], a[rat[dst]]
        for k, y in a[rat[src]].items():
            if x := row.get(k, 0) + q * y:
                row[k] = x
                where[k].add(d)
            else:
                row.pop(k, None)    # q may be 0
                where[k].discard(d)
        touched += len(a[rat[src]])
        row_ops.append(("add", src, dst, q))

    def add_col(src, dst, q):       # col dst += q * col src
        nonlocal touched
        s, d = cat[src], cat[dst]
        for r in where[s]:
            row = a[r]
            if x := row.get(d, 0) + q * row[s]:
                row[d] = x
                where[d].add(r)
            else:
                row.pop(d, None)
                where[d].discard(r)
        touched += len(where[s])
        col_ops.append(("add", src, dst, q))

    t = 0
    while True:
        # (magnitude, row, column) of the first smallest nonzero entry of
        # the trailing block in row-major order; the trailing rows hold no
        # entry left of column t
        pivot = None
        for i in range(t, n):
            row = a[rat[i]]
            touched += len(row)
            if row:
                least = min((abs(x), i, cpos[k]) for k, x in row.items())
                pivot = least if pivot is None else min(pivot, least)
                if pivot[0] == 1:
                    break
        if pivot is None:
            break
        swap(rat, rpos, row_ops, t, pivot[1])
        swap(cat, cpos, col_ops, t, pivot[2])

        # clear column and row t; each pass strictly shrinks |a[t][t]|
        # whenever a remainder shows up, so this terminates
        while True:
            col = cat[t]
            for i in sorted(rpos[r] for r in where[col] if rpos[r] > t):
                add_row(t, i, -(a[rat[i]][col] // a[rat[t]][col]))
                if col in a[rat[i]]:    # nonzero remainder: better pivot
                    swap(rat, rpos, row_ops, t, i)
            if len(where[col]) > 1:
                continue
            row = a[rat[t]]
            for j in sorted(cpos[k] for k in row if cpos[k] > t):
                add_col(t, j, -(row[cat[j]] // row[cat[t]]))
                if cat[j] in row:
                    swap(cat, cpos, col_ops, t, j)
            if len(where[cat[t]]) > 1 or len(row) > 1:
                continue
            break

        # divisibility: the pivot must divide the whole trailing block,
        # which a unit always does
        p, bad = row[cat[t]], None
        if abs(p) != 1:
            for i in range(t + 1, n):
                touched += len(a[rat[i]])
                if any(x % p for x in a[rat[i]].values()):
                    bad = i
                    break
        if bad is not None:
            add_row(bad, t, 1)          # drag the offending row up, redo
            continue
        if p < 0:
            row[cat[t]] = -p
            row_ops.append(("negate", t))
        t += 1

    diag = [a[rat[i]].get(cat[i], 0) for i in range(min(n, width))]
    d = [{i: x} if x else {} for i, x in enumerate(diag)]
    d += [{} for _ in range(n - len(d))]
    touched += _check_smith(m, width, d, row_ops, col_ops)
    return diag, row_ops, col_ops, touched


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Smith normal form over Z of the dense M, with a logged witness: the
    elimination of _smith on M's sparse rows."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ValueError("ragged matrix")
    diag, row_ops, col_ops, _ = _smith(_sparse(m), cols)
    d = [[0] * cols for _ in range(rows)]
    for i, x in enumerate(diag):
        d[i][i] = x
    return SmithForm(d=d, row_ops=row_ops, col_ops=col_ops)


class AbelianGroup(Record):
    """Z^rank  (+)  Z/t1 (+) ... (+) Z/tk  with 2 <= t1 | t2 | ... | tk."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()) -> None:
        set_field(self, "rank", rank)
        set_field(self, "torsion", torsion)

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def cokernel(m: SparseRows, n_cols: int) -> AbelianGroup:
    """Z^n_cols / (row space of the sparse m).

    Empty rows are dropped first: they add nothing to the row space, and
    relation matrices have many, one for each relator with zero exponent
    sum in every generator, such as a commutator."""
    diag = _smith([row for row in m if row], n_cols)[0]
    nonzero = [d for d in diag if d != 0]
    return AbelianGroup(rank=n_cols - len(nonzero),
                        torsion=tuple(d for d in nonzero if d > 1))


def relation_rows(p: FpPresentation, include_h1_safe_conditionals: bool = False
                  ) -> SparseRows:
    """The sparse exponent-sum matrix: one row per relator, one column per
    generator.

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

    def row_of(w) -> dict[int, int]:
        row: dict[int, int] = {}
        for name, sign in w.letters:
            j = index[name]
            if x := row.get(j, 0) + sign:
                row[j] = x
            else:
                del row[j]
        return row

    rows = [row_of(r) for r in p.relators]
    if include_h1_safe_conditionals:
        rows += [row_of(c.relator) for c in p.conditional if not row_of(c.key)]
    return rows


def h1(p: FpPresentation, include_h1_safe_conditionals: bool = False
       ) -> AbelianGroup:
    """First homology (abelianization) of the presented group."""
    return cokernel(relation_rows(p, include_h1_safe_conditionals),
                    len(p.generators))
