"""Coset enumeration (Todd-Coxeter, relator scans then Felsch fill, with
coincidences).

Deterministic: given the same presentation, subgroup generators and cap,
the run defines the same cosets in the same order.  The enumeration either
returns the exact index of the subgroup or reports that it hit the cap —
it never claims an index is infinite.

The table is row-per-coset with one column per generator letter (g and
g^-1, so column x ^ 1 is the inverse of column x).  The live cosets are
taken in table order.  From each, every distinct relator is first traced in
presentation order, defining cosets to close its cycle (the HLT scan of
Hazelgrove, Leech and Trotter), and the deductions are processed after each
relator.  A scan that stops with two or more gaps defines its next coset
at the gap next to the older end, the one whose coset has the lower
number, and forward on a tie: Felsch's rule of defining in the earliest
row with a gap, in HLT form.  Only then does each entry of the row still
undefined, in column order, define a new coset (the Felsch fill), each
followed by its deductions.  This mixed strategy (Havas, "Coset enumeration
strategies", ISSAC 1991; Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, ch. 5) closes the relator cycles through a coset before
the fill defines past them.  The cosets of exotic_odd_cp2(n, m) number
30n + 30 + 4m.  That rests on the relators as the family writes them:
with each relator of the n = 20 core inverted and rotated at random, the
enumeration defines 2,300 to 5,000 cosets, not 634.
Every entry set anywhere, by a definition, by the entry that closes a scan
or by a coincidence, is pushed as a deduction, so every relator cycle
through it is checked.  A deduction (a, x) scans, without defining, each
cyclic rotation that starts with x from a.  The rotations of both r and
r^-1 are listed, so this one side reaches every relator cycle through the
entry (scanning from a·x with x^-1 would walk the same cycles again), and
a cycle is rechecked only when one of its entries changes.  Each of these scans starts past its own
entry (a, x), which the deduction reads once for all of them.  A cycle of
three or more letters whose first reads forward from a·x and back from a
both find gaps has two gaps, so its scan could change nothing: it is
skipped on those two reads, which each rotation keeps beside its columns.
The rotation lists are built by slicing the doubled relator and its
doubled letterwise inverse, one slice per rotation.
Coincidences are processed with a queue over a union-find.  Rows are never
renumbered or dropped, so the table holds exactly the cosets defined, at
most `max_cosets` rows.  That bounds the rows, not the memory: a row holds
two entries per generator.  Enumerating the core of `exotic_odd_cp2(80, 1)`,
2,434 rows for 168 generators, peaks at 10.7 MB (tracemalloc), and the
default 1,000,000 rows at that width would take nearly 3 GB.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .presentation import FpPresentation
from .words import Record, Word, set_field

DEFAULT_MAX_COSETS = 1_000_000      # the coset budget unless one is given


class Exceeded(Record):
    """The enumeration defined `max_cosets` cosets without closing."""

    __slots__ = ("max_cosets",)

    def __init__(self, max_cosets: int) -> None:
        set_field(self, "max_cosets", max_cosets)


class CosetCount(Record):
    __slots__ = ("index", "total_defined")

    def __init__(self, index: int, total_defined: int) -> None:
        set_field(self, "index", index)
        set_field(self, "total_defined", total_defined)


class _Overflow(Exception):
    pass


# a relator rotation as the deduction scans read it: its columns, their
# inverse columns, its last index, its second column and the inverse of its
# last column (the first read of a scan forward and back from a deduction)
_Rotation = tuple[tuple[int, ...], tuple[int, ...], int, int, int]


class _Enumerator:
    def __init__(self, gens: Sequence[str], max_cosets: int,
                 relators: Iterable[Word] = ()):
        self.ncols = 2 * len(gens)
        self.col = {}
        for i, g in enumerate(gens):
            self.col[(g, 1)] = 2 * i
            self.col[(g, -1)] = 2 * i + 1
        self.max_cosets = max_cosets
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]            # union-find over coset numbers
        self.live = 1
        self.deductions: list[tuple[int, int]] = []
        # rotations[x]: the distinct cyclic rotations of every relator and
        # of its inverse that start with column x.  Each is a slice of the
        # doubled word, and its inverse columns the same slice of the
        # doubled letterwise inverse.
        self.rotations: list[list[_Rotation]] = [
            [] for _ in range(self.ncols)]
        # the distinct relators in presentation order, traced from each coset
        self.relators = list(dict.fromkeys(self.compile(r) for r in relators))
        seen: set[tuple[int, ...]] = set()
        for w in self.relators:
            n = len(w)
            w_inv = tuple(x ^ 1 for x in w)
            for v, v_inv in ((w, w_inv), (w_inv[::-1], w[::-1])):
                vv, ii = v + v, v_inv + v_inv
                for i in range(n):
                    rot = vv[i:i + n]
                    if rot not in seen:
                        seen.add(rot)
                        self.rotations[rot[0]].append(
                            (rot, ii[i:i + n], n - 1,
                             vv[i + 1], ii[i + n - 1]))

    def compile(self, w: Word) -> tuple[int, ...]:
        return tuple(self.col[letter] for letter in w.letters)

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def define(self, a: int, x: int) -> int:
        if len(self.table) >= self.max_cosets:
            raise _Overflow
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.live += 1
        self.table[a][x] = b
        self.table[b][x ^ 1] = a
        self.deductions.append((a, x))
        return b

    def coincidence(self, a: int, b: int) -> None:
        """Merge cosets a and b and every pair that their merge forces.
        Most entries of a merged-away row point at a root, and most merges
        that they ask for are of a coset with itself, so the parent is read
        before find is called; merges are inline, and `live` drops once,
        by the number of rows merged away.

        An entry of a live row is cleared here only as the reverse arrow
        d·x^-1 of an entry dead·x = d being moved, and it is set again
        before this returns, so a deduction's entry stays set while its
        coset is live.  Entries are set in consistent pairs and never
        overwritten.  When find(dead) has no x arrow and d no x^-1 arrow,
        the "else" arm sets the cleared arrow again at once.  Otherwise a
        merge follows, the row it merges away is queued, and processing
        that row moves its arrows, the one that stands for the cleared
        arrow included, back onto the roots."""
        table, parent, find = self.table, self.parent, self.find
        deductions = self.deductions
        a, b = find(a), find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        queue = [b]
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = table[dead]
            for x, d in enumerate(row):
                if d is None:
                    continue
                row[x] = None
                y = x ^ 1
                # drop the reverse arrow too; it will be re-routed below
                if table[d][y] == dead:
                    table[d][y] = None
                mu = parent[dead]
                if parent[mu] != mu:
                    mu = find(dead)
                nu = d if parent[d] == d else find(d)
                if (c := table[mu][x]) is not None:
                    r = nu
                elif (c := table[nu][y]) is not None:
                    r = mu
                else:
                    table[mu][x] = nu
                    table[nu][y] = mu
                    deductions.append((mu, x))
                    continue
                # merge r with the root of c
                if parent[c] != c:
                    c = find(c)
                if r != c:
                    if r > c:
                        r, c = c, r
                    parent[c] = r
                    queue.append(c)
        self.live -= len(queue)

    def scan_and_fill(self, a: int, w: tuple[int, ...]) -> None:
        """Trace w from coset a both ways, defining cosets to close the
        cycle (the HLT scan), and push the entry that closes it as a
        deduction, as `define` and `coincidence` push theirs.  While the
        forward read stops at f and the backward read at b with two or
        more gaps between them, the next coset is defined at the end with
        the older coset, f on a tie (see the module docstring)."""
        if not w:
            return
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j and self.table[f][w[i]] is not None:
                f = self.table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][w[j] ^ 1] is not None:
                b = self.table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][w[i]] = b
                self.table[b][w[i] ^ 1] = f
                self.deductions.append((f, w[i]))
                return
            if f <= b:
                self.define(f, w[i])
            else:
                self.define(b, w[j] ^ 1)

    def process_deductions(self) -> None:
        """Scan every relator cycle through each pending entry (a, x),
        without defining: a cycle that closes on two cosets is a
        coincidence, a single gap a deduction."""
        table, parent, rotations = self.table, self.parent, self.rotations
        coincidence = self.coincidence
        stack = self.deductions
        while stack:
            a, x = stack.pop()
            if parent[a] != a:
                continue             # merged away; its entries moved on
            # rotations[x] holds the rotations of r and of r^-1, so the
            # cycles through (a, x) are all scanned from a.  Each starts
            # with x, so its scan starts past the entry (a, x) it was
            # pushed for, which is set while a is live (see coincidence).
            row_a = table[a]
            f0 = row_a[x]
            row_b = table[f0]
            for w, inv, j, w1, z in rotations[x]:
                # a cycle of three or more letters open at both ends of
                # the entry has two gaps: its scan would change nothing
                if j > 1 and row_b[w1] is None and row_a[z] is None:
                    continue
                f, i = f0, 1
                while i <= j:
                    nxt = table[f][w[i]]
                    if nxt is None:
                        break
                    f = nxt
                    i += 1
                else:
                    if f != a:
                        coincidence(f, a)
                        if parent[a] != a:
                            break
                        f0 = row_a[x]
                        row_b = table[f0]
                    continue
                b = a
                while j > i:
                    nxt = table[b][inv[j]]
                    if nxt is None:
                        break        # two or more gaps: nothing follows
                    b = nxt
                    j -= 1
                else:
                    y = w[i]
                    nxt = table[b][inv[i]]
                    if nxt is None:
                        table[f][y] = b
                        table[b][inv[i]] = f
                        stack.append((f, y))
                    else:
                        coincidence(f, nxt)
                        if parent[a] != a:
                            break
                        f0 = row_a[x]
                        row_b = table[f0]

    def run(self, subgroup: Iterable[Word]) -> CosetCount | Exceeded:
        """Enumerate the cosets of the subgroup generated by `subgroup`,
        leaving the closed table (or the table at the cap) in place.  The
        subgroup words are traced from coset 0; then each live coset, in
        table order, traces every relator and fills the rest of its row,
        until it is merged away or its row is full (see the module
        docstring)."""
        try:
            for w in subgroup:
                self.scan_and_fill(0, self.compile(w))
            self.process_deductions()
            alpha = 0
            while alpha < len(self.table):
                for w in self.relators:
                    if self.parent[alpha] != alpha:
                        break
                    self.scan_and_fill(alpha, w)
                    self.process_deductions()
                for x in range(self.ncols):
                    if self.parent[alpha] != alpha:
                        break
                    if self.table[alpha][x] is None:
                        self.define(alpha, x)
                        self.process_deductions()
                alpha += 1
        except _Overflow:
            return Exceeded(self.max_cosets)
        return CosetCount(index=self.live, total_defined=len(self.table))


def coset_enumeration(p: FpPresentation, subgroup: Iterable[Word] = (),
                      max_cosets: int = DEFAULT_MAX_COSETS
                      ) -> CosetCount | Exceeded:
    """Index of the subgroup generated by `subgroup` in the group presented
    by p (relators only; conditional relators and meridional tiers are the
    caller's business, and ValueError is raised if any are present).
    `max_cosets` bounds the rows of the table, each two entries per
    generator of p, not its memory; it must be at least 1, the row of the
    subgroup itself, and every subgroup word must be over p's generators,
    or ValueError is raised."""
    if p.meridional:
        raise ValueError("strip/discharge the meridional tier first")
    if p.conditional:
        raise ValueError("decide conditional relators before enumerating")
    if max_cosets < 1:
        raise ValueError(f"max_cosets must be at least 1, not {max_cosets}")
    subgroup, gens = list(subgroup), set(p.generators)
    for w in subgroup:
        if stray := w.names() - gens:
            raise ValueError(f"subgroup word {w} names {sorted(stray)}, "
                             "not generators of the presentation")
    return _Enumerator(p.generators, max_cosets, p.relators).run(subgroup)

