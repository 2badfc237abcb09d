"""Coset enumeration against groups of known order / subgroups of known index.

Oracle values are textbook: |S3| = 6, |Q8| = 8, |D4| = 8, |A5| = 60,
|PSL(2,7)| = 168, cyclic orders and indices by Lagrange.  Further down,
one test closes a large table that is mostly dead rows, one pins the
cosets defined on the paper's family, and the closed-table tests check the
finished table itself.  Reference copies of the plain loops are compared
with the kernel: the rotation lists, which the kernel slices from the
doubled relator, against a build by concatenation; and the deduction scans,
which the kernel skips when a cycle is open at both ends of the deduction,
and the coincidence processing, against scans of every rotation letter by
letter.  The short-relator runs cover the rotations of one and two letters
that are never skipped.  The last section checks that coset_enumeration,
which first eliminates the generators that short relators define, keeps
the index of the bare enumerator, and checks the elimination itself on
hand cases and on a long chain.
"""

import time
from random import Random

import pytest

from m4kit.certify import Budget, certify
from m4kit.constructions import exotic_odd_cp2
from m4kit.coset import (
    CosetCount,
    Exceeded,
    _eliminate,
    _Enumerator,
    coset_enumeration,
)
from m4kit.presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    parse_presentation,
)
from m4kit.words import gen, parse_word

from test_certify import random_corpus


def pres(gens: str, *rels: str) -> FpPresentation:
    return FpPresentation(tuple(gens.split()),
                          tuple(parse_word(r) for r in rels))


# -- orders over the trivial subgroup -----------------------------------------

# A collapsing presentation of the trivial group whose table is mostly dead
# rows before it closes; an earlier enumerator reported a spurious index
# (289) on it.
_COLLAPSING = """\
generators: a1, b1, a2, b2, c1, d1, c2, d2, alpha1, alpha2, alpha3, alpha4
relator: b1^-1 d1^-1 b1 d1 a1^-1
relator: a1^-1 d1 a1 d1^-1 b1^-1
relator: b2^-1 d2^-1 b2 d2 a2^-1
relator: a2^-1 d2 a2 d2^-1 b2^-1
relator: d1^-1 b2^-1 d1 b2 c1^-1
relator: c1^-1 b2 c1 b2^-1 d1^-1
relator: d2^-1 b1^-1 d2 b1 c2^-1
relator: c2^-1 b1 c2 b1^-1 d2^-1
relator: a1 c1 a1^-1 c1^-1
relator: a1 c2 a1^-1 c2^-1
relator: a1 d2 a1^-1 d2^-1
relator: b1 c1 b1^-1 c1^-1
relator: a2 c1 a2^-1 c1^-1
relator: a2 c2 a2^-1 c2^-1
relator: a2 d1 a2^-1 d1^-1
relator: b2 c2 b2^-1 c2^-1
relator: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
relator: alpha3 alpha4^-1 alpha1^-1 alpha4 alpha1
relator: alpha1 alpha3 alpha1^-1 alpha3^-1
relator: alpha2 alpha3 alpha2^-1 alpha3^-1
relator: alpha2 alpha4 alpha2^-1 alpha4^-1
relator: a1 alpha1^-1
relator: b1 alpha2^-1
relator: b2 alpha4^-1
relator: c1 d1 c1^-1 d1^-1 c2 d2 c2^-1 d2^-1 alpha3 alpha4 alpha3^-1 alpha4^-1
relator: a2 alpha3^-2
"""


@pytest.mark.parametrize("p, order", [
    (pres("a", "a^5"), 5),
    (pres("a", "a"), 1),
    (pres("a b", "a^2", "b^3", "(a b)^2"), 6),       # S3
    (pres("a b", "a^4", "a^2 b^-2", "b^-1 a b a"), 8),  # Q8
    (pres("r s", "r^4", "s^2", "(r s)^2"), 8),       # D4
    (pres("a b", "a^3", "b^3", "[a, b]"), 9),        # Z/3 x Z/3
    (pres("a b", "a^-1 b a b^-2", "b^-1 a b a^-2"), 1),
    (parse_presentation(_COLLAPSING), 1),
])
def test_group_orders(p, order):
    result = coset_enumeration(p)
    assert isinstance(result, CosetCount)
    assert result.index == order
    assert result.total_defined >= order


# -- subgroup indices ----------------------------------------------------------

def test_subgroup_indices_in_s3():
    s3 = pres("a b", "a^2", "b^3", "(a b)^2")
    assert coset_enumeration(s3, [gen("a")]).index == 3
    assert coset_enumeration(s3, [gen("b")]).index == 2
    assert coset_enumeration(s3, [gen("a"), gen("b")]).index == 1


A5 = pres("a b", "a^2", "b^3", "(a b)^5")
PSL27 = pres("a b", "a^2", "b^3", "(a b)^7", "[a, b]^4")


LISTED_SUBGROUPS = [
    (A5, "", 60), (A5, "a", 30), (A5, "b", 20), (A5, "a b", 12),
    (PSL27, "", 168), (PSL27, "a", 84), (PSL27, "b", 56), (PSL27, "a b", 24),
]


# Over the trivial subgroup, Felsch deduction closes A5 and PSL(2,7)
# without a redundant definition (60 and 168).  Over a proper subgroup,
# the relator scans from each coset define a few cosets that later merge
# away.  A broken deduction
# path, such as a closing scan entry that is never pushed, shows up as
# extra cosets.
@pytest.mark.parametrize("p, subgroup, index, defined", [
    (*case, defined) for case, defined in
    zip(LISTED_SUBGROUPS, (60, 31, 22, 14, 168, 91, 58, 30))])
def test_non_abelian_indices_define_pinned_cosets(p, subgroup, index,
                                                  defined):
    result = coset_enumeration(p, [parse_word(subgroup)] if subgroup else [])
    assert result == CosetCount(index=index, total_defined=defined)


def test_cyclic_subgroup_index():
    z12 = pres("a", "a^12")
    assert coset_enumeration(z12, [parse_word("a^3")]).index == 3
    assert coset_enumeration(z12, [parse_word("a^5")]).index == 1  # 5 generates


def test_infinite_cyclic_over_itself():
    z = pres("a")
    assert coset_enumeration(z, [gen("a")]).index == 1


def test_free_abelian_over_one_generator_exceeds():
    zz = pres("a b", "[a, b]")
    result = coset_enumeration(zz, [gen("a")], max_cosets=500)
    assert result == Exceeded(500)


@pytest.mark.parametrize("p", [
    pres("a b c", "[a, b]", "[a, c]", "[b, c]"),      # Z^3
    pres("x y", "x y x y^-1 x^-1 y^-1"),              # the trefoil group
], ids=str)
def test_the_cap_bounds_the_table(p):
    # the relator scans define through `define`, as the fill does, so the
    # table never holds more rows than the cap
    enum = _Enumerator(p.generators, 500, p.relators)
    assert enum.run(()) == Exceeded(500)
    assert len(enum.table) == 500


# -- semidecision honesty --------------------------------------------------------

def test_infinite_group_reports_exceeded_not_an_index():
    z = pres("a")
    assert coset_enumeration(z, max_cosets=100) == Exceeded(100)
    trefoil = pres("x y", "x y x y^-1 x^-1 y^-1")
    assert coset_enumeration(trefoil, max_cosets=300) == Exceeded(300)


def test_refuses_undischarged_structure():
    tier = FpPresentation(("a",), meridional=(MeridionalTier("g", gen("a")),))
    with pytest.raises(ValueError):
        coset_enumeration(tier)
    cond = FpPresentation(("a",), conditional=(
        ConditionalRelator(gen("a"), gen("a")),))
    with pytest.raises(ValueError):
        coset_enumeration(cond)


# -- a large collapsing table ------------------------------------------------

# The core of exotic_odd_cp2(40, 1) (input relators plus activated
# conditionals) defines over 4096 cosets, nearly all of them merged away
# by the end, and must still close to index 1.  An earlier enumerator left
# live cosets unscanned on the n = 20 core and reported a spurious index;
# that core now defines only 2,370 cosets, so the fixture moved to n = 40.
def test_large_collapsing_table_closes():
    cert = certify(exotic_odd_cp2(40, 1).pi1,
                   budget=Budget(corroborate=False))
    result = coset_enumeration(cert.core())
    assert isinstance(result, CosetCount)
    assert result.index == 1
    # the point of the fixture: the table really is large
    assert result.total_defined > 4096


# -- work pinned on the paper's family ----------------------------------------

# Cosets defined on the core of each odd_sweep member (the benchmark's
# diagonal), and on the larger n = 20 core.  A change to the definition
# order or the deduction rule moves these counts, so it cannot pass as a
# mere speed-up.  They fell from 370, 840, 1448, 2182, 3144 and 10102 to
# 320, 758, 1334, 2036, 2966 and 9764 when coset_enumeration began to
# eliminate the generators that short relators define (every core loses
# alpha1, alpha2, alpha4 and a2, and the smaller table defines fewer
# cosets to reach the same index), and then to the counts below when the
# enumerator began to trace every relator from each coset before filling
# its row, which closes the relator cycles before Felsch definitions pile
# up.
ODD_SWEEP = [(2, 1), (4, 2), (6, 3), (8, 1), (10, 3)]


def _odd_core(n, m):
    return certify(exotic_odd_cp2(n, m).pi1,
                   budget=Budget(corroborate=False)).core()


@pytest.mark.parametrize("n, m, defined", [
    (2, 1, 99), (4, 2, 238), (6, 3, 422), (8, 1, 570), (10, 3, 862),
    (20, 1, 2370),
])
def test_odd_family_cores_define_pinned_cosets(n, m, defined):
    assert coset_enumeration(_odd_core(n, m)) == CosetCount(
        index=1, total_defined=defined)


# The family's cosets grow as 4n^2 + 38n + 10 (20n^2 + 84n + 84 before the
# relator scans), which pins the n^2 coefficient: by count, the default
# budget of 1M cosets reaches about n = 495.
@pytest.mark.parametrize("n", [10, 20, 30, 40])
def test_odd_family_cosets_grow_as_4n_squared(n):
    assert coset_enumeration(_odd_core(n, 1)) == CosetCount(
        index=1, total_defined=4 * n * n + 38 * n + 10)


def test_odd_family_corroborates_at_n_40_within_10k_cosets():
    cert = certify(exotic_odd_cp2(40, 1).pi1, target="trivial",
                   budget=Budget(max_cosets=10_000))
    assert cert.coset_index == 1


# -- the deduction scans and coincidences against reference loops -------------

class _PlainScans(_Enumerator):
    """The reference loops.  Every deduction scan starts at (a, 0) and
    reads each rotation letter by letter; every coincidence calls find on
    both ends of each entry it moves and merges through one helper.  It
    also counts popped deductions of a live coset whose entry is unset.
    The kernel starts every scan at that entry, so the count must stay 0:
    it is the evidence for the invariant that `coincidence` states."""

    unset = 0

    def _merge(self, a, b, queue):
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.parent[b] = a
        self.live -= 1
        queue.append(b)

    def coincidence(self, a, b):
        table, find, merge = self.table, self.find, self._merge
        deductions = self.deductions
        queue = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            row = table[dead]
            for x, d in enumerate(row):
                if d is None:
                    continue
                row[x] = None
                if table[d][x ^ 1] == dead:
                    table[d][x ^ 1] = None
                mu, nu = find(dead), find(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu
                    deductions.append((mu, x))

    def process_deductions(self) -> None:
        table, parent, rotations = self.table, self.parent, self.rotations
        coincidence = self.coincidence
        stack = self.deductions
        while stack:
            a, x = stack.pop()
            if parent[a] != a:
                continue
            if table[a][x] is None:
                self.unset += 1
            for w, *_ in rotations[x]:
                f, i, j = a, 0, len(w) - 1
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
                    continue
                b = a
                while j > i:
                    nxt = table[b][w[j] ^ 1]
                    if nxt is None:
                        break
                    b = nxt
                    j -= 1
                else:
                    y = w[i]
                    nxt = table[b][y ^ 1]
                    if nxt is None:
                        table[f][y] = b
                        table[b][y ^ 1] = f
                        stack.append((f, y))
                    else:
                        coincidence(f, nxt)
                        if parent[a] != a:
                            break


def _plain_rotations(enum, relators):
    """The reference build of the rotation lists: each rotation of r and
    of r^-1 by concatenation, its inverse columns letter by letter, its
    cyclic second column and the inverse of its last column."""
    rotations = [[] for _ in range(enum.ncols)]
    seen = set()
    for r in relators:
        w = enum.compile(r)
        for v in (w, tuple(x ^ 1 for x in reversed(w))):
            for i in range(len(v)):
                rot = v[i:] + v[:i]
                if rot not in seen:
                    seen.add(rot)
                    rotations[rot[0]].append(
                        (rot, tuple(x ^ 1 for x in rot), len(rot) - 1,
                         rot[1 % len(rot)], rot[-1] ^ 1))
    return rotations


def _assert_same_run(p, subgroup=(), max_cosets=1_000_000):
    runs = []
    for cls in (_Enumerator, _PlainScans):
        enum = cls(p.generators, max_cosets, p.relators)
        runs.append((enum.run(subgroup), enum.table, enum.parent, enum.live))
    # _PlainScans inherits the kernel's rotation lists, so they are checked
    # against the reference build on their own
    assert enum.rotations == _plain_rotations(enum, p.relators), str(p)
    assert runs[0] == runs[1], (str(p), [str(w) for w in subgroup])
    assert enum.unset == 0, (str(p), [str(w) for w in subgroup])
    return runs[0][0]


@pytest.mark.parametrize("n, m", ODD_SWEEP + [(20, 1)])
def test_deduction_scans_match_the_reference_on_family_cores(n, m):
    assert _assert_same_run(_odd_core(n, m)).index == 1


def _random_presentations(count, seed):
    """Seeded presentations on 2-3 generators: one or two short powers and
    one to three random words, half of them over a one-generator subgroup,
    each with a cap drawn so that some runs close and some stop at it."""
    rng = Random(seed)
    for _ in range(count):
        gens = tuple("abc"[:rng.randint(2, 3)])
        rels = [gen(g) ** rng.randint(2, 5)
                for g in rng.sample(gens, rng.randint(1, 2))]
        for _ in range(rng.randint(1, 3)):
            w = parse_word("1")
            for _ in range(rng.randint(3, 10)):
                w = w * gen(rng.choice(gens)) ** rng.choice((1, -1))
            if w:
                rels.append(w)
        subgroup = [gen(rng.choice(gens))] if rng.random() < 0.5 else []
        yield (FpPresentation(gens, tuple(rels)), subgroup,
               rng.choice((30, 200, 600)))


# Relators of one and two letters, whose rotations are never skipped, and
# proper powers and relators that are rotations of each other or of each
# other's inverses, whose rotations repeat and are listed once; each over
# the trivial subgroup and over one generator.
SHORT_RELATORS = [
    pres("a b", "a", "b^3"),
    pres("a b", "a b", "b^5"),
    pres("a b", "a^2", "b^2", "(a b)^3"),
    pres("a b", "a^2", "b^-2", "(a b^-1)^4"),
    pres("a b c", "a b^-1", "b c^-1", "c^6"),
    pres("a b c", "a^2", "b^2", "c^2", "(a b)^3", "(b c)^3", "(a c)^2"),
    pres("a b", "a^4", "b^2", "(a b)^2", "[a, b]^2"),
    pres("a b", "a^3", "b a^-1", "(a b)^2"),
    pres("a b", "(a b)^3", "a^4"),
    pres("a b", "b", "a^2 b", "(a b^-1)^5"),
    pres("a b", "[a, b]", "b a b^-1 a^-1", "a^-1 b^-1 a b", "a^2 b^2"),
    pres("a b", "[a, b]^2", "(a b^-1)^2", "b^3"),
]


@pytest.mark.parametrize("p", SHORT_RELATORS, ids=str)
@pytest.mark.parametrize("subgroup", ["", "a", "b"])
def test_deduction_scans_match_the_reference_on_short_relators(p, subgroup):
    _assert_same_run(p, [parse_word(subgroup)] if subgroup else [], 2000)


def test_deduction_scans_match_the_reference_on_random_presentations():
    results = [_assert_same_run(p, subgroup, cap)
               for p, subgroup, cap in _random_presentations(400, 0xFE15C)]
    # the corpus reaches closed tables, capped runs and subgroups alike
    assert sum(isinstance(r, Exceeded) for r in results) >= 40
    assert sum(isinstance(r, CosetCount) and r.index > 1
               for r in results) >= 40


# -- the closed table ---------------------------------------------------------

def _trace(enum, c, w):
    for x in w:
        c = enum.find(enum.table[c][x])
    return c


def _assert_closed(p, subgroup):
    """Run to completion and check the finished table; returns the index."""
    enum = _Enumerator(p.generators, 100_000, p.relators)
    result = enum.run(subgroup)
    assert isinstance(result, CosetCount)
    live = [c for c in range(len(enum.table)) if enum.find(c) == c]
    assert len(live) == result.index
    assert 0 in live
    for c in live:
        row = enum.table[c]
        assert None not in row, (c, row)
        for x, d in enumerate(row):
            assert enum.find(enum.table[enum.find(d)][x ^ 1]) == c, (c, x)
        for r in p.relators:
            assert _trace(enum, c, enum.compile(r)) == c, (c, str(r))
    for w in subgroup:
        assert _trace(enum, 0, enum.compile(w)) == 0, str(w)
    return result.index


@pytest.mark.parametrize("p, subgroup, index", LISTED_SUBGROUPS + [
    (parse_presentation(_COLLAPSING), "", 1),
])
def test_closed_table_is_complete_and_consistent(p, subgroup, index):
    assert _assert_closed(
        p, [parse_word(subgroup)] if subgroup else []) == index


def _random_finite_presentations(count, seed):
    """Seeded draws of power relators plus one or two random words, kept
    when the enumeration closes under a small cap (so the group is finite)
    on more than one coset (so the table has something to check)."""
    rng = Random(seed)
    found = []
    while len(found) < count:
        gens = tuple("abc"[:rng.randint(2, 3)])
        rels = [gen(g) ** rng.randint(2, 4) for g in gens]
        for _ in range(rng.randint(1, 2)):
            w = parse_word("1")
            for _ in range(rng.randint(4, 10)):
                w = w * gen(rng.choice(gens)) ** rng.choice((1, -1))
            if w:
                rels.append(w)
        p = FpPresentation(gens, tuple(rels))
        subgroup = [gen(rng.choice(gens))] if rng.random() < 0.5 else []
        result = coset_enumeration(p, subgroup, max_cosets=2000)
        if isinstance(result, CosetCount) and result.index > 1:
            found.append((p, subgroup))
    return found


def test_closed_table_on_random_finite_presentations():
    cases = _random_finite_presentations(50, 0xC05E7)
    assert sum(1 for _, subgroup in cases if subgroup) >= 10
    for p, subgroup in cases:
        _assert_closed(p, subgroup)


# -- eliminating the generators that short relators define --------------------

def _assert_same_index(p, subgroup=(), max_cosets=1_000_000):
    """coset_enumeration, which eliminates first, against the enumerator
    run on p as given: the same index, or the same Exceeded."""
    result = coset_enumeration(p, subgroup, max_cosets)
    plain = _Enumerator(p.generators, max_cosets, p.relators).run(subgroup)
    case = (str(p), [str(w) for w in subgroup])
    if isinstance(plain, Exceeded):
        assert result == plain, case
    else:
        assert result.index == plain.index, case
    return result


@pytest.mark.parametrize("p, subgroup, index", LISTED_SUBGROUPS)
def test_elimination_keeps_the_index_on_listed_subgroups(p, subgroup, index):
    words = [parse_word(subgroup)] if subgroup else []
    assert _assert_same_index(p, words).index == index


def test_elimination_keeps_the_index_on_random_finite_presentations():
    for p, subgroup in _random_finite_presentations(50, 0xC05E7):
        _assert_same_index(p, subgroup, 2000)


def test_elimination_keeps_the_index_on_the_certify_corpus():
    results = [_assert_same_index(p, max_cosets=2000)
               for p in random_corpus(500)]
    # the corpus reaches closed tables and capped runs alike
    assert sum(isinstance(r, Exceeded) for r in results) >= 20
    assert sum(isinstance(r, CosetCount) for r in results) >= 20


@pytest.mark.parametrize("p, subgroup, index, left", [
    # b is killed
    (pres("a b", "b", "a^3"), "", 3, "<a | a^3>"),
    # b becomes a, in both relators; the a^2 left behind stays a relator
    (pres("a b", "a b^-1", "a b"), "", 2, "<a | a^2>"),
    # a becomes the square b^2
    (pres("a b", "a b^-2", "b^5"), "", 5, "<b | b^5>"),
    # b becomes a in the subgroup word too
    (pres("a b", "a b^-1", "a^6"), "b^2", 2, "<a | a^6> over a^2"),
    # c becomes b, b becomes a^-1 and a is killed
    (pres("a b c", "a b", "b c^-1", "c"), "", 1, "< | >"),
    # a relator of four letters defines nothing
    (pres("a b c", "c a b^2", "a^2", "b^3", "[a, b]"), "", 6,
     "<a, b, c | c a b^2, a^2, b^3, a b a^-1 b^-1>"),
    # c becomes a b; b = a^2 would make that a^3, so b is kept
    (pres("a b c", "c b^-1 a^-1", "b a^-2", "a^5"), "", 5,
     "<a, b | b a^-2, a^5>"),
    # e becomes b and c becomes a^-1 b; b = d^2 is refused while c's
    # image is a^-1 b, and taken once the kill of a has shortened it to b
    (pres("a b c d e", "a^-1", "a^-1 b c^-1", "e^-1 b", "e d^-2", "d^3"),
     "", 3, "<d | d^3>"),
], ids=str)
def test_elimination_on_hand_cases(p, subgroup, index, left):
    words = [parse_word(subgroup)] if subgroup else []
    gens, relators, words_left = _eliminate(p.generators, p.relators, words)
    shown = f"<{', '.join(gens)} | {', '.join(map(str, relators))}>"
    if words_left:
        shown += " over " + ", ".join(map(str, words_left))
    assert shown == left
    assert _assert_same_index(p, words).index == index


def test_elimination_is_not_quadratic_in_the_generators():
    # x_i = x_{i+1} for 2,000 generators: each elimination rewrites only
    # the relators that mention its generator.  Best of three runs.
    xs = [f"x{i}" for i in range(2000)]
    p = FpPresentation(tuple(xs), tuple(
        gen(x) * gen(y, -1) for x, y in zip(xs, xs[1:])) + (gen("x0") ** 3,))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        assert coset_enumeration(p) == CosetCount(index=3, total_defined=3)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1
