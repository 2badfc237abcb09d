"""The headline families, checked cheaply: characteristic numbers across the
parameter ranges, abelianization oracles, and plumbing of the sign choice.
Certification of the groups themselves happens in the acceptance suite."""

import importlib
import sys
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from m4kit import geography
from m4kit.abelian import AbelianGroup, h1
from m4kit.blocks import CATALOG, t2xg2, t4, t4b2
from m4kit.certify import Budget, certify
from m4kit.constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from m4kit.manifest import parse_manifest, run_manifest
from m4kit.presentation import FpPresentation, core_presentation
from m4kit.surgery import blow_up, rename_manifold, torus_surgery
from m4kit.words import Word

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def h1_core(M):
    """H1 of the closed sum: strip the meridional tier (its generators are
    conjugates of a commutator key, so they vanish in H1) and count the
    conditionals whose keys are exponent-sum zero."""
    return h1(M.pi1.strip_meridional(), include_h1_safe_conditionals=True)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_exotic_cp2_2_invariants(m):
    M = exotic_cp2_2(m)
    assert (M.euler, M.signature) == (5, -1)
    assert M.parity == "odd"
    assert M.symplectic is (m == 1)
    assert h1_core(M) == AbelianGroup(0)


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (2, 2), (4, 3), (6, 1)])
def test_exotic_odd_cp2_invariants(n, m):
    M = exotic_odd_cp2(n, m)
    assert (M.euler, M.signature) == (4 * n + 1, -1)
    assert M.parity == "odd"
    assert M.symplectic is (m == 1)
    assert h1_core(M) == AbelianGroup(0)


@pytest.mark.parametrize("m", [1, 2])
def test_exotic_cp2_4_invariants(m):
    M = exotic_cp2_4(m)
    assert (M.euler, M.signature) == (7, -3)
    assert M.parity == "odd"
    assert M.symplectic is (m == 1)
    assert h1_core(M) == AbelianGroup(0)
    # the clash with the right-hand alpha alphabet forces the z_ prefix
    assert any(g.startswith("z_") for g in M.pi1.generators)


@pytest.mark.parametrize("m", [1, 3])
def test_exotic_cp2_6_invariants(m):
    M = exotic_cp2_6(m)
    assert (M.euler, M.signature) == (9, -5)
    assert M.parity == "odd"
    assert M.symplectic is (m == 1)
    assert h1_core(M) == AbelianGroup(0)


@pytest.mark.parametrize("p, expected", [
    (0, AbelianGroup(1)),
    (1, AbelianGroup(0)),
    (2, AbelianGroup(0, (2,))),
    (5, AbelianGroup(0, (5,))),
    (6, AbelianGroup(0, (6,))),
])
def test_cyclic_family_h1(p, expected):
    M = cyclic_family(p)
    assert (M.euler, M.signature) == (5, -1)
    assert h1_core(M) == expected


def test_cyclic_family_p1_is_the_flagship():
    assert cyclic_family(1).pi1 == exotic_cp2_2().pi1


def test_finite_cyclic_example_h1():
    M = finite_cyclic_example()
    assert (M.euler, M.signature) == (9, -1)
    assert h1_core(M) == AbelianGroup(0, (2,))


def test_sign_choice_changes_words_not_invariants():
    base, flipped = exotic_cp2_2(), exotic_cp2_2(eps1=-1, eps3=1)
    assert base.pi1 != flipped.pi1
    assert (base.euler, base.signature, base.parity, base.symplectic) == \
           (flipped.euler, flipped.signature, flipped.parity, flipped.symplectic)
    assert h1_core(base) == h1_core(flipped)


@pytest.mark.parametrize("build", [exotic_cp2_2, exotic_cp2_4, exotic_cp2_6],
                         ids=lambda f: f.__name__)
def test_every_sign_choice_reaches_the_presentation(build):
    # the sign robustness criterion certifies each choice; it tests nothing
    # unless the four choices really give four different presentations
    presentations = {build(2, eps1=eps1, eps3=eps3).pi1
                     for eps1 in (1, -1) for eps3 in (1, -1)}
    assert len(presentations) == 4


def test_names_are_compositional():
    assert exotic_cp2_2().name == "T2xG2(1,1)#BT4(1,1,1)"
    assert finite_cyclic_example().name == "G2xG2(1)#BT4(0,0,1)"
    assert "BT4(1,1,3)" in exotic_cp2_6(3).name


def test_sums_carry_one_tier_and_one_conditional():
    # the right-hand block contributes its meridional tier; the one curve
    # image known only modulo the meridian becomes the sole conditional
    for M in (exotic_cp2_2(), exotic_cp2_4(), exotic_odd_cp2(3),
              finite_cyclic_example()):
        assert len(M.pi1.meridional) == 1
        assert len(M.pi1.conditional) == 1


@pytest.mark.parametrize("build", [
    lambda: exotic_cp2_2(0), lambda: exotic_cp2_4(0), lambda: exotic_cp2_6(0),
    lambda: exotic_odd_cp2(1), lambda: exotic_odd_cp2(2, 0),
    lambda: cyclic_family(-1), lambda: cyclic_family(2, 0),
    lambda: exotic_cp2_2(eps1=2),
])
def test_family_parameters_rejected_with_value_error(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("n", [40, 80])
def test_building_a_family_member_is_linear_work(n, monkeypatch):
    # a Word built per parsed atom, a generator set per checked word and a
    # linear scan of the pi1 relators per site take 54,733 comparisons and
    # 9,971 constructions at n = 80
    counts = {"eq": 0, "new": 0}
    eq, init = Word.__eq__, Word.__init__

    def counting_eq(self, other):
        counts["eq"] += 1
        return eq(self, other)

    def counting_init(self, *args):
        counts["new"] += 1
        init(self, *args)

    monkeypatch.setattr(Word, "__eq__", counting_eq)
    monkeypatch.setattr(Word, "__init__", counting_init)
    M = exotic_odd_cp2(n, 1)
    assert len(M.pi1.generators) == 2 * n + 8
    assert counts["eq"] <= 8 * n
    assert counts["new"] <= 30 * n
    # a renamed copy's site relators are not its pi1's relator objects, so
    # each is compared by value: 86 comparisons at n = 40, and 7,407 when
    # every site scans the relators
    counts.update(eq=0, new=0)
    R = rename_manifold(M, "p_")
    assert len(R.sites) == len(M.sites)
    assert counts["eq"] <= 4 * n
    assert counts["new"] <= 30 * n


def test_each_word_is_checked_once_per_presentation(monkeypatch):
    # each (word, generator set) pair is validated once, where the word
    # enters: a presentation derived from valid ones (a complement, the
    # fiber sum, the certified basis, the core that corroboration runs on)
    # checks only the words it adds.  Validating every word of every
    # presentation made 1,070 checks of 355 such pairs at n = 40, up to
    # five of one pair.  Every word check, alone or in a presentation's,
    # is one _check_word.
    presentation = importlib.import_module("m4kit.presentation")
    check_word = presentation._check_word
    # the words are kept alive, so that their ids stay apart
    validated, seen = Counter(), {}

    def counting_word(w, what, generators):
        seen[id(w)] = w
        validated[id(w), frozenset(generators)] += 1
        check_word(w, what, generators)

    monkeypatch.setattr(presentation, "_check_word", counting_word)
    M = exotic_odd_cp2(40, 1)
    c = certify(M.pi1, target="trivial", budget=Budget(corroborate=False))
    c.core()
    words = [*M.pi1.relators, *words_of(M.pi1.conditional, M.pi1.meridional)]
    assert len(words) == 180
    # the count sees the check of every word of the sum
    assert {id(w) for w in words} <= seen.keys()
    repeated = [(str(seen[i]), n) for (i, _), n in validated.items() if n > 1]
    assert not repeated, repeated


def words_of(conditional, meridional):
    """The words of conditional relators and tiers: each relator and key."""
    return [*(w for c in conditional for w in (c.relator, c.key)),
            *(t.key for t in meridional)]


# small parameters of every catalog block, valid ones only
BLOCK_PARAMETERS = {
    "T2xG2": [(p, q) for p in range(3) for q in range(3)],
    "G2xGn": [(n, m) for n in (2, 3, 4) for m in (1, 2)],
    "BT4": [(q, r, m, e1, e3) for q in range(3) for r in range(3)
            for m in (1, 2) for e1 in (1, -1) for e3 in (1, -1)
            if gcd(m, r) == 1 and (r or m == 1)],
    "BBT4": [(q, r) for q in (1, 2) for r in (1, 2)],
    "T4b2": [()], "T4": [()], "T2xS2b4": [()],
}


def test_derived_presentations_equal_their_validated_rebuilds(monkeypatch):
    # every presentation that a transform builds without validating the
    # words it inherits, rebuilt through the validating constructor: the
    # constructor accepts it and the two are equal.  So are the manifolds'
    # presentations and surface complements.
    presentation = importlib.import_module("m4kit.presentation")
    build, derived = presentation._derived, []

    def recording(*fields):
        # the presentation, with the transforms of presentation.py that
        # built it on the stack
        p, frame, names = build(*fields), sys._getframe(1), set()
        while frame.f_code.co_filename == presentation.__file__:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        derived.append((names, p))
        return p

    monkeypatch.setattr(presentation, "_derived", recording)
    assert set(BLOCK_PARAMETERS) == set(CATALOG)
    manifolds = [CATALOG[name](*args)
                 for name, params in BLOCK_PARAMETERS.items()
                 for args in params]
    manifolds += [exotic_odd_cp2(n, m) for n in range(2, 13)
                  for m in (1, 2, 3)]
    # the surgery routes that reproduce the blocks
    for q, r, m in [(1, 1, 1), (1, 0, 1), (2, 3, 1), (1, 2, 3)]:
        manifolds.append(blow_up(torus_surgery(torus_surgery(
            t4(), "alpha2'xalpha3'", q), "alpha2''xalpha4'", r, m)))
    manifolds += [torus_surgery(torus_surgery(
        t4b2(), "alpha1'xalpha3'", 2), "alpha2'xalpha3''", 3)]
    manifolds += [torus_surgery(torus_surgery(
        t2xg2(0, 0), "a2'xc'", 3), "a2''xd'", 2)]
    # the geography recipes, each with its torus complement
    for chi, c1sq in [(1, 5), (1, 7), (2, 9), (2, 11), (2, 13), (2, 15),
                      (3, 23)]:
        M, site = geography._recipe(chi, c1sq)
        manifolds.append(M)
        M.pi1.without_relator(M.site(site).relator)
    # every shipped manifest, built and certified
    for path in sorted(MANIFESTS.glob("*.m4")):
        result = run_manifest(parse_manifest(path.read_text()))
        assert all(o.passed for o in result.outcomes), path.name
        manifolds += result.manifolds.values()
    for M in manifolds:
        M.pi1.strip_meridional()
        core_presentation(M.pi1, [c.relator for c in M.pi1.conditional])

    assert set().union(*(names for names, _ in derived)) == {
        "strip_meridional", "without_relator", "relator_to_tier", "glued",
        "replace_relator", "_spliced", "with_prefix", "core_presentation"}
    for p in [p for _, p in derived] + [
            q for M in manifolds
            for q in (M.pi1, *(s.complement_pi1 for s in M.surfaces))]:
        assert FpPresentation(p.generators, p.relators, p.conditional,
                              p.meridional) == p


def test_building_the_family_parses_no_text_per_generator(monkeypatch):
    # every text a block parses is a constant, parsed once per process, and
    # the tail of g2xgn is built from letters: each build parsed 26 texts,
    # and parsing four texts for each j >= 3 made 1,298 parses at n = 320.
    # Parses are counted where every one of them starts, at the tokenizer,
    # since a parsed constant need not call parse_word through any module.
    words = importlib.import_module("m4kit.words")
    tokens, texts = words._TOKEN_RE, []

    class Counting:
        def findall(self, text):
            texts.append(text)
            return tokens.findall(text)

    exotic_odd_cp2(10, 1)
    monkeypatch.setattr(words, "_TOKEN_RE", Counting())
    words.parse_word("[c, d]")
    assert texts == ["[c, d]"]
    for n in (10, 320):
        texts.clear()
        exotic_odd_cp2(n, 1)
        assert texts == [], f"n={n}: a build after the first parsed {texts}"
