"""The headline families, checked cheaply: characteristic numbers across the
parameter ranges, abelianization oracles, and plumbing of the sign choice.
Certification of the groups themselves happens in the acceptance suite."""

import importlib

import pytest

from m4kit.abelian import AbelianGroup, h1
from m4kit.constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from m4kit.words import Word


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


def test_each_word_is_checked_once_per_presentation(monkeypatch):
    # g2xgn's pi1 and complement, and fiber_sum's closed sum and complement:
    # four presentations, each checking every word once.  Adding each
    # identification to a new presentation checks 1,595 words at n = 40.
    presentation = importlib.import_module("m4kit.presentation")
    check, calls = presentation._check_word, []

    def counting(w, what, generators):
        calls.append(w)
        check(w, what, generators)

    monkeypatch.setattr(presentation, "_check_word", counting)
    p = exotic_odd_cp2(40, 1).pi1
    words = len(p.relators) + 2 * len(p.conditional) + len(p.meridional)
    assert words == 180
    assert len(calls) <= 4 * words


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
