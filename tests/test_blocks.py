"""Building blocks: frozen transcriptions of every constructor, the marked
surfaces and surgery sites, characteristic numbers, and H1 oracles.

The _EXPECTED strings below were transcribed by hand, independently of
blocks.py, from the blocks' standard presentations (products of surface
groups twisted by the stated surgeries); any silent edit to a constructor
shows up here as a relator diff.  A SHA-256 over a grid of builds (blocks,
surgeries and constructions) pins every other field as well.
"""

import hashlib

import pytest

from m4kit.abelian import AbelianGroup, h1
from m4kit.blocks import (
    CATALOG,
    EmbeddedSurface,
    MarkedManifold,
    SurgeryDatum,
    bbt4,
    bt4,
    g2xgn,
    t2xg2,
    t2xs2b4,
    t4,
    t4b2,
)
from m4kit.constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from m4kit.presentation import FpPresentation, PresentationError, parse_presentation
from m4kit.surgery import blow_up, torus_surgery
from m4kit.words import Record, Word, commutator, gen, parse_word, replace

_EXPECTED = {
    "t2xg2(1,1)": """
        generators: a1, b1, a2, b2, c, d
        relator: b1^-1 d^-1 b1 d a1^-1
        relator: a1^-1 d a1 d^-1 b1^-1
        relator: d^-1 b2^-1 d b2 c^-1
        relator: c^-1 b2 c b2^-1 d^-1
        relator: a1 c a1^-1 c^-1
        relator: b1 c b1^-1 c^-1
        relator: a2 c a2^-1 c^-1
        relator: a2 d a2^-1 d^-1
        relator: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
        relator: c d c^-1 d^-1
    """,
    "bt4(1,1,1)": """
        generators: alpha1, alpha2, alpha3, alpha4
        relator: alpha3 alpha4^-1 alpha1^-1 alpha4 alpha1
        relator: alpha4 alpha3^-1 alpha1 alpha3 alpha1^-1
        relator: alpha2 alpha3 alpha2^-1 alpha3^-1
        relator: alpha2 alpha4 alpha2^-1 alpha4^-1
        relator: alpha1 alpha2 alpha1^-1 alpha2^-1
        relator: alpha3 alpha4 alpha3^-1 alpha4^-1
    """,
    "bbt4(1,1)": """
        generators: alpha1, alpha2, alpha3, alpha4
        relator: alpha1 alpha4^-1 alpha2^-1 alpha4 alpha2
        relator: alpha2 alpha4 alpha1^-1 alpha4^-1 alpha1
        relator: alpha1 alpha3 alpha1^-1 alpha3^-1
        relator: alpha2 alpha3 alpha2^-1 alpha3^-1
        relator: alpha1 alpha2 alpha1^-1 alpha2^-1
        relator: alpha3 alpha4 alpha3^-1 alpha4^-1
    """,
    "t4()": """
        generators: alpha1, alpha2, alpha3, alpha4
        relator: alpha1 alpha4 alpha1^-1 alpha4^-1
        relator: alpha1 alpha3 alpha1^-1 alpha3^-1
        relator: alpha2 alpha3 alpha2^-1 alpha3^-1
        relator: alpha2 alpha4 alpha2^-1 alpha4^-1
        relator: alpha1 alpha2 alpha1^-1 alpha2^-1
        relator: alpha3 alpha4 alpha3^-1 alpha4^-1
    """,
    "t4b2()": """
        generators: alpha1, alpha2, alpha3, alpha4
        relator: alpha2 alpha4 alpha2^-1 alpha4^-1
        relator: alpha1 alpha4 alpha1^-1 alpha4^-1
        relator: alpha1 alpha3 alpha1^-1 alpha3^-1
        relator: alpha2 alpha3 alpha2^-1 alpha3^-1
        relator: alpha1 alpha2 alpha1^-1 alpha2^-1
        relator: alpha3 alpha4 alpha3^-1 alpha4^-1
    """,
    "t2xs2b4()": """
        generators: c, d
        relator: c d c^-1 d^-1
    """,
    "g2xgn(3,2)": """
        generators: a1, b1, a2, b2, c1, d1, c2, d2, c3, d3
        relator: b1^-1 d1^-1 b1 d1 a1^-1
        relator: a1^-1 d1 a1 d1^-1 b1^-1
        relator: b2^-1 d2^-1 b2 d2 a2^-1
        relator: a2^-1 d2 a2 d2^-1 b2^-1
        relator: d1^-1 b2^-1 d1 b2 c1^-1
        relator: c1^-1 b2 c1 b2^-1 d1^-1
        relator: d2^-1 b1^-1 d2 b1 c2^-1
        relator: c2^-1 b1 c2 b1^-1 c2^-1 b1 c2 b1^-1 d2^-1
        relator: a1 c1 a1^-1 c1^-1
        relator: a1 c2 a1^-1 c2^-1
        relator: a1 d2 a1^-1 d2^-1
        relator: b1 c1 b1^-1 c1^-1
        relator: a2 c1 a2^-1 c1^-1
        relator: a2 c2 a2^-1 c2^-1
        relator: a2 d1 a2^-1 d1^-1
        relator: b2 c2 b2^-1 c2^-1
        relator: a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1
        relator: c1 d1 c1^-1 d1^-1 c2 d2 c2^-1 d2^-1 c3 d3 c3^-1 d3^-1
        relator: a1^-1 d3^-1 a1 d3 c3^-1
        relator: a2^-1 c3^-1 a2 c3 d3^-1
        relator: b1 c3 b1^-1 c3^-1
        relator: b2 d3 b2^-1 d3^-1
    """,
}


@pytest.mark.parametrize("key, build", [
    ("t2xg2(1,1)", lambda: t2xg2(1, 1)),
    ("bt4(1,1,1)", lambda: bt4(1, 1, 1)),
    ("bbt4(1,1)", lambda: bbt4(1, 1)),
    ("t4()", t4),
    ("t4b2()", t4b2),
    ("t2xs2b4()", t2xs2b4),
    ("g2xgn(3,2)", lambda: g2xgn(3, 2)),
])
def test_transcription_fixtures(key, build):
    expected = parse_presentation(_EXPECTED[key])
    got = build().pi1
    assert got.generators == expected.generators
    assert got.relators == expected.relators


# -- characteristic numbers ----------------------------------------------------

@pytest.mark.parametrize("M, e, sigma, parity, symplectic, minimal", [
    (t2xg2(1, 1), 0, 0, "unknown", True, True),
    (t2xg2(2, 1), 0, 0, "unknown", True, None),
    (g2xgn(2, 1), 4, 0, "unknown", True, None),
    (g2xgn(5, 1), 16, 0, "unknown", True, None),
    (g2xgn(2, 3), 4, 0, "unknown", False, None),
    (bt4(1, 1, 1), 1, -1, "odd", True, False),
    (bt4(1, 1, 2), 1, -1, "odd", False, False),
    (bbt4(1, 1), 2, -2, "odd", True, False),
    (t4(), 0, 0, "even", True, True),
    (t4b2(), 2, -2, "odd", True, False),
    (t2xs2b4(), 4, -4, "odd", True, False),
])
def test_characteristic_numbers(M, e, sigma, parity, symplectic, minimal):
    assert (M.euler, M.signature) == (e, sigma)
    assert M.parity == parity
    assert M.symplectic is symplectic
    assert M.minimal is minimal


def test_g2xgn_euler_formula():
    for n in range(2, 8):
        assert g2xgn(n, 1).euler == 4 * n - 4


# -- H1 oracles (exponent-sum kill patterns checked by hand) --------------------

@pytest.mark.parametrize("p, expected", [
    (t2xg2(1, 1).pi1, AbelianGroup(2)),       # a1,b1,c,d die; a2,b2 survive
    (t2xg2(0, 1).pi1, AbelianGroup(3)),       # p=0 leaves c alive too
    (g2xgn(2, 1).pi1, AbelianGroup(0)),       # everything dies
    (g2xgn(3, 2).pi1, AbelianGroup(0)),
    (bt4(1, 1, 1).pi1, AbelianGroup(2)),      # alpha3, alpha4 die
    (bbt4(1, 1).pi1, AbelianGroup(2)),        # alpha1, alpha2 die
    (t4().pi1, AbelianGroup(4)),
    (t2xs2b4().pi1, AbelianGroup(2)),
])
def test_h1_oracles(p, expected):
    assert h1(p) == expected


# -- surfaces and sites ----------------------------------------------------------

def test_t2xg2_surface_marking():
    M = t2xg2(1, 1)
    S = M.surface("Sigma2")
    assert S.genus == 2 and S.self_intersection == 0
    assert S.meridian == commutator(gen("c"), gen("d"))
    assert S.modulo_meridian == frozenset()
    assert [label for label, _ in S.generator_images] == ["a1", "b1", "a2", "b2"]
    # complement forgets exactly the meridian relator
    assert S.meridian in M.pi1.relators
    assert S.meridian not in S.complement_pi1.relators
    assert S.complement_pi1.generators == M.pi1.generators


def test_bt4_surface_is_exact_only_modulo_meridian():
    S = bt4(1, 1, 1).surface("SigmaBar2")
    assert S.modulo_meridian == frozenset({"abar2"})
    images = dict(S.generator_images)
    assert images["abar2"] == parse_word("alpha3^2")
    assert images["bbar2"] == gen("alpha4")
    # complement knows the image of the fiber only up to a meridional tier
    assert len(S.complement_pi1.meridional) == 1
    assert S.complement_pi1.meridional[0].key == S.meridian


def _g2xgn_by_parsing(n, m):
    """g2xgn's pi1, surface complement and sites, every word parsed from
    its text: the oracle for the constructor, which builds its tail from
    letters."""
    # (name, curve, pushoff, torus, multiplicity)
    sites = [("a1'xc1'", "a1", "[b1^-1, d1^-1]", ("a1", "c1"), 1),
             ("b1'xc1''", "b1", "[a1^-1, d1]", ("b1", "c1"), 1),
             ("a2'xc2'", "a2", "[b2^-1, d2^-1]", ("a2", "c2"), 1),
             ("b2'xc2''", "b2", "[a2^-1, d2]", ("b2", "c2"), 1),
             ("a2'xc1'", "c1", "[d1^-1, b2^-1]", ("a2", "c1"), 1),
             ("a2''xd1'", "d1", "[c1^-1, b2]", ("a2", "d1"), 1),
             ("a1'xc2'", "c2", "[d2^-1, b1^-1]", ("a1", "c2"), 1),
             ("a1''xd2'", "d2", "[c2^-1, b1]", ("a1", "d2"), m)]
    tail = []
    for j in range(3, n + 1):
        sites += [(f"b1'xc{j}'", f"c{j}", f"[a1^-1, d{j}^-1]",
                   ("b1", f"c{j}"), 1),
                  (f"b2'xd{j}'", f"d{j}", f"[a2^-1, c{j}^-1]",
                   ("b2", f"d{j}"), 1)]
        tail += [f"({sites[-2][2]}) c{j}^-1", f"({sites[-1][2]}) d{j}^-1",
                 f"[b1, c{j}]", f"[b2, d{j}]"]
    data = tuple(SurgeryDatum(
        name, curve, parse_word(pushoff), torus,
        parse_word(f"({pushoff})^{k} {curve}^-1"), parse_word(pushoff))
        for name, curve, pushoff, torus, k in sites)
    head = [f"({pushoff})^{k} {curve}^-1"
            for _, curve, pushoff, _, k in sites[:8]]
    head += ["[a1, c1]", "[a1, c2]", "[a1, d2]", "[b1, c1]", "[a2, c1]",
             "[a2, c2]", "[a2, d1]", "[b2, c2]", "[a1, b1] [a2, b2]"]
    fiber = " ".join(f"[c{j}, d{j}]" for j in range(1, n + 1))
    gens = ("a1", "b1", "a2", "b2") + tuple(
        x for j in range(1, n + 1) for x in (f"c{j}", f"d{j}"))
    pi1 = FpPresentation(gens, tuple(map(parse_word, head + [fiber] + tail)))
    complement = FpPresentation(gens, tuple(map(parse_word, head + tail)))
    return pi1, complement, data


@pytest.mark.parametrize("n", range(2, 13))
def test_g2xgn_matches_a_parse_based_oracle(n):
    for m in (1, 2, 3):
        M = g2xgn(n, m)
        pi1, complement, sites = _g2xgn_by_parsing(n, m)
        assert M.pi1 == pi1
        assert M.surface("Sigma2").complement_pi1 == complement
        assert M.sites == sites
        # the letter count that the constructor checks against MAX_LETTERS
        assert sum(map(len, pi1.relators)) == 22 * n + 4 * m + 40


def test_g2xgn_letter_cap_counts_the_whole_presentation():
    # each word of G2xGn(45453, 1) is far inside the cap, but its relators
    # together exceed it
    assert sum(map(len, g2xgn(4000, 1).pi1.relators)) == 88_044
    with pytest.raises(ValueError, match="more than 1,000,000 letters"):
        g2xgn(45_453, 1)
    with pytest.raises(ValueError, match="more than 1,000,000 letters"):
        g2xgn(2, 249_980)


def test_site_count_grows_with_genus():
    assert len(g2xgn(2, 1).sites) == 8
    assert len(g2xgn(3, 1).sites) == 10
    assert len(g2xgn(6, 1).sites) == 16


def test_sites_store_live_relators():
    for M in (t2xg2(1, 1), bt4(1, 1, 1), bbt4(1, 1), t4(), t4b2()):
        for site in M.sites:
            assert site.relator in M.pi1.relators, (M.name, site.name)


def test_bt4_degenerate_coefficients_leave_sites_unsurgered():
    M = bt4(0, 0, 1)
    r1, r2 = (s.relator for s in M.sites)
    assert r1 == commutator(gen("alpha1"), gen("alpha4"))
    assert r2 == commutator(gen("alpha1"), gen("alpha3"))
    assert all(s.relator == s.unsurgered for s in M.sites)


def test_bt4_sign_choice_lands_in_second_site_pushoff():
    plus = bt4(1, 1, 1, 1, 1)
    minus = bt4(1, 1, 1, 1, -1)
    p_plus = [s for s in plus.sites if s.name == "alpha2''xalpha4'"][0].pushoff
    p_minus = [s for s in minus.sites if s.name == "alpha2''xalpha4'"][0].pushoff
    assert p_plus == commutator(gen("alpha1"), gen("alpha3"))
    assert p_minus == commutator(gen("alpha1"), gen("alpha3", -1))
    assert p_plus != p_minus


# -- argument validation ------------------------------------------------------------

def test_constructor_argument_checks():
    with pytest.raises(ValueError):
        g2xgn(1, 1)                      # n >= 2
    with pytest.raises(ValueError):
        bt4(1, 2, 2)                     # gcd(m, r) must be 1
    with pytest.raises(ValueError):
        bt4(1, 1, 0)                     # m >= 1
    with pytest.raises(ValueError):
        bbt4(0, 1)                       # q, r >= 1 here
    with pytest.raises(ValueError):
        bt4(1, 1, 1, 2, 1)               # signs are +-1


def test_catalog_names_every_block():
    assert set(CATALOG) == {"T2xG2", "G2xGn", "BT4", "BBT4",
                            "T4b2", "T4", "T2xS2b4"}
    for fn in CATALOG.values():
        assert callable(fn)


# -- MarkedManifold validation --------------------------------------------------------

def test_manifold_rejects_foreign_site_relator():
    p = FpPresentation(("a", "b"), (commutator(gen("a"), gen("b")),))
    bad_site = SurgeryDatum(
        name="s", curve="a", pushoff=gen("b"),
        torus_generators=("a", "b"),
        relator=parse_word("a^2"),       # not a pi1 relator
        unsurgered=parse_word("a^2"))
    with pytest.raises(PresentationError) as exc:
        MarkedManifold("X", 0, 0, "unknown", True, None, p, (), (bad_site,))
    assert str(exc.value) == (
        "site 's': its relator 'a^2' is not among the pi1 relators")


def _site(name, curve, relator):
    return SurgeryDatum(name=name, curve=curve, pushoff=gen("b"),
                        torus_generators=("a", "b"), relator=relator,
                        unsurgered=relator)


# Sites with two faults and the one named: sites in order, and within a
# site the curve before the relator.
@pytest.mark.parametrize("sites, message", [
    ([("s", "q", "a^2")], "site 's': curve 'q' is not a generator"),
    ([("s", "a", "a^2"), ("t", "q", "[a, b]")],
     "site 's': its relator 'a^2' is not among the pi1 relators"),
    ([("s", "q", "[a, b]"), ("t", "a", "a^2")],
     "site 's': curve 'q' is not a generator"),
])
def test_manifold_names_the_first_of_two_faults(sites, message):
    p = FpPresentation(("a", "b"), (commutator(gen("a"), gen("b")),))
    sites = tuple(_site(n, c, parse_word(r)) for n, c, r in sites)
    with pytest.raises(PresentationError) as exc:
        MarkedManifold("X", 0, 0, "unknown", True, None, p, (), sites)
    assert str(exc.value) == message


AB = FpPresentation(("a", "b"), (commutator(gen("a"), gen("b")),))


# each site check alone: the one pass over all sites must send every fault
# to the per-site loop that names it.  A site relator equal to a pi1
# relator is among them whether or not it is the same object.
@pytest.mark.parametrize("changes, message", [
    (dict(pushoff=gen("q")), "site 's': word 'q' uses unknown generators"),
    (dict(unsurgered=parse_word("a q")),
     "site 's': word 'a q' uses unknown generators"),
    (dict(torus_generators=("a", "q")),
     "site 's': torus generators not in pi1"),
    (dict(curve="q"), "site 's': curve 'q' is not a generator"),
    (dict(relator=parse_word("a^2")),
     "site 's': its relator 'a^2' is not among the pi1 relators"),
    (dict(relator=commutator(gen("a"), gen("b"))), None),
    (dict(relator=AB.relators[0]), None),
])
def test_manifold_checks_each_site(changes, message):
    site = replace(_site("s", "a", AB.relators[0]), **changes)
    if message is None:
        assert MarkedManifold("X", 0, 0, "unknown", True, None, AB, (),
                              (site,)).sites == (site,)
        return
    with pytest.raises(PresentationError) as exc:
        MarkedManifold("X", 0, 0, "unknown", True, None, AB, (), (site,))
    assert str(exc.value) == message


@pytest.mark.parametrize("images, meridian, message", [
    ((("x", gen("a")), ("y", gen("q"))), gen("b"),
     "surface 'S': image of y uses unknown generators"),
    ((("x", gen("a")), ("y", gen("b"))), gen("q"),
     "surface 'S': meridian uses unknown generators"),
    ((("x", gen("a")), ("y", gen("b"))), gen("b"), None),
])
def test_surface_checks_each_curve_image_and_its_meridian(images, meridian,
                                                           message):
    def surface():
        return EmbeddedSurface(
            name="S", genus=1, self_intersection=0, generator_images=images,
            modulo_meridian=frozenset(), meridian=meridian,
            complement_pi1=AB)

    if message is None:
        assert surface().generator_images == images
        return
    with pytest.raises(PresentationError) as exc:
        surface()
    assert str(exc.value) == message


def test_manifold_rejects_mismatched_complement():
    p = FpPresentation(("a", "b"), (commutator(gen("a"), gen("b")),))
    bad_surface = EmbeddedSurface(
        name="S", genus=1, self_intersection=0,
        generator_images=(("x", gen("a")), ("y", gen("a"))),
        modulo_meridian=frozenset(),
        meridian=gen("a"),
        complement_pi1=FpPresentation(("a",)))   # generators differ
    with pytest.raises(PresentationError):
        MarkedManifold("X", 0, 0, "unknown", True, None, p, (bad_surface,), ())


def test_surface_image_count_must_match_genus():
    with pytest.raises(PresentationError):
        EmbeddedSurface(
            name="S", genus=2, self_intersection=0,
            generator_images=(("x", gen("a")),),
            modulo_meridian=frozenset(),
            meridian=gen("a"),
            complement_pi1=FpPresentation(("a",)))


def test_surface_lookup_helpers():
    M = t2xg2(1, 1)
    assert M.surface("Sigma2").name == "Sigma2"
    with pytest.raises(KeyError):
        M.surface("nope")
    assert M.site("a2'xc'").curve == "c"
    with pytest.raises(KeyError):
        M.site("nope")


# -- every build, pinned ------------------------------------------------------------

def _canonical(x):
    """A text form of a build that does not depend on the hash seed."""
    if isinstance(x, frozenset):
        return repr(sorted(x))
    if isinstance(x, tuple):
        return "(" + ", ".join(map(_canonical, x)) + ")"
    if isinstance(x, Record) and not isinstance(x, Word):
        return type(x).__name__ + "(" + ", ".join(
            f"{f}={_canonical(getattr(x, f))}" for f in x.__slots__) + ")"
    return repr(x)


def _builds():
    """(label, thunk) for every block over a parameter grid, validation
    errors included, surgery at every site of the blocks, and every
    construction."""
    grid = [(f"t2xg2({p},{q})", lambda p=p, q=q: t2xg2(p, q))
            for p in range(-1, 4) for q in range(-1, 4)]
    grid += [(f"g2xgn({n},{m})", lambda n=n, m=m: g2xgn(n, m))
             for n in range(1, 6) for m in range(0, 4)]
    grid += [(f"bt4({q},{r},{m})", lambda q=q, r=r, m=m: bt4(q, r, m))
             for q in range(-1, 4) for r in range(-1, 4) for m in range(0, 4)]
    grid += [(f"bt4({q},{r},1,{e1},{e3})",
              lambda q=q, r=r, e1=e1, e3=e3: bt4(q, r, 1, e1, e3))
             for q, r in ((0, 0), (1, 0), (1, 1), (2, 3))
             for e1 in (1, -1, 0) for e3 in (1, -1, 2)]
    grid += [(f"bbt4({q},{r})", lambda q=q, r=r: bbt4(q, r))
             for q in range(-1, 5) for r in range(-1, 5)]
    grid += [("t4()", t4), ("t4b2()", t4b2), ("t2xs2b4()", t2xs2b4)]
    grid += [(f"blow_up(t4(),{n})", lambda n=n: blow_up(t4(), n))
             for n in range(0, 3)]
    for M in (t2xg2(1, 1), t2xg2(0, 0), g2xgn(3, 2), bt4(1, 1, 1),
              bt4(0, 0, 1), bbt4(1, 1), t4(), t4b2()):
        grid += [(f"torus_surgery({M.name},{s.name},{k},{m})",
                  lambda M=M, s=s, k=k, m=m: torus_surgery(M, s.name, k, m))
                 for s in M.sites
                 for k, m in ((0, 1), (1, 1), (2, 1), (1, 2), (3, 2), (2, 4))]
    grid += [(f"exotic_cp2_2({m},{e1},{e3})",
              lambda m=m, e1=e1, e3=e3: exotic_cp2_2(m, eps1=e1, eps3=e3))
             for m in (1, 2) for e1 in (1, -1) for e3 in (1, -1)]
    grid += [(f"exotic_odd_cp2({n},{m})", lambda n=n, m=m: exotic_odd_cp2(n, m))
             for n in range(2, 6) for m in range(1, 4)]
    grid += [(f"exotic_odd_cp2(3,1,{e1},{e3})",
              lambda e1=e1, e3=e3: exotic_odd_cp2(3, 1, eps1=e1, eps3=e3))
             for e1 in (1, -1) for e3 in (1, -1)]
    grid += [(f"cyclic_family({p},{m})", lambda p=p, m=m: cyclic_family(p, m))
             for p in range(0, 4) for m in (1, 2)]
    grid += [(f"exotic_cp2_4({m},{e1},{e3})",
              lambda m=m, e1=e1, e3=e3: exotic_cp2_4(m, eps1=e1, eps3=e3))
             for m in (1, 2) for e1 in (1, -1) for e3 in (1, -1)]
    grid += [(f"exotic_cp2_6({m},{e1},{e3})",
              lambda m=m, e1=e1, e3=e3: exotic_cp2_6(m, eps1=e1, eps3=e3))
             for m in (1, 2) for e1 in (1, -1) for e3 in (1, -1)]
    grid += [("finite_cyclic_example()", finite_cyclic_example)]
    return grid


def _build_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    builds = _builds()
    for label, build in builds:
        try:
            got = _canonical(build())
        except ValueError as exc:
            got = f"{type(exc).__name__}: {exc}"
        h.update(f"{label} -> {got}\n".encode())
    return len(builds), h.hexdigest()


# every field of every build above, pinned: recompute only for a build
# that is meant to change
BUILD_DIGEST = (
    440, "4c6400eb240b8b9cc034d66a61adeabca135cd388a47b9adbe3b98e47176eca9")


def test_every_build_matches_its_pinned_digest():
    assert _build_digest() == BUILD_DIGEST
