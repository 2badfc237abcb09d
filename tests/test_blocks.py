"""Building blocks: frozen transcriptions of every constructor, the marked
surfaces and surgery sites, characteristic numbers, and H1 oracles.

The _EXPECTED strings below were transcribed by hand, independently of
blocks.py, from the blocks' standard presentations (products of surface
groups twisted by the stated surgeries); any silent edit to a constructor
shows up here as a relator diff.
"""

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
from m4kit.presentation import FpPresentation, PresentationError, parse_presentation
from m4kit.words import commutator, gen, parse_word

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
}


@pytest.mark.parametrize("key, build", [
    ("t2xg2(1,1)", lambda: t2xg2(1, 1)),
    ("bt4(1,1,1)", lambda: bt4(1, 1, 1)),
    ("bbt4(1,1)", lambda: bbt4(1, 1)),
    ("t4()", t4),
    ("t4b2()", t4b2),
    ("t2xs2b4()", t2xs2b4),
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
