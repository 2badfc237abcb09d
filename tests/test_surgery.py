"""Surgery operations: relator rewrites, blow-ups, renames, and fiber sums.

The route checks are the heart of this file: a block constructor that was
transcribed "already twisted" must agree with actually performing the
surgeries on the untwisted block.
"""

import pytest

from m4kit.blocks import bbt4, bt4, t2xg2, t2xs2b4, t4, t4b2
from m4kit.presentation import ConditionalRelator
from m4kit.surgery import SurgeryError, blow_up, fiber_sum, rename_manifold, torus_surgery
from m4kit.words import commutator, cyclically_equal, gen, parse_word


# -- torus surgery ---------------------------------------------------------------

def test_surgery_replaces_relator_everywhere():
    M = t2xg2(1, 1)
    out = torus_surgery(M, "a2'xc'", 3)
    site = out.site("a2'xc'")
    expected = parse_word("c^3") * site.pushoff.inverse()
    assert site.relator == expected
    assert expected in out.pi1.relators
    assert M.site("a2'xc'").relator not in out.pi1.relators
    # the surface complement sees the same rewrite
    comp = out.surface("Sigma2").complement_pi1
    assert expected in comp.relators


def test_surgery_multiplicity_breaks_symplectic():
    M = t2xg2(1, 1)
    assert torus_surgery(M, "a2'xc'", 1, 1).symplectic is True
    assert torus_surgery(M, "a2'xc'", 1, 2).symplectic is False
    assert torus_surgery(M, "a2'xc'", 2, 3).symplectic is False


def test_surgery_preserves_e_sigma_and_odd_parity():
    B = bt4(1, 1, 1)
    out = torus_surgery(B, "alpha2'xalpha3'", 5)
    assert (out.euler, out.signature) == (B.euler, B.signature)
    assert out.parity == "odd"           # odd survives
    E = t4()
    assert torus_surgery(E, "alpha2'xalpha3'", 5).parity == "unknown"  # even does not


def test_unsurgering_restores_the_relator():
    M = t4()
    twisted = torus_surgery(M, "alpha2'xalpha3'", 4)
    assert twisted.pi1 != M.pi1
    back = torus_surgery(twisted, "alpha2'xalpha3'", 0)
    assert back.pi1 == M.pi1
    assert [s.relator for s in back.sites] == [s.relator for s in M.sites]


def test_surgery_coefficient_validation():
    M = t4()
    with pytest.raises(SurgeryError):
        torus_surgery(M, "alpha2'xalpha3'", -1)
    with pytest.raises(SurgeryError):
        torus_surgery(M, "alpha2'xalpha3'", 2, 4)    # not reduced
    with pytest.raises(SurgeryError):
        torus_surgery(M, "alpha2'xalpha3'", 0, 2)    # gcd(0, 2) = 2
    with pytest.raises(KeyError):
        torus_surgery(M, "no_such_site", 1)


# -- blow-up -----------------------------------------------------------------------

def test_blow_up_arithmetic():
    M = t4()
    out = blow_up(M)
    assert (out.euler, out.signature) == (1, -1)
    assert out.parity == "odd"
    assert out.minimal is False
    assert out.pi1 == M.pi1
    assert out.name.endswith("#CP2bar")
    out2 = blow_up(M, 3)
    assert (out2.euler, out2.signature) == (3, -3)
    assert out2.name.endswith("#3CP2bar")
    with pytest.raises(SurgeryError):
        blow_up(M, 0)


# -- the constructor-vs-route checks ----------------------------------------------------

@pytest.mark.parametrize("q, r, m", [(1, 1, 1), (1, 0, 1), (0, 0, 1),
                                     (2, 3, 1), (1, 1, 2), (1, 2, 3)])
def test_bt4_equals_surgered_blown_up_t4(q, r, m):
    route = blow_up(torus_surgery(
        torus_surgery(t4(), "alpha2'xalpha3'", q), "alpha2''xalpha4'", r, m))
    direct = bt4(q, r, m)
    assert direct.pi1.relators == route.pi1.relators   # exact, order included
    assert direct.pi1.generators == route.pi1.generators
    assert (direct.euler, direct.signature) == (route.euler, route.signature)
    assert direct.parity == route.parity
    assert direct.symplectic == route.symplectic


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bbt4_equals_surgered_t4b2(q, r):
    route = torus_surgery(torus_surgery(
        t4b2(), "alpha1'xalpha3'", q), "alpha2'xalpha3''", r)
    direct = bbt4(q, r)
    assert direct.pi1 == route.pi1
    assert direct.sites == route.sites
    assert direct.surfaces == route.surfaces      # the complement included


def test_t4b2_is_t4_relabelled_for_its_sites():
    # same group, same flavor of sites, surface added; only the relator
    # order differs so the site relators can sit at the front
    assert set(t4b2().pi1.relators) == set(blow_up(blow_up(t4())).pi1.relators)
    assert (t4b2().euler, t4b2().signature) == (2, -2)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (0, 1), (3, 2)])
def test_t2xg2_matches_its_surgery_route_cyclically(p, q):
    route = torus_surgery(torus_surgery(
        t2xg2(0, 0), "a2'xc'", p), "a2''xd'", q)
    direct = t2xg2(p, q)
    assert direct.pi1.generators == route.pi1.generators
    assert len(direct.pi1.relators) == len(route.pi1.relators)
    for d_rel, r_rel in zip(direct.pi1.relators, route.pi1.relators):
        # the constructor stores the twisted relators pushoff-first, the
        # surgery writes them curve-first: equal as cyclic words only
        assert cyclically_equal(d_rel, r_rel), (str(d_rel), str(r_rel))


# -- rename -------------------------------------------------------------------------

def test_rename_manifold_is_systematic():
    M = bt4(1, 1, 1)
    out = rename_manifold(M, "z_")
    assert out.pi1.generators == tuple("z_" + g for g in M.pi1.generators)
    assert out.surface("z_SigmaBar2").meridian == parse_word(
        "z_alpha3 z_alpha4 z_alpha3^-1 z_alpha4^-1")
    assert out.site("z_alpha2'xalpha3'").curve == "z_alpha3"
    # curve labels on the surface marking are not generator names: kept
    assert [l for l, _ in out.surface("z_SigmaBar2").generator_images] == \
           [l for l, _ in M.surface("SigmaBar2").generator_images]
    assert (out.euler, out.signature, out.parity) == \
           (M.euler, M.signature, M.parity)


# -- fiber sum -----------------------------------------------------------------------

def test_fiber_sum_assembles_the_candidate_presentation():
    L, R = t2xg2(1, 1), bt4(1, 1, 1)
    out = fiber_sum(L, "Sigma2", R, "SigmaBar2")
    assert out.pi1.generators == L.pi1.generators + R.pi1.generators
    # meridian gluing relator mu_L * mu_R
    mu = L.surface("Sigma2").meridian * R.surface("SigmaBar2").meridian
    assert mu in out.pi1.relators
    # exact identifications are plain relators: a1 = alpha1 etc.
    assert parse_word("a1 alpha1^-1") in out.pi1.relators
    assert parse_word("b1 alpha2^-1") in out.pi1.relators
    assert parse_word("b2 alpha4^-1") in out.pi1.relators
    # the modulo-meridian curve gives a conditional relator instead
    conds = out.pi1.conditional
    assert len(conds) == 1
    assert conds[0] == ConditionalRelator(
        parse_word("a2 alpha3^-2"),
        commutator(gen("alpha3"), gen("alpha4")))
    assert parse_word("a2 alpha3^-2") not in out.pi1.relators


def test_fiber_sum_characteristic_numbers_and_parity():
    L, R = t2xg2(1, 1), bt4(1, 1, 1)
    out = fiber_sum(L, "Sigma2", R, "SigmaBar2")
    assert out.euler == L.euler + R.euler + 4      # genus 2: -e(Sigma) * 2
    assert out.signature == L.signature + R.signature
    assert out.parity == "odd"                     # sigma = -1 is not 0 mod 8
    flat = fiber_sum(t2xg2(1, 1), "Sigma2", t2xg2(1, 1), "Sigma2", prefix="w_")
    assert flat.signature == 0
    assert flat.parity == "unknown"                # nothing forces oddness


def test_fiber_sum_survivor_is_left_surface():
    out = fiber_sum(t2xg2(1, 1), "Sigma2", bt4(1, 1, 1), "SigmaBar2")
    assert [s.name for s in out.surfaces] == ["Sigma2"]
    S = out.surface("Sigma2")
    assert S.complement_pi1.generators == out.pi1.generators
    # complement = sum presentation minus the glued-meridian relator
    mu = parse_word("c d c^-1 d^-1 alpha3 alpha4 alpha3^-1 alpha4^-1")
    assert mu in out.pi1.relators
    assert mu not in S.complement_pi1.relators


def test_fiber_sum_keeps_both_sides_sites():
    out = fiber_sum(t2xg2(1, 1), "Sigma2", bt4(1, 1, 1), "SigmaBar2")
    names = {s.name for s in out.sites}
    assert "a2'xc'" in names                       # left, unrenamed
    assert "alpha2'xalpha3'" in names              # right, no prefix needed
    out2 = fiber_sum(t4b2(), "SigmaHat2", bt4(1, 1, 1), "SigmaBar2",
                     prefix="z_")
    names2 = {s.name for s in out2.sites}
    assert "z_alpha2'xalpha3'" in names2           # right, prefixed


def test_fiber_sum_requires_prefix_on_alphabet_clash():
    with pytest.raises(SurgeryError):
        fiber_sum(t4b2(), "SigmaHat2", bt4(1, 1, 1), "SigmaBar2")


def test_fiber_sum_genus_mismatch_rejected():
    # no genus-1 marked surface exists in the catalog, so fake the check by
    # summing along surfaces from blocks of different genus is not possible;
    # instead confirm square-zero and genus agreement pass where they should
    out = fiber_sum(t2xs2b4(), "SigmaTilde2", bt4(1, 1, 1), "SigmaBar2")
    assert out.euler == 9 and out.signature == -5


def test_fiber_sum_name_and_prefix_bookkeeping():
    out = fiber_sum(t2xg2(1, 1), "Sigma2", bt4(1, 1, 1), "SigmaBar2")
    assert t2xg2(1, 1).name in out.name and bt4(1, 1, 1).name in out.name
