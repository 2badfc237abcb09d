"""Geography coordinates, the odd region, homeomorphism models, and one
fully verified realization (the rest of the realization table lives in the
acceptance suite, where every row is run)."""

import pytest
from hypothesis import given, strategies as st

from m4kit.blocks import bt4, t4
from m4kit.certify import certify
from m4kit.constructions import exotic_cp2_2
from m4kit.geography import (
    FreedmanModel,
    GeoPoint,
    GeographyError,
    coords,
    freedman_model,
    in_odd_region,
    realize_pair,
)


# -- coordinates ---------------------------------------------------------------

def test_coords_oracles():
    assert coords(5, -1) == GeoPoint(1, 7)
    assert coords(7, -3) == GeoPoint(1, 5)
    assert coords(9, -5) == GeoPoint(1, 3)
    assert coords(4, 0) == GeoPoint(1, 8)
    assert coords(0, 0) == GeoPoint(0, 0)


def test_coords_divisibility_guard():
    with pytest.raises(GeographyError):
        coords(5, 0)
    with pytest.raises(GeographyError):
        coords(6, -1)


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_signature_identity(e, s):
    # c1sq - 8 chi = sigma, whenever the coordinates exist at all
    if (e + s) % 4 == 0:
        assert coords(e, s).signature == s


def test_odd_region_band():
    assert in_odd_region(GeoPoint(1, 0))
    assert in_odd_region(GeoPoint(1, 7))
    assert not in_odd_region(GeoPoint(1, 8))      # 8 chi - 1 is the last
    assert not in_odd_region(GeoPoint(1, -1))
    assert not in_odd_region(GeoPoint(0, 1))
    assert in_odd_region(GeoPoint(3, 23))


# -- homeomorphism models --------------------------------------------------------

def test_model_describe_strings():
    assert FreedmanModel(1, 2).describe() == "CP2 # 2CP2bar"
    assert FreedmanModel(3, 4).describe() == "3CP2 # 4CP2bar"
    assert FreedmanModel(1, 0).describe() == "CP2"
    assert FreedmanModel(0, 1).describe() == "CP2bar"
    assert FreedmanModel(0, 0).describe() == "S4"


def test_freedman_model_of_certified_manifold():
    M = exotic_cp2_2()
    cert = certify(M.pi1, target="trivial")
    assert freedman_model(M, cert) == FreedmanModel(1, 2)


def test_freedman_model_demands_matching_trivial_certificate():
    M = exotic_cp2_2()
    cert = certify(M.pi1)
    other = certify(bt4(1, 1, 1).pi1)        # not trivial, different manifold
    with pytest.raises(GeographyError):
        freedman_model(M, other)
    wrong_owner = certify(exotic_cp2_2(2).pi1)
    assert wrong_owner.verdict == "trivial"
    with pytest.raises(GeographyError):
        freedman_model(M, wrong_owner)        # certificate for a sibling
    assert freedman_model(M, cert) == FreedmanModel(1, 2)


def test_freedman_model_demands_odd_parity():
    M = t4()                                   # even form, and pi1 = Z^4 anyway
    fake = certify(exotic_cp2_2().pi1)
    with pytest.raises(GeographyError):
        freedman_model(M, fake)


# -- realizations -------------------------------------------------------------------

def test_unsupported_pair_raises():
    with pytest.raises(GeographyError):
        realize_pair(1, 6)
    with pytest.raises(GeographyError):
        realize_pair(0, 0)


def test_realize_pair_one_full_row():
    # the (1, 7) row end to end; acceptance covers the whole table
    r = realize_pair(1, 7)
    assert r.point == GeoPoint(1, 7)
    assert r.closed_certificate.verdict == "infinite_cyclic"
    assert r.closed_certificate.generator == "c"
    assert r.complement_certificate.verdict == "infinite_cyclic"
    assert r.meridian_dies is True
    assert r.torus_surjects is True
    assert r.site_name == "a2'xc'"
    assert r.site.curve == "c"
    # the manifold really sits at the claimed point
    assert coords(r.manifold.euler, r.manifold.signature) == r.point
    assert r.manifold.symplectic is True
