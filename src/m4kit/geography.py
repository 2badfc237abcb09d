"""Geography of the certified constructions.

Characteristic coordinates: a closed 4-manifold with Euler characteristic
e and signature sigma sits at the point

    chi = (e + sigma) / 4        (holomorphic Euler characteristic)
    c1sq = 2 e + 3 sigma         (self-intersection of the canonical class)

so that c1sq - 8 chi = sigma identically.  The constructions in this
package populate the odd-form band 0 <= c1sq <= 8 chi - 1.

Two services live here:

* freedman_model -- read off the simply-connected homeomorphism type
  (a connected sum of projective planes, both orientations) from a
  manifold with odd intersection form and a machine-certified trivial
  fundamental group.

* realize_pair -- for each supported (chi, c1sq), build a symplectic
  manifold at that point together with a marked square-zero torus whose
  complement has certified infinite-cyclic fundamental group, meridian
  dying in it; surgeries on that torus then sweep out the infinite
  families at the same point.
"""

from __future__ import annotations

from .blocks import MarkedManifold, SurgeryDatum, bbt4, bt4, g2xgn, t2xg2, t2xs2b4, t4b2
from .certify import Budget, certify
from .coset import CosetCount, coset_enumeration
from .surgery import fiber_sum, torus_surgery
from .trace import Certificate, INFINITE_CYCLIC, TRIVIAL
from .words import Record, gen, set_field


class GeographyError(ValueError):
    pass


class GeoPoint(Record):
    __slots__ = ("chi", "c1sq")

    def __init__(self, chi: int, c1sq: int) -> None:
        set_field(self, "chi", chi)
        set_field(self, "c1sq", c1sq)

    @property
    def signature(self) -> int:
        # c1sq - 8 chi = sigma is an identity of the coordinate change.
        return self.c1sq - 8 * self.chi

    def __str__(self) -> str:
        return f"(chi={self.chi}, c1sq={self.c1sq})"


def coords(euler: int, signature: int) -> GeoPoint:
    """Characteristic coordinates of (e, sigma); the pair must satisfy the
    integrality e + sigma = 0 (mod 4) that holds for every almost-complex
    candidate."""
    if (euler + signature) % 4 != 0:
        raise GeographyError(
            f"(e, sigma) = ({euler}, {signature}) has e + sigma not "
            "divisible by 4")
    return GeoPoint((euler + signature) // 4, 2 * euler + 3 * signature)


def in_odd_region(pt: GeoPoint) -> bool:
    """The band 0 <= c1sq <= 8 chi - 1 covered by the odd-form families."""
    return 0 <= pt.c1sq <= 8 * pt.chi - 1


class FreedmanModel(Record):
    """Homeomorphism type m CP^2 # n CP^2bar of a closed, simply connected
    4-manifold with odd intersection form (b2_plus = m, b2_minus = n)."""

    __slots__ = ("b2_plus", "b2_minus")

    def __init__(self, b2_plus: int, b2_minus: int) -> None:
        set_field(self, "b2_plus", b2_plus)
        set_field(self, "b2_minus", b2_minus)

    def describe(self) -> str:
        def side(count: int, base: str) -> str:
            if count == 0:
                return ""
            return base if count == 1 else f"{count}{base}"

        plus = side(self.b2_plus, "CP2")
        minus = side(self.b2_minus, "CP2bar")
        if plus and minus:
            return f"{plus} # {minus}"
        return plus or minus or "S4"


def freedman_model(M: MarkedManifold, cert: Certificate) -> FreedmanModel:
    """The homeomorphism type of M, given a certificate that pi1 is trivial.

    Demands: the certificate is definite, for M's own presentation, with
    verdict "trivial"; the intersection form is odd.  Then b2 = e - 2 and
    the form is diagonal of signature sigma.
    """
    if cert.verdict != TRIVIAL:
        raise GeographyError(
            f"certificate verdict is {cert.verdict!r}, need {TRIVIAL!r}")
    if cert.presentation != M.pi1:
        raise GeographyError("certificate was issued for a different presentation")
    if M.parity != "odd":
        raise GeographyError(
            f"intersection form parity is {M.parity!r}; the odd-form model "
            "applies only to parity 'odd'")
    e, s = M.euler, M.signature
    if (e + s) % 2 != 0 or e - 2 + s < 0 or e - 2 - s < 0:
        raise GeographyError(
            f"(e, sigma) = ({e}, {s}) is not realized by any closed "
            "simply connected 4-manifold")
    return FreedmanModel((e - 2 + s) // 2, (e - 2 - s) // 2)


# ---------------------------------------------------------------------------
# realizations with a marked square-zero torus
# ---------------------------------------------------------------------------

class Realization(Record):
    """A symplectic manifold at `point` with a marked torus site whose
    complement is certified infinite cyclic.

    `closed_certificate` certifies pi1 of the manifold itself,
    `complement_certificate` the torus complement (the presentation minus
    the relator standing at the site).  `meridian_dies` records that the
    torus meridian (the site pushoff) has zero exponent sums, hence dies
    in the certified infinite-cyclic quotient; `torus_surjects` that coset
    enumeration over the two torus generators reached index 1, i.e. the
    pair already generates.  Each of the two is None when undetermined:
    the complement certificate is inconclusive, or (`torus_surjects`) the
    enumeration ran out of cosets."""

    __slots__ = ("point", "manifold", "site_name", "closed_certificate",
                 "complement_certificate", "meridian_dies", "torus_surjects")

    def __init__(self, point: GeoPoint, manifold: MarkedManifold,
                 site_name: str, closed_certificate: Certificate,
                 complement_certificate: Certificate,
                 meridian_dies: bool | None,
                 torus_surjects: bool | None) -> None:
        set_field(self, "point", point)
        set_field(self, "manifold", manifold)
        set_field(self, "site_name", site_name)
        set_field(self, "closed_certificate", closed_certificate)
        set_field(self, "complement_certificate", complement_certificate)
        set_field(self, "meridian_dies", meridian_dies)
        set_field(self, "torus_surjects", torus_surjects)

    @property
    def site(self) -> SurgeryDatum:
        return self.manifold.site(self.site_name)


def _recipe(chi: int, c1sq: int) -> tuple[MarkedManifold, str]:
    if (chi, c1sq) == (1, 5):
        M = fiber_sum(bbt4(1, 1), "SigmaHat2", bt4(1, 0, 1), "SigmaBar2",
                      prefix="z_")
        return M, "z_alpha2''xalpha4'"
    if (chi, c1sq) == (1, 7):
        M = fiber_sum(t2xg2(0, 1), "Sigma2", bt4(1, 1, 1), "SigmaBar2")
        return M, "a2'xc'"
    if (chi, c1sq) == (2, 9):
        base = fiber_sum(t2xs2b4(), "SigmaTilde2", bt4(1, 0, 1), "SigmaBar2")
        M = fiber_sum(base, "SigmaTilde2", t4b2(), "SigmaHat2", prefix="t_")
        return M, "alpha2''xalpha4'"
    if (chi, c1sq) == (2, 11):
        base, _ = _recipe(1, 5)
        M = fiber_sum(base, "SigmaHat2", t4b2(), "SigmaHat2", prefix="t_")
        return M, "z_alpha2''xalpha4'"
    if (chi, c1sq) == (2, 13):
        base, _ = _recipe(1, 7)
        M = fiber_sum(base, "Sigma2", t4b2(), "SigmaHat2", prefix="t_")
        return M, "a2'xc'"
    if chi >= 2 and c1sq == 8 * chi - 1:
        Y = torus_surgery(g2xgn(chi, 1), "a2'xc1'", 0)
        M = fiber_sum(Y, "Sigma2", bt4(1, 0, 1), "SigmaBar2")
        return M, "a2'xc1'"
    raise GeographyError(
        f"no recipe for (chi, c1sq) = ({chi}, {c1sq}): the catalog only "
        "carries marked square-zero genus-2 surfaces for the points "
        "(1,5), (1,7), (2,9), (2,11), (2,13) and (chi, 8 chi - 1) with "
        "chi >= 2")


def realize_pair(chi: int, c1sq: int, budget: Budget | None = None,
                 ) -> Realization:
    """Build the supported realization at (chi, c1sq) and certify it.

    Returns a Realization that records whether the closed manifold and
    the torus complement both carry infinite-cyclic certificates, the
    meridian dies and the torus generators surject (checked by coset
    enumeration); with the default budget, every supported pair passes
    all four."""
    budget = budget if budget is not None else Budget()
    try:
        M, site_name = _recipe(chi, c1sq)
    except GeographyError:
        raise
    except ValueError as exc:          # a block too large to build
        raise GeographyError(str(exc)) from None
    pt = coords(M.euler, M.signature)
    if pt != GeoPoint(chi, c1sq):
        raise GeographyError(
            f"internal: recipe for ({chi}, {c1sq}) landed at {pt}")
    site = M.site(site_name)

    closed_cert = certify(M.pi1, target="Z", budget=budget)
    # the complement drops the first copy of the site's relator, which
    # MarkedManifold guarantees is among the relators
    complement = M.pi1.without_relator(site.relator)
    comp_cert = certify(complement, target="Z", budget=budget)

    # None is undetermined (see Realization)
    meridian_dies = torus_surjects = False if comp_cert.is_definite else None
    if comp_cert.verdict == INFINITE_CYCLIC:
        meridian_dies = all(site.pushoff.exponent_sum(g) == 0
                            for g in site.pushoff.names())
        sub = tuple(gen(g) for g in site.torus_generators)
        count = coset_enumeration(comp_cert.core(), subgroup=sub,
                                  max_cosets=budget.max_cosets)
        torus_surjects = (count.index == 1 if isinstance(count, CosetCount)
                          else None)

    return Realization(
        point=pt, manifold=M, site_name=site_name,
        closed_certificate=closed_cert,
        complement_certificate=comp_cert,
        meridian_dies=meridian_dies,
        torus_surjects=torus_surjects,
    )
