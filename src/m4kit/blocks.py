"""Catalog of marked 4-manifold building blocks.

Each constructor returns a MarkedManifold: characteristic numbers, a
fundamental-group presentation, marked genus-2 surfaces (with the images
of their standard curves, the meridian, and a presentation of the surface
complement), and the torus-surgery sites that remain available.

The presentations are *upper bounds* in the usual sense: every listed
relation holds, so the actual group is a quotient of the presented one.
Certification (certify.py) only ever uses them in that direction.

Conventions:

* A relation displayed as  lhs = rhs  is stored as the relator
  lhs rhs^-1, in the listed order.
* A surgery site stores the relator currently standing at it, the curve
  and pushoff words that a fresh surgery would combine, and the relator
  the site would carry in the unsurgered (coefficient-zero) state.
* Surface curve images marked "modulo meridian" are only valid up to the
  surface's meridian; fiber summing turns such an identification into a
  conditional relator keyed on that meridian.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .presentation import FpPresentation, PresentationError
from .words import Word, commutator, format_word, gen, parse_word


@dataclass(frozen=True, slots=True)
class SurgeryDatum:
    """A torus along which (re-)surgery is understood.

    `relator` is the relator currently standing at the site (it is always
    literally present in the ambient pi1); performing a new surgery deletes
    it and installs curve^k (pushoff^m)^-1, or `unsurgered` when k = 0.
    `torus_generators` are the two ambient generators the torus carries;
    `pushoff` doubles as the meridian of the torus in the ambient manifold.
    """

    name: str
    curve: str
    pushoff: Word
    torus_generators: tuple[str, str]
    relator: Word
    unsurgered: Word


@dataclass(frozen=True, slots=True)
class EmbeddedSurface:
    name: str
    genus: int
    self_intersection: int
    generator_images: tuple[tuple[str, Word], ...]
    modulo_meridian: frozenset[str]
    meridian: Word
    complement_pi1: FpPresentation

    def __post_init__(self) -> None:
        if len(self.generator_images) != 2 * self.genus:
            raise PresentationError(
                f"surface {self.name!r}: expected {2 * self.genus} curve "
                f"images, got {len(self.generator_images)}")
        known = set(self.complement_pi1.generators)
        for label, w in self.generator_images:
            if w.names() - known:
                raise PresentationError(
                    f"surface {self.name!r}: image of {label} uses unknown "
                    "generators")
        if self.meridian.names() - known:
            raise PresentationError(
                f"surface {self.name!r}: meridian uses unknown generators")
        bad = self.modulo_meridian - {label for label, _ in self.generator_images}
        if bad:
            raise PresentationError(
                f"surface {self.name!r}: modulo_meridian mentions unknown "
                f"curves {sorted(bad)}")


@dataclass(frozen=True, slots=True)
class MarkedManifold:
    name: str
    euler: int
    signature: int
    parity: str                      # "odd" | "even" | "unknown"
    symplectic: bool
    minimal: bool | None
    pi1: FpPresentation
    surfaces: tuple[EmbeddedSurface, ...] = ()
    sites: tuple[SurgeryDatum, ...] = ()

    def __post_init__(self) -> None:
        if self.parity not in ("odd", "even", "unknown"):
            raise PresentationError(f"bad parity {self.parity!r}")
        names = [s.name for s in self.surfaces] + [t.name for t in self.sites]
        if len(names) != len(set(names)):
            raise PresentationError(f"{self.name}: duplicate surface/site names")
        gens = set(self.pi1.generators)
        relators = set(self.pi1.relators)
        for t in self.sites:
            if t.curve not in gens:
                raise PresentationError(
                    f"site {t.name!r}: curve {t.curve!r} is not a generator")
            for w in (t.pushoff, t.relator, t.unsurgered):
                if w.names() - gens:
                    raise PresentationError(
                        f"site {t.name!r}: word {format_word(w)!r} uses "
                        "unknown generators")
            if t.relator not in relators:
                raise PresentationError(
                    f"site {t.name!r}: its relator {format_word(t.relator)!r} "
                    "is not among the pi1 relators")
            if set(t.torus_generators) - gens:
                raise PresentationError(
                    f"site {t.name!r}: torus generators not in pi1")
        for s in self.surfaces:
            if s.complement_pi1.generators != self.pi1.generators:
                raise PresentationError(
                    f"surface {s.name!r}: complement generators differ from "
                    "the ambient ones")

    def surface(self, name: str) -> EmbeddedSurface:
        for s in self.surfaces:
            if s.name == name:
                return s
        raise KeyError(f"{self.name} has no surface {name!r}; "
                       f"available: {[s.name for s in self.surfaces]}")

    def site(self, name: str) -> SurgeryDatum:
        for t in self.sites:
            if t.name == name:
                return t
        raise KeyError(f"{self.name} has no surgery site {name!r}; "
                       f"available: {[t.name for t in self.sites]}")


def _words(*texts: str) -> tuple[Word, ...]:
    return tuple(parse_word(t) for t in texts)


def _relator(lhs: str, rhs: str) -> Word:
    return parse_word(lhs) * parse_word(rhs).inverse()


# ---------------------------------------------------------------------------
# torus x genus-2 surface with four torus twists (closed; e = 0, sigma = 0)
# ---------------------------------------------------------------------------

def t2xg2(p: int, q: int) -> MarkedManifold:
    """The product of a torus and a genus-2 surface, twisted by four torus
    surgeries; the last two have coefficients 1/p and 1/q (p = q = 1 gives
    the minimal symplectic model; p or q = 0 leaves that surgery undone).

    a1, b1, a2, b2 generate the genus-2 fiber, c and d the torus.
    """
    if p < 0 or q < 0:
        raise ValueError(f"T2xG2 needs p, q >= 0, got p={p}, q={q}")
    rel = [
        _relator("[b1^-1, d^-1]", "a1"),
        _relator("[a1^-1, d]", "b1"),
        _relator("[d^-1, b2^-1]", f"c^{p}"),
        _relator("[c^-1, b2]", f"d^{q}"),
        parse_word("[a1, c]"),
        parse_word("[b1, c]"),
        parse_word("[a2, c]"),
        parse_word("[a2, d]"),
        parse_word("[a1, b1] [a2, b2]"),
        parse_word("[c, d]"),
    ]
    pi1 = FpPresentation(("a1", "b1", "a2", "b2", "c", "d"), tuple(rel))
    complement = pi1.without_relator(parse_word("[c, d]"))
    sigma2 = EmbeddedSurface(
        name="Sigma2", genus=2, self_intersection=0,
        generator_images=(("a1", gen("a1")), ("b1", gen("b1")),
                          ("a2", gen("a2")), ("b2", gen("b2"))),
        modulo_meridian=frozenset(),
        meridian=parse_word("[c, d]"),
        complement_pi1=complement,
    )
    sites = (
        SurgeryDatum("a1'xc'", "a1", parse_word("[b1^-1, d^-1]"),
                     ("a1", "c"), rel[0], parse_word("[b1^-1, d^-1]")),
        SurgeryDatum("b1'xc''", "b1", parse_word("[a1^-1, d]"),
                     ("b1", "c"), rel[1], parse_word("[a1^-1, d]")),
        SurgeryDatum("a2'xc'", "c", parse_word("[d^-1, b2^-1]"),
                     ("a2", "c"), rel[2], parse_word("[d^-1, b2^-1]")),
        SurgeryDatum("a2''xd'", "d", parse_word("[c^-1, b2]"),
                     ("a2", "d"), rel[3], parse_word("[c^-1, b2]")),
    )
    return MarkedManifold(
        name=f"T2xG2({p},{q})", euler=0, signature=0, parity="unknown",
        symplectic=True, minimal=(True if (p, q) == (1, 1) else None),
        pi1=pi1, surfaces=(sigma2,), sites=sites,
    )


# ---------------------------------------------------------------------------
# genus-2 surface x genus-n surface with 2n + 4 torus twists
# (closed; e = 4n - 4, sigma = 0; symplectic iff m = 1)
# ---------------------------------------------------------------------------

def g2xgn(n: int, m: int) -> MarkedManifold:
    """The product of a genus-2 and a genus-n surface (n >= 2), twisted by
    2n + 4 torus surgeries, one of which has multiplicity m >= 1.

    a1, b1, a2, b2 generate the genus-2 factor; c1, d1, ..., cn, dn the
    genus-n factor.
    """
    if n < 2 or m < 1:
        raise ValueError(f"G2xGn needs n >= 2 and m >= 1, got n={n}, m={m}")
    cs = [f"c{j}" for j in range(1, n + 1)]
    ds = [f"d{j}" for j in range(1, n + 1)]
    gens = ("a1", "b1", "a2", "b2") + tuple(x for pair in zip(cs, ds) for x in pair)

    surface_word = parse_word("[a1, b1] [a2, b2]")
    # [c1, d1] ... [cn, dn]: distinct names, so already freely reduced
    fiber_word = Word(tuple(letter for c, d in zip(cs, ds)
                            for letter in ((c, 1), (d, 1), (c, -1), (d, -1))))

    rel = [
        _relator("[b1^-1, d1^-1]", "a1"),
        _relator("[a1^-1, d1]", "b1"),
        _relator("[b2^-1, d2^-1]", "a2"),
        _relator("[a2^-1, d2]", "b2"),
        _relator("[d1^-1, b2^-1]", "c1"),
        _relator("[c1^-1, b2]", "d1"),
        _relator("[d2^-1, b1^-1]", "c2"),
        _relator(f"[c2^-1, b1]^{m}", "d2"),
        parse_word("[a1, c1]"), parse_word("[a1, c2]"), parse_word("[a1, d2]"),
        parse_word("[b1, c1]"),
        parse_word("[a2, c1]"), parse_word("[a2, c2]"), parse_word("[a2, d1]"),
        parse_word("[b2, c2]"),
        surface_word,
        fiber_word,
    ]
    for j in range(3, n + 1):
        rel.append(_relator(f"[a1^-1, d{j}^-1]", f"c{j}"))
        rel.append(_relator(f"[a2^-1, c{j}^-1]", f"d{j}"))
        rel.append(parse_word(f"[b1, c{j}]"))
        rel.append(parse_word(f"[b2, d{j}]"))

    pi1 = FpPresentation(gens, tuple(rel))
    complement = pi1.without_relator(fiber_word)
    sigma2 = EmbeddedSurface(
        name="Sigma2", genus=2, self_intersection=0,
        generator_images=(("a1", gen("a1")), ("b1", gen("b1")),
                          ("a2", gen("a2")), ("b2", gen("b2"))),
        modulo_meridian=frozenset(),
        meridian=fiber_word,
        complement_pi1=complement,
    )
    sites = [
        SurgeryDatum("a1'xc1'", "a1", parse_word("[b1^-1, d1^-1]"),
                     ("a1", "c1"), rel[0], parse_word("[b1^-1, d1^-1]")),
        SurgeryDatum("b1'xc1''", "b1", parse_word("[a1^-1, d1]"),
                     ("b1", "c1"), rel[1], parse_word("[a1^-1, d1]")),
        SurgeryDatum("a2'xc2'", "a2", parse_word("[b2^-1, d2^-1]"),
                     ("a2", "c2"), rel[2], parse_word("[b2^-1, d2^-1]")),
        SurgeryDatum("b2'xc2''", "b2", parse_word("[a2^-1, d2]"),
                     ("b2", "c2"), rel[3], parse_word("[a2^-1, d2]")),
        SurgeryDatum("a2'xc1'", "c1", parse_word("[d1^-1, b2^-1]"),
                     ("a2", "c1"), rel[4], parse_word("[d1^-1, b2^-1]")),
        SurgeryDatum("a2''xd1'", "d1", parse_word("[c1^-1, b2]"),
                     ("a2", "d1"), rel[5], parse_word("[c1^-1, b2]")),
        SurgeryDatum("a1'xc2'", "c2", parse_word("[d2^-1, b1^-1]"),
                     ("a1", "c2"), rel[6], parse_word("[d2^-1, b1^-1]")),
        SurgeryDatum("a1''xd2'", "d2", parse_word("[c2^-1, b1]"),
                     ("a1", "d2"), rel[7], parse_word("[c2^-1, b1]")),
    ]
    extra = rel[18:]
    for j in range(3, n + 1):
        base = 4 * (j - 3)
        sites.append(SurgeryDatum(
            f"b1'xc{j}'", f"c{j}", parse_word(f"[a1^-1, d{j}^-1]"),
            ("b1", f"c{j}"), extra[base], parse_word(f"[a1^-1, d{j}^-1]")))
        sites.append(SurgeryDatum(
            f"b2'xd{j}'", f"d{j}", parse_word(f"[a2^-1, c{j}^-1]"),
            ("b2", f"d{j}"), extra[base + 1], parse_word(f"[a2^-1, c{j}^-1]")))

    return MarkedManifold(
        name=f"G2xG{n}({m})", euler=4 * n - 4, signature=0, parity="unknown",
        symplectic=(m == 1), minimal=None,
        pi1=pi1, surfaces=(sigma2,), sites=tuple(sites),
    )


# ---------------------------------------------------------------------------
# blown-up four-torus with two torus twists (e = 1, sigma = -1)
# ---------------------------------------------------------------------------

def bt4(q: int, r: int, m: int = 1, eps1: int = 1, eps3: int = -1) -> MarkedManifold:
    """The four-torus blown up once, then twisted by two torus surgeries
    with coefficients 1/q and m/r (gcd(m, r) = 1; a zero denominator means
    that surgery is skipped).  Carries the distinguished square-zero
    genus-2 surface SigmaBar2: its complement presentation is exact up to
    a meridional tier, and the image of its third standard curve is known
    only modulo the meridian.

    The sign pair (eps1, eps3) picks one of the four equivalent pushoff
    orientations at the second site; certification results do not depend
    on the choice.
    """
    if q < 0 or r < 0 or m < 1:
        raise ValueError(f"BT4 needs q, r >= 0 and m >= 1, got q={q}, r={r}, m={m}")
    if eps1 not in (1, -1) or eps3 not in (1, -1):
        raise ValueError(f"BT4 signs must be +1 or -1, got eps1={eps1}, eps3={eps3}")
    if gcd(m, r) != 1:
        raise ValueError(f"surgery coefficient m/r = {m}/{r} is not reduced")
    if r == 0 and m != 1:
        raise ValueError("skipping the second surgery (r = 0) forces m = 1")

    if q == 0:
        site1_rel = parse_word("[alpha1, alpha4]")
    else:
        site1_rel = _relator(f"alpha3^{q}", "[alpha1^-1, alpha4^-1]")
    pushoff2 = commutator(gen("alpha1", eps1), gen("alpha3", eps3))
    if r == 0:
        site2_rel = parse_word("[alpha1, alpha3]")
    else:
        site2_rel = gen("alpha4") ** r * (pushoff2 ** m).inverse()

    core = (site1_rel, site2_rel,
            parse_word("[alpha2, alpha3]"), parse_word("[alpha2, alpha4]"))
    gens_ = ("alpha1", "alpha2", "alpha3", "alpha4")
    pi1 = FpPresentation(gens_, core + _words("[alpha1, alpha2]",
                                              "[alpha3, alpha4]"))
    complement = FpPresentation(gens_, core).with_meridional(
        "g", parse_word("[alpha3, alpha4]"))
    sigmabar2 = EmbeddedSurface(
        name="SigmaBar2", genus=2, self_intersection=0,
        generator_images=(("abar1", gen("alpha1")), ("bbar1", gen("alpha2")),
                          ("abar2", parse_word("alpha3^2")),
                          ("bbar2", gen("alpha4"))),
        modulo_meridian=frozenset({"abar2"}),
        meridian=parse_word("[alpha3, alpha4]"),
        complement_pi1=complement,
    )
    sites = (
        SurgeryDatum("alpha2'xalpha3'", "alpha3",
                     parse_word("[alpha1^-1, alpha4^-1]"),
                     ("alpha2", "alpha3"), site1_rel,
                     parse_word("[alpha1, alpha4]")),
        SurgeryDatum("alpha2''xalpha4'", "alpha4", pushoff2,
                     ("alpha2", "alpha4"), site2_rel,
                     parse_word("[alpha1, alpha3]")),
    )
    return MarkedManifold(
        name=f"BT4({q},{r},{m})", euler=1, signature=-1, parity="odd",
        symplectic=(m == 1), minimal=False,
        pi1=pi1, surfaces=(sigmabar2,), sites=sites,
    )


# ---------------------------------------------------------------------------
# twice blown-up four-torus with two torus twists (e = 2, sigma = -2)
# ---------------------------------------------------------------------------

def bbt4(q: int, r: int) -> MarkedManifold:
    """The four-torus blown up twice, with two torus surgeries of
    coefficients 1/q and 1/r (q, r >= 1).  Its marked genus-2 surface
    SigmaHat2 (the resolution of a pair of dual tori, pushed off the
    exceptional spheres) has *trivial* meridian: the complement
    presentation below is on the nose, and all four curve images are
    exact."""
    if q < 1 or r < 1:
        raise ValueError(f"BBT4 needs q, r >= 1, got q={q}, r={r}")
    rel = (
        _relator(f"alpha1^{q}", "[alpha2^-1, alpha4^-1]"),
        _relator(f"alpha2^{r}", "[alpha1^-1, alpha4]"),
        parse_word("[alpha1, alpha3]"),
        parse_word("[alpha2, alpha3]"),
        parse_word("[alpha1, alpha2]"),
        parse_word("[alpha3, alpha4]"),
    )
    gens_ = ("alpha1", "alpha2", "alpha3", "alpha4")
    pi1 = FpPresentation(gens_, rel)
    sigmahat2 = EmbeddedSurface(
        name="SigmaHat2", genus=2, self_intersection=0,
        generator_images=(("ahat1", gen("alpha1")), ("bhat1", gen("alpha2")),
                          ("ahat2", gen("alpha3")), ("bhat2", gen("alpha4"))),
        modulo_meridian=frozenset(),
        meridian=Word(),
        complement_pi1=pi1,
    )
    sites = (
        SurgeryDatum("alpha1'xalpha3'", "alpha1",
                     parse_word("[alpha2^-1, alpha4^-1]"),
                     ("alpha1", "alpha3"), rel[0],
                     parse_word("[alpha2, alpha4]")),
        SurgeryDatum("alpha2'xalpha3''", "alpha2",
                     parse_word("[alpha1^-1, alpha4]"),
                     ("alpha2", "alpha3"), rel[1],
                     parse_word("[alpha1, alpha4]")),
    )
    return MarkedManifold(
        name=f"BBT4({q},{r})", euler=2, signature=-2, parity="odd",
        symplectic=True, minimal=False,
        pi1=pi1, surfaces=(sigmahat2,), sites=sites,
    )


# ---------------------------------------------------------------------------
# the untwisted degenerate relatives used by chained sums and route checks
# ---------------------------------------------------------------------------

def t4b2() -> MarkedManifold:
    """The four-torus blown up twice, surgeries left undone: pi1 = Z^4 and
    the marked surface's complement is the same Z^4 presentation (trivial
    meridian, all images exact).  This is the q = r = 0 degeneration of
    bbt4 and the standard second summand for stretching a construction by
    (chi, c1^2) = (+1, +8)."""
    rel = (
        parse_word("[alpha2, alpha4]"),
        parse_word("[alpha1, alpha4]"),
        parse_word("[alpha1, alpha3]"),
        parse_word("[alpha2, alpha3]"),
        parse_word("[alpha1, alpha2]"),
        parse_word("[alpha3, alpha4]"),
    )
    gens_ = ("alpha1", "alpha2", "alpha3", "alpha4")
    pi1 = FpPresentation(gens_, rel)
    sigmahat2 = EmbeddedSurface(
        name="SigmaHat2", genus=2, self_intersection=0,
        generator_images=(("ahat1", gen("alpha1")), ("bhat1", gen("alpha2")),
                          ("ahat2", gen("alpha3")), ("bhat2", gen("alpha4"))),
        modulo_meridian=frozenset(),
        meridian=Word(),
        complement_pi1=pi1,
    )
    sites = (
        SurgeryDatum("alpha1'xalpha3'", "alpha1",
                     parse_word("[alpha2^-1, alpha4^-1]"),
                     ("alpha1", "alpha3"), rel[0],
                     parse_word("[alpha2, alpha4]")),
        SurgeryDatum("alpha2'xalpha3''", "alpha2",
                     parse_word("[alpha1^-1, alpha4]"),
                     ("alpha2", "alpha3"), rel[1],
                     parse_word("[alpha1, alpha4]")),
    )
    return MarkedManifold(
        name="T4b2", euler=2, signature=-2, parity="odd",
        symplectic=True, minimal=False,
        pi1=pi1, surfaces=(sigmahat2,), sites=sites,
    )


def t4() -> MarkedManifold:
    """The four-torus itself, with the two standard surgery sites armed but
    untouched.  Twisting both and blowing up once reproduces bt4 — a route
    the tests compare against the direct constructor."""
    rel = (
        parse_word("[alpha1, alpha4]"),
        parse_word("[alpha1, alpha3]"),
        parse_word("[alpha2, alpha3]"),
        parse_word("[alpha2, alpha4]"),
        parse_word("[alpha1, alpha2]"),
        parse_word("[alpha3, alpha4]"),
    )
    gens_ = ("alpha1", "alpha2", "alpha3", "alpha4")
    pi1 = FpPresentation(gens_, rel)
    sites = (
        SurgeryDatum("alpha2'xalpha3'", "alpha3",
                     parse_word("[alpha1^-1, alpha4^-1]"),
                     ("alpha2", "alpha3"), rel[0],
                     parse_word("[alpha1, alpha4]")),
        SurgeryDatum("alpha2''xalpha4'", "alpha4",
                     parse_word("[alpha1, alpha3^-1]"),
                     ("alpha2", "alpha4"), rel[1],
                     parse_word("[alpha1, alpha3]")),
    )
    return MarkedManifold(
        name="T4", euler=0, signature=0, parity="even",
        symplectic=True, minimal=True,
        pi1=pi1, surfaces=(), sites=sites,
    )


def t2xs2b4() -> MarkedManifold:
    """A torus-ruled surface (torus x sphere) blown up four times, with the
    square-zero genus-2 surface SigmaTilde2 obtained by resolving a
    bidegree-(2,2) curve: pi1 = Z^2, trivial meridian, exact images."""
    gens_ = ("c", "d")
    pi1 = FpPresentation(gens_, (parse_word("[c, d]"),))
    sigmatilde2 = EmbeddedSurface(
        name="SigmaTilde2", genus=2, self_intersection=0,
        generator_images=(("atil1", gen("c")), ("btil1", gen("d")),
                          ("atil2", parse_word("c^-1")),
                          ("btil2", parse_word("d^-1"))),
        modulo_meridian=frozenset(),
        meridian=Word(),
        complement_pi1=pi1,
    )
    return MarkedManifold(
        name="T2xS2b4", euler=4, signature=-4, parity="odd",
        symplectic=True, minimal=False,
        pi1=pi1, surfaces=(sigmatilde2,), sites=(),
    )


CATALOG = {
    "T2xG2": t2xg2,
    "G2xGn": g2xgn,
    "BT4": bt4,
    "BBT4": bbt4,
    "T4b2": t4b2,
    "T4": t4,
    "T2xS2b4": t2xs2b4,
}
