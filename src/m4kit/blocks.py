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
  the site would carry in the unsurgered (coefficient-zero) state.  Each
  site is stated once, and its relator is computed from it: the
  four-torus blocks use SurgeryDatum.surgered, the rule torus_surgery
  applies, and the surface-product blocks the paper's orientation (see
  _product_site).
* Surface curve images marked "modulo meridian" are only valid up to the
  surface's meridian; fiber summing turns such an identification into a
  conditional relator keyed on that meridian.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .presentation import FpPresentation, PresentationError
from .words import (
    MAX_LETTERS,
    Record,
    Word,
    commutator,
    format_word,
    gen,
    parse_word,
    replace,
    set_field,
)


class SurgeryDatum(Record):
    """A torus along which (re-)surgery is understood.

    `relator` is the relator currently standing at the site (it is always
    literally present in the ambient pi1); performing a new surgery deletes
    it and installs `surgered(k, m)`.
    `torus_generators` are the two ambient generators the torus carries;
    `pushoff` doubles as the meridian of the torus in the ambient manifold.
    """

    __slots__ = ("name", "curve", "pushoff", "torus_generators", "relator",
                 "unsurgered")

    def __init__(self, name: str, curve: str, pushoff: Word,
                 torus_generators: tuple[str, str], relator: Word,
                 unsurgered: Word) -> None:
        set_field(self, "name", name)
        set_field(self, "curve", curve)
        set_field(self, "pushoff", pushoff)
        set_field(self, "torus_generators", torus_generators)
        set_field(self, "relator", relator)
        set_field(self, "unsurgered", unsurgered)

    def surgered(self, k: int, m: int) -> Word:
        """The relator a k/m surgery installs here: curve^k (pushoff^m)^-1,
        or `unsurgered` when k = 0."""
        if k == 0:
            return self.unsurgered
        _check_twist(k, self.pushoff, m)
        return gen(self.curve) ** k * (self.pushoff ** m).inverse()


def _check_twist(k: int, pushoff: Word, m: int) -> None:
    """Raise ValueError when a k/m twist of this pushoff would build a
    relator longer than MAX_LETTERS: checked before the powers are built,
    so that a huge coefficient costs nothing."""
    if abs(k) + len(pushoff) * abs(m) > MAX_LETTERS:
        raise ValueError(f"surgery coefficient {k}/{m} builds a relator of "
                         f"more than {MAX_LETTERS:,} letters")


class EmbeddedSurface(Record):
    __slots__ = ("name", "genus", "self_intersection", "generator_images",
                 "modulo_meridian", "meridian", "complement_pi1")

    def __init__(self, name: str, genus: int, self_intersection: int,
                 generator_images: tuple[tuple[str, Word], ...],
                 modulo_meridian: frozenset[str], meridian: Word,
                 complement_pi1: FpPresentation) -> None:
        if len(generator_images) != 2 * genus:
            raise PresentationError(
                f"surface {name!r}: expected {2 * genus} curve "
                f"images, got {len(generator_images)}")
        known = set(complement_pi1.generators)
        for label, w in generator_images:
            if w.names() - known:
                raise PresentationError(
                    f"surface {name!r}: image of {label} uses unknown "
                    "generators")
        if meridian.names() - known:
            raise PresentationError(
                f"surface {name!r}: meridian uses unknown generators")
        bad = modulo_meridian - {label for label, _ in generator_images}
        if bad:
            raise PresentationError(
                f"surface {name!r}: modulo_meridian mentions unknown "
                f"curves {sorted(bad)}")
        set_field(self, "name", name)
        set_field(self, "genus", genus)
        set_field(self, "self_intersection", self_intersection)
        set_field(self, "generator_images", generator_images)
        set_field(self, "modulo_meridian", modulo_meridian)
        set_field(self, "meridian", meridian)
        set_field(self, "complement_pi1", complement_pi1)


class MarkedManifold(Record):
    __slots__ = ("name", "euler", "signature", "parity", "symplectic",
                 "minimal", "pi1", "surfaces", "sites")

    def __init__(self, name: str, euler: int, signature: int, parity: str,
                 symplectic: bool, minimal: bool | None, pi1: FpPresentation,
                 surfaces: tuple[EmbeddedSurface, ...] = (),
                 sites: tuple[SurgeryDatum, ...] = ()) -> None:
        if parity not in ("odd", "even", "unknown"):
            raise PresentationError(f"bad parity {parity!r}")
        names = [s.name for s in surfaces] + [t.name for t in sites]
        if len(names) != len(set(names)):
            raise PresentationError(f"{name}: duplicate surface/site names")
        gens = set(pi1.generators)
        # a site relator that is one of pi1's relator objects was checked
        # with pi1; a copy is compared by value, against a set of pi1's
        # relators built on the first copy
        own = set(map(id, pi1.relators))
        relators: set[Word] | None = None
        for t in sites:
            if t.curve not in gens:
                raise PresentationError(
                    f"site {t.name!r}: curve {t.curve!r} is not a generator")
            copy = id(t.relator) not in own
            words = (t.pushoff, t.relator) if copy else (t.pushoff,)
            # at most sites the pushoff is also the unsurgered relator
            if t.unsurgered is not t.pushoff:
                words += (t.unsurgered,)
            for w in words:
                if not gens.issuperset(w.names()):
                    raise PresentationError(
                        f"site {t.name!r}: word {format_word(w)!r} uses "
                        "unknown generators")
            if copy:
                if relators is None:
                    relators = set(pi1.relators)
                if t.relator not in relators:
                    raise PresentationError(
                        f"site {t.name!r}: its relator "
                        f"{format_word(t.relator)!r} is not among the pi1 "
                        "relators")
            if not gens.issuperset(t.torus_generators):
                raise PresentationError(
                    f"site {t.name!r}: torus generators not in pi1")
        for s in surfaces:
            if s.complement_pi1.generators != pi1.generators:
                raise PresentationError(
                    f"surface {s.name!r}: complement generators differ from "
                    "the ambient ones")
        set_field(self, "name", name)
        set_field(self, "euler", euler)
        set_field(self, "signature", signature)
        set_field(self, "parity", parity)
        set_field(self, "symplectic", symplectic)
        set_field(self, "minimal", minimal)
        set_field(self, "pi1", pi1)
        set_field(self, "surfaces", surfaces)
        set_field(self, "sites", sites)

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


@cache
def _word(text: str) -> Word:
    """parse_word(text), once per process: every text a block parses is a
    constant of this module, and words are immutable."""
    return parse_word(text)


def _words(*texts: str) -> tuple[Word, ...]:
    return tuple(map(_word, texts))


def _product_site(name: str, curve: str, pushoff: str,
                  torus: tuple[str, str], k: int, m: int) -> SurgeryDatum:
    """One site of a surface-product block, twisted k/m.

    Its relator is the paper's relation pushoff^m = curve^k, stored as
    pushoff^m curve^-k: the inverse of what SurgeryDatum.surgered installs,
    kept because certificate bytes pin it.  At k = 0 it is the pushoff,
    which is also the site's unsurgered relator; the inverse of
    surgered(0, m) would be the pushoff's inverse and change t2xg2(0, q).
    """
    word = _word(pushoff)
    _check_twist(k, word, m)
    return SurgeryDatum(name, curve, word, torus,
                        word ** m * gen(curve) ** -k, word)


def _tail_site(name: str, curve: str, x: str, y: str,
               torus_other: str) -> SurgeryDatum:
    """_product_site(name, curve, "[x^-1, y^-1]", (torus_other, curve), 1, 1)
    for distinct names, built from its letters."""
    pushoff = Word(((x, -1), (y, -1), (x, 1), (y, 1)))
    return SurgeryDatum(name, curve, pushoff, (torus_other, curve),
                        Word(pushoff.letters + ((curve, -1),)), pushoff)


def _surgered_site(name: str, curve: str, pushoff: Word,
                   torus: tuple[str, str], unsurgered: str,
                   k: int, m: int) -> SurgeryDatum:
    """One four-torus site after a k/m surgery (k = 0: untouched), carrying
    the relator that torus_surgery would install."""
    word = _word(unsurgered)
    site = SurgeryDatum(name, curve, pushoff, torus, word, word)
    return replace(site, relator=site.surgered(k, m))


def _sigma2(meridian: Word, complement: FpPresentation) -> EmbeddedSurface:
    """The genus-2 factor a1, b1, a2, b2 of a surface-product block, its
    curves their own images."""
    return EmbeddedSurface(
        name="Sigma2", genus=2, self_intersection=0,
        generator_images=tuple((g, gen(g)) for g in ("a1", "b1", "a2", "b2")),
        modulo_meridian=frozenset(), meridian=meridian,
        complement_pi1=complement,
    )


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
    sites = (
        _product_site("a1'xc'", "a1", "[b1^-1, d^-1]", ("a1", "c"), 1, 1),
        _product_site("b1'xc''", "b1", "[a1^-1, d]", ("b1", "c"), 1, 1),
        _product_site("a2'xc'", "c", "[d^-1, b2^-1]", ("a2", "c"), p, 1),
        _product_site("a2''xd'", "d", "[c^-1, b2]", ("a2", "d"), q, 1),
    )
    rel = (*(s.relator for s in sites),
           *_words("[a1, c]", "[b1, c]", "[a2, c]", "[a2, d]",
                   "[a1, b1] [a2, b2]"))
    gens_ = ("a1", "b1", "a2", "b2", "c", "d")
    meridian = _word("[c, d]")
    pi1 = FpPresentation(gens_, rel + (meridian,))
    return MarkedManifold(
        name=f"T2xG2({p},{q})", euler=0, signature=0, parity="unknown",
        symplectic=True, minimal=(True if (p, q) == (1, 1) else None),
        pi1=pi1, surfaces=(_sigma2(meridian, pi1.without_relator(meridian)),),
        sites=sites,
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
    # its relators: 36 + 4m letters at the first eight sites, 40 in the nine
    # words after them, 4n in the fiber's and 18 for each j >= 3 of the tail
    if 22 * n + 4 * m + 40 > MAX_LETTERS:
        raise ValueError(f"G2xGn(n={n}, m={m}) builds relators of more than "
                         f"{MAX_LETTERS:,} letters")
    cs = [f"c{j}" for j in range(1, n + 1)]
    ds = [f"d{j}" for j in range(1, n + 1)]
    gens = ("a1", "b1", "a2", "b2") + tuple(x for pair in zip(cs, ds) for x in pair)

    sites = [
        _product_site("a1'xc1'", "a1", "[b1^-1, d1^-1]", ("a1", "c1"), 1, 1),
        _product_site("b1'xc1''", "b1", "[a1^-1, d1]", ("b1", "c1"), 1, 1),
        _product_site("a2'xc2'", "a2", "[b2^-1, d2^-1]", ("a2", "c2"), 1, 1),
        _product_site("b2'xc2''", "b2", "[a2^-1, d2]", ("b2", "c2"), 1, 1),
        _product_site("a2'xc1'", "c1", "[d1^-1, b2^-1]", ("a2", "c1"), 1, 1),
        _product_site("a2''xd1'", "d1", "[c1^-1, b2]", ("a2", "d1"), 1, 1),
        _product_site("a1'xc2'", "c2", "[d2^-1, b1^-1]", ("a1", "c2"), 1, 1),
        _product_site("a1''xd2'", "d2", "[c2^-1, b1]", ("a1", "d2"), 1, m),
    ]
    rel = [s.relator for s in sites]
    rel += _words("[a1, c1]", "[a1, c2]", "[a1, d2]", "[b1, c1]",
                  "[a2, c1]", "[a2, c2]", "[a2, d1]", "[b2, c2]",
                  "[a1, b1] [a2, b2]")
    # [c1, d1] ... [cn, dn]: distinct names, so already freely reduced
    fiber_word = Word(tuple(letter for c, d in zip(cs, ds)
                            for letter in ((c, 1), (d, 1), (c, -1), (d, -1))))
    # the tail is built from letters: a parse costs ten times the Word it
    # makes, and the tail grows with n
    tail: list[Word] = []
    for c, d in zip(cs[2:], ds[2:]):
        pair = (_tail_site(f"b1'x{c}'", c, "a1", d, "b1"),
                _tail_site(f"b2'x{d}'", d, "a2", c, "b2"))
        sites += pair
        tail += (pair[0].relator, pair[1].relator,
                 Word((("b1", 1), (c, 1), ("b1", -1), (c, -1))),
                 Word((("b2", 1), (d, 1), ("b2", -1), (d, -1))))

    pi1 = FpPresentation(gens, (*rel, fiber_word, *tail))
    return MarkedManifold(
        name=f"G2xG{n}({m})", euler=4 * n - 4, signature=0, parity="unknown",
        symplectic=(m == 1), minimal=None, pi1=pi1,
        surfaces=(_sigma2(fiber_word, pi1.without_relator(fiber_word)),),
        sites=tuple(sites),
    )


# ---------------------------------------------------------------------------
# the four-torus, blown up once and twice, with two torus twists
# ---------------------------------------------------------------------------

_ALPHAS = ("alpha1", "alpha2", "alpha3", "alpha4")


def _t4(q: int, r: int, m: int, eps1: int, eps3: int,
        ) -> tuple[tuple[SurgeryDatum, ...], FpPresentation]:
    """The four-torus with surgeries 1/q and m/r at its two sites (a zero
    leaves that site untouched): its sites and pi1, whose last two
    relators the blown-up block's surface complement drops."""
    sites = (
        _surgered_site("alpha2'xalpha3'", "alpha3",
                       _word("[alpha1^-1, alpha4^-1]"),
                       ("alpha2", "alpha3"), "[alpha1, alpha4]", q, 1),
        _surgered_site("alpha2''xalpha4'", "alpha4",
                       commutator(gen("alpha1", eps1), gen("alpha3", eps3)),
                       ("alpha2", "alpha4"), "[alpha1, alpha3]", r, m),
    )
    pi1 = FpPresentation(_ALPHAS, (
        sites[0].relator, sites[1].relator,
        *_words("[alpha2, alpha3]", "[alpha2, alpha4]", "[alpha1, alpha2]",
                "[alpha3, alpha4]")))
    return sites, pi1


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

    sites, pi1 = _t4(q, r, m, eps1, eps3)
    meridian = _word("[alpha3, alpha4]")
    sigmabar2 = EmbeddedSurface(
        name="SigmaBar2", genus=2, self_intersection=0,
        generator_images=(("abar1", gen("alpha1")), ("bbar1", gen("alpha2")),
                          ("abar2", _word("alpha3^2")),
                          ("bbar2", gen("alpha4"))),
        modulo_meridian=frozenset({"abar2"}),
        meridian=meridian,
        complement_pi1=pi1.without_relator(
            _word("[alpha1, alpha2]")).relator_to_tier("g", meridian),
    )
    return MarkedManifold(
        name=f"BT4({q},{r},{m})", euler=1, signature=-1, parity="odd",
        symplectic=(m == 1), minimal=False,
        pi1=pi1, surfaces=(sigmabar2,), sites=sites,
    )


def t4() -> MarkedManifold:
    """The four-torus itself, with the two standard surgery sites armed but
    untouched.  Twisting both and blowing up once reproduces bt4 — a route
    the tests compare against the direct constructor."""
    sites, pi1 = _t4(0, 0, 1, 1, -1)
    return MarkedManifold(
        name="T4", euler=0, signature=0, parity="even",
        symplectic=True, minimal=True,
        pi1=pi1, surfaces=(), sites=sites,
    )


def _bbt4(q: int, r: int, name: str) -> MarkedManifold:
    """The twice blown-up four-torus with surgeries 1/q and 1/r at its two
    sites (a zero leaves that site untouched)."""
    sites = (
        _surgered_site("alpha1'xalpha3'", "alpha1",
                       _word("[alpha2^-1, alpha4^-1]"),
                       ("alpha1", "alpha3"), "[alpha2, alpha4]", q, 1),
        _surgered_site("alpha2'xalpha3''", "alpha2",
                       _word("[alpha1^-1, alpha4]"),
                       ("alpha2", "alpha3"), "[alpha1, alpha4]", r, 1),
    )
    pi1 = FpPresentation(_ALPHAS, (
        sites[0].relator, sites[1].relator,
        *_words("[alpha1, alpha3]", "[alpha2, alpha3]", "[alpha1, alpha2]",
                "[alpha3, alpha4]")))
    sigmahat2 = EmbeddedSurface(
        name="SigmaHat2", genus=2, self_intersection=0,
        generator_images=(("ahat1", gen("alpha1")), ("bhat1", gen("alpha2")),
                          ("ahat2", gen("alpha3")), ("bhat2", gen("alpha4"))),
        modulo_meridian=frozenset(),
        meridian=Word(),
        complement_pi1=pi1,
    )
    return MarkedManifold(
        name=name, euler=2, signature=-2, parity="odd",
        symplectic=True, minimal=False,
        pi1=pi1, surfaces=(sigmahat2,), sites=sites,
    )


def bbt4(q: int, r: int) -> MarkedManifold:
    """The four-torus blown up twice, with two torus surgeries of
    coefficients 1/q and 1/r (q, r >= 1).  Its marked genus-2 surface
    SigmaHat2 (the resolution of a pair of dual tori, pushed off the
    exceptional spheres) has *trivial* meridian: the complement
    presentation below is on the nose, and all four curve images are
    exact."""
    if q < 1 or r < 1:
        raise ValueError(f"BBT4 needs q, r >= 1, got q={q}, r={r}")
    return _bbt4(q, r, f"BBT4({q},{r})")


def t4b2() -> MarkedManifold:
    """The four-torus blown up twice, surgeries left undone: pi1 = Z^4 and
    the marked surface's complement is the same Z^4 presentation (trivial
    meridian, all images exact).  This is the q = r = 0 degeneration of
    bbt4 and the standard second summand for stretching a construction by
    (chi, c1^2) = (+1, +8)."""
    return _bbt4(0, 0, "T4b2")


# ---------------------------------------------------------------------------
# torus x sphere blown up four times (e = 4, sigma = -4), no sites
# ---------------------------------------------------------------------------

def t2xs2b4() -> MarkedManifold:
    """A torus-ruled surface (torus x sphere) blown up four times, with the
    square-zero genus-2 surface SigmaTilde2 obtained by resolving a
    bidegree-(2,2) curve: pi1 = Z^2, trivial meridian, exact images."""
    gens_ = ("c", "d")
    pi1 = FpPresentation(gens_, (_word("[c, d]"),))
    sigmatilde2 = EmbeddedSurface(
        name="SigmaTilde2", genus=2, self_intersection=0,
        generator_images=(("atil1", gen("c")), ("btil1", gen("d")),
                          ("atil2", _word("c^-1")),
                          ("btil2", _word("d^-1"))),
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
