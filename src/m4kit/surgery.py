"""Cut-and-paste operations on marked manifolds.

Three operations, each a rewrite of the stored presentation-and-invariant
data:

* torus_surgery   -- replace the relator standing at a surgery site by
                     curve^k (pushoff^m)^-1 (coefficient k/m surgery);
                     k = 0 restores the site's unsurgered relator.
* blow_up         -- connected sum with n reversed projective planes.
* fiber_sum       -- glue two manifolds along marked square-zero surfaces
                     of equal genus, producing the Van Kampen candidate
                     presentation: both complements, one identification
                     per pair of standard curves (conditional when a curve
                     image is only known modulo a meridian), and the
                     relator killing the product of the two meridians.

None of these ever *lowers* the candidate group: every emitted relation
really holds in the fundamental group of the underlying manifold, so the
presented group surjects onto it and certification stays one-sided.
"""

from __future__ import annotations

from math import gcd

from .blocks import EmbeddedSurface, MarkedManifold, SurgeryDatum
from .presentation import ConditionalRelator
from .words import Word, gen, replace, substitute


class SurgeryError(ValueError):
    pass


def torus_surgery(base: MarkedManifold, site: str, k: int, m: int = 1,
                  ) -> MarkedManifold:
    """Perform coefficient-k/m torus surgery at one of base's sites.

    Requires k >= 0, m >= 1, gcd(k, m) = 1.  With k = 0 the surgery is the
    trivial (unsurgering) one, which forces m = 1 and reinstates the
    site's unsurgered relator.  Multiplicity m = 1 preserves a symplectic
    structure; m > 1 in general does not.  Euler characteristic and
    signature are unchanged; oddness of the intersection form survives,
    evenness need not.
    """
    datum = base.site(site)
    if k < 0 or m < 1:
        raise SurgeryError(f"bad surgery coefficient {k}/{m}")
    if gcd(k, m) != 1:
        raise SurgeryError(f"surgery coefficient {k}/{m} is not reduced")
    new_rel = datum.surgered(k, m)
    old_rel = datum.relator

    pi1 = base.pi1.replace_relator(old_rel, new_rel)
    surfaces = tuple(
        replace(s, complement_pi1=s.complement_pi1.replace_relator(old_rel, new_rel))
        if old_rel in s.complement_pi1.relators else s
        for s in base.surfaces)
    sites = tuple(
        replace(t, relator=new_rel) if t.name == site else t
        for t in base.sites)
    return MarkedManifold(
        name=f"{base.name}+surg({site},{k},{m})",
        euler=base.euler, signature=base.signature,
        parity=("odd" if base.parity == "odd" else "unknown"),
        symplectic=(base.symplectic and m == 1), minimal=None,
        pi1=pi1, surfaces=surfaces, sites=sites,
    )


def blow_up(base: MarkedManifold, n: int = 1) -> MarkedManifold:
    """Connected sum with n reversed projective planes.

    The fundamental group and all markings are untouched (the sum is taken
    away from the marked surfaces and sites); e grows and sigma drops by n,
    the intersection form becomes odd, and minimality is destroyed.
    """
    if n < 1:
        raise SurgeryError("blow_up needs n >= 1")
    suffix = "#CP2bar" if n == 1 else f"#{n}CP2bar"
    return MarkedManifold(
        name=base.name + suffix,
        euler=base.euler + n, signature=base.signature - n,
        parity="odd", symplectic=base.symplectic, minimal=False,
        pi1=base.pi1, surfaces=base.surfaces, sites=base.sites,
    )


def rename_manifold(M: MarkedManifold, prefix: str) -> MarkedManifold:
    """Prefix every generator, surface, site, and tier name of M."""
    word_map = {g: gen(prefix + g) for g in M.pi1.generators}

    def rw(w: Word) -> Word:
        return substitute(w, word_map)

    surfaces = tuple(
        EmbeddedSurface(
            name=prefix + s.name, genus=s.genus,
            self_intersection=s.self_intersection,
            generator_images=tuple((lbl, rw(w)) for lbl, w in s.generator_images),
            modulo_meridian=s.modulo_meridian,
            meridian=rw(s.meridian),
            complement_pi1=s.complement_pi1.with_prefix(prefix),
        ) for s in M.surfaces)
    sites = tuple(
        SurgeryDatum(
            name=prefix + t.name, curve=prefix + t.curve,
            pushoff=rw(t.pushoff),
            torus_generators=tuple(prefix + g for g in t.torus_generators),
            relator=rw(t.relator), unsurgered=rw(t.unsurgered),
        ) for t in M.sites)
    return MarkedManifold(
        name=M.name, euler=M.euler, signature=M.signature, parity=M.parity,
        symplectic=M.symplectic, minimal=M.minimal,
        pi1=M.pi1.with_prefix(prefix),
        surfaces=surfaces, sites=sites,
    )


def fiber_sum(left: MarkedManifold, left_surface: str,
              right: MarkedManifold, right_surface: str, *,
              prefix: str | None = None) -> MarkedManifold:
    """Glue left and right along the named marked surfaces.

    Both surfaces must have the same genus and square zero.  If the two
    generator alphabets collide, the right summand must be renamed by
    passing ``prefix``.  The resulting candidate presentation consists of

    * the two surface-complement presentations, side by side,
    * for each pair of corresponding standard curves, the relator
      identifying their images -- demoted to a conditional relator (keyed
      on the relevant meridian) when either image is only known modulo
      that meridian, and
    * one relator killing mu_left * mu_right, the gluing of the meridians.

    The left surface survives into the sum (re-marked with the new
    complement); the right one is consumed.  Surgery sites of both sides
    remain available, the right ones under their prefixed names.
    """
    S = left.surface(left_surface)
    if prefix is not None:
        right = rename_manifold(right, prefix)
        right_surface = prefix + right_surface
    T = right.surface(right_surface)
    if S.genus != T.genus:
        raise SurgeryError(
            f"genus mismatch: {S.name} has genus {S.genus}, "
            f"{T.name} has genus {T.genus}")
    if S.self_intersection != 0 or T.self_intersection != 0:
        raise SurgeryError("both surfaces must have square zero")
    clash = set(left.pi1.generators) & set(right.pi1.generators)
    if clash:
        raise SurgeryError(
            f"generator names {sorted(clash)} appear on both sides; "
            "pass prefix= to rename the right summand")

    # the two complements are valid, so only the words added here are checked
    relators: list[Word] = []
    conditional: list[ConditionalRelator] = []
    for (ln, lw), (rn, rw_) in zip(S.generator_images, T.generator_images):
        ident = lw * rw_.inverse()
        if not ident:
            continue
        l_mod = ln in S.modulo_meridian and bool(S.meridian)
        r_mod = rn in T.modulo_meridian and bool(T.meridian)
        if l_mod and r_mod:
            raise SurgeryError(
                f"cannot identify {ln} with {rn}: both images are only "
                "known modulo a meridian")
        if l_mod:
            conditional.append(ConditionalRelator(ident, S.meridian))
        elif r_mod:
            conditional.append(ConditionalRelator(ident, T.meridian))
        else:
            relators.append(ident)

    mu = S.meridian * T.meridian
    if mu:
        relators.append(mu)
    closed = S.complement_pi1.glued(T.complement_pi1, tuple(relators),
                                    tuple(conditional))
    # the complement is the closed sum without its first copy of mu
    complement = closed.without_relator(mu) if mu else closed

    survivor = EmbeddedSurface(
        name=S.name, genus=S.genus, self_intersection=0,
        generator_images=S.generator_images,
        modulo_meridian=S.modulo_meridian,
        meridian=S.meridian,
        complement_pi1=complement,
    )
    g = S.genus
    return MarkedManifold(
        name=f"{left.name}#{right.name}",
        euler=left.euler + right.euler + 4 * g - 4,
        signature=left.signature + right.signature,
        parity=("odd" if (left.signature + right.signature) % 8 != 0
                else "unknown"),
        symplectic=(left.symplectic and right.symplectic),
        minimal=None,
        pi1=closed,
        surfaces=(survivor,),
        sites=left.sites + right.sites,
    )
