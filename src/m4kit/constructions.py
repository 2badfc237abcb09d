"""The headline families: small exotic 4-manifolds as fiber sums.

Every construction here glues a twisted product block to a blown-up
four-torus block along marked square-zero genus-2 surfaces, then relies on
certify() to pin the fundamental group down.  Characteristic numbers:

    exotic_cp2_2(m)      e = 5,      sigma = -1   (model CP2 # 2 CP2bar)
    exotic_odd_cp2(n, m) e = 4n + 1, sigma = -1   (model (2n-1) CP2 # 2n CP2bar)
    exotic_cp2_4(m)      e = 7,      sigma = -3   (model CP2 # 4 CP2bar)
    exotic_cp2_6(m)      e = 9,      sigma = -5   (model CP2 # 6 CP2bar)

with m = 1 symplectic and m >= 2 the non-symplectic members of each
infinite family.  cyclic_family(p, m) trades the trivial group for Z/p
(p = 0 gives Z), and finite_cyclic_example() is the smallest Z/2 instance.
Parameters are checked by the block constructors they reach, which raise
ValueError.
"""

from __future__ import annotations

from .blocks import MarkedManifold, bbt4, bt4, g2xgn, t2xg2, t2xs2b4
from .surgery import fiber_sum


def exotic_cp2_2(m: int = 1, *, eps1: int = 1, eps3: int = -1) -> MarkedManifold:
    """Fiber sum with e = 5, sigma = -1 and certifiably trivial pi1; the
    m-family of exotic copies of the projective plane with two reversed
    blow-ups.  (eps1, eps3) choose the pushoff orientation inside the
    right summand; any of the four choices certifies the same way."""
    return fiber_sum(t2xg2(1, 1), "Sigma2",
                     bt4(1, 1, m, eps1, eps3), "SigmaBar2")


def exotic_odd_cp2(n: int, m: int = 1, *,
                   eps1: int = 1, eps3: int = -1) -> MarkedManifold:
    """Fiber sum with e = 4n + 1, sigma = -1 (n >= 2): exotic copies of the
    connected sum of 2n - 1 projective planes and 2n reversed ones.

    eps1 and eps3 reach no relator: they orient the pushoff of the second
    site of bt4(1, 0, ...), whose surgery r = 0 skips, so all four choices
    give one presentation.  They stay because bench/run.py passes them
    (ROADMAP item 5)."""
    return fiber_sum(g2xgn(n, m), "Sigma2",
                     bt4(1, 0, 1, eps1, eps3), "SigmaBar2")


def cyclic_family(p: int, m: int = 1) -> MarkedManifold:
    """The e = 5, sigma = -1 sum with the first twist coefficient opened up
    to 1/p: fundamental group Z/p (infinite cyclic when p = 0, trivial when
    p = 1)."""
    return fiber_sum(t2xg2(p, 1), "Sigma2", bt4(1, 1, m), "SigmaBar2")


def exotic_cp2_4(m: int = 1, *, eps1: int = 1, eps3: int = -1) -> MarkedManifold:
    """Fiber sum of the two blown-up-torus blocks: e = 7, sigma = -3,
    certifiably trivial pi1.  The right summand is renamed with prefix z_
    since both sides use the alpha alphabet."""
    return fiber_sum(bbt4(1, 1), "SigmaHat2",
                     bt4(1, 1, m, eps1, eps3), "SigmaBar2", prefix="z_")


def exotic_cp2_6(m: int = 1, *, eps1: int = 1, eps3: int = -1) -> MarkedManifold:
    """Fiber sum of the blown-up torus-ruled block with the blown-up
    four-torus block: e = 9, sigma = -5, certifiably trivial pi1."""
    return fiber_sum(t2xs2b4(), "SigmaTilde2",
                     bt4(1, 1, m, eps1, eps3), "SigmaBar2")


def finite_cyclic_example() -> MarkedManifold:
    """The degenerate sum whose fundamental group is certified Z/2: the
    genus-2 x genus-2 block glued to the *untwisted* blown-up four-torus
    (both surgery coefficients zero)."""
    return fiber_sum(g2xgn(2, 1), "Sigma2", bt4(0, 0, 1), "SigmaBar2")
