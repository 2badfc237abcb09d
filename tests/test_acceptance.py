"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Every numbered test prints `[criterion NN] PASS/FAIL <label>` (visible with
-rA or on failure), and `pytest -v` shows the same thing through the test
names.  The heavy objects (family manifolds with their certificates) are
built once and shared; wall-clock limits quoted in the criteria are
asserted, not just hoped for.
"""

import time
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from pathlib import Path
from random import Random

from m4kit.abelian import AbelianGroup, h1, smith_normal_form
from m4kit.certify import certify
from m4kit.checker import replay
from m4kit.constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from m4kit.coset import CosetCount, coset_enumeration
from m4kit.geography import (
    FreedmanModel,
    GeoPoint,
    coords,
    freedman_model,
    in_odd_region,
    realize_pair,
)
from m4kit.manifest import parse_manifest, run_manifest
from m4kit.presentation import FpPresentation, format_presentation
from m4kit.words import commutator, gen, parse_word

MANIFEST_DIR = Path(__file__).resolve().parent.parent / "manifests"

SIGNS = tuple(product((1, -1), (1, -1)))
DEFAULT = (1, -1)


@contextmanager
def reported(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:>2}] FAIL  {label}")
        raise
    print(f"[criterion {number:>2}] PASS  {label}")


# -- shared builds -------------------------------------------------------------

@lru_cache(maxsize=None)
def x1(m, signs=DEFAULT):
    M = exotic_cp2_2(m, eps1=signs[0], eps3=signs[1])
    return M, certify(M.pi1, target="trivial")


@lru_cache(maxsize=None)
def xn(n, m, signs=DEFAULT):
    M = exotic_odd_cp2(n, m, eps1=signs[0], eps3=signs[1])
    return M, certify(M.pi1, target="trivial")


@lru_cache(maxsize=None)
def v_family(m, signs=DEFAULT):
    M = exotic_cp2_4(m, eps1=signs[0], eps3=signs[1])
    return M, certify(M.pi1, target="trivial")


@lru_cache(maxsize=None)
def w_family(m, signs=DEFAULT):
    M = exotic_cp2_6(m, eps1=signs[0], eps3=signs[1])
    return M, certify(M.pi1, target="trivial")


@lru_cache(maxsize=None)
def cyclic_member(p):
    M = cyclic_family(p)
    return M, certify(M.pi1, target=("Z" if p == 0 else f"Z/{p}"))


@lru_cache(maxsize=None)
def degenerate_sum():
    M = finite_cyclic_example()
    return M, certify(M.pi1)


@lru_cache(maxsize=None)
def realization(chi, c1sq):
    return realize_pair(chi, c1sq)


# -- criteria --------------------------------------------------------------------

def test_criterion_01_five_member_small_family():
    with reported(1, "e=5, sigma=-1 family: trivial pi1 and model (1,2), "
                     "m = 1..5, each under 10s"):
        for m in range(1, 6):
            t0 = time.monotonic()
            M, cert = x1(m)
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0, f"m={m} took {elapsed:.1f}s"
            assert (M.euler, M.signature) == (5, -1)
            assert cert.verdict == "trivial" and cert.matches_target
            replay(cert, M.pi1)
            assert freedman_model(M, cert) == FreedmanModel(1, 2)
            assert freedman_model(M, cert).describe() == "CP2 # 2CP2bar"


def test_criterion_02_odd_family_sweep():
    with reported(2, "e=4n+1 family: trivial pi1 and model (2n-1, 2n), "
                     "n = 2..10, m = 1..3, sweep under 2 min"):
        t0 = time.monotonic()
        for n in range(2, 11):
            for m in (1, 2, 3):
                M, cert = xn(n, m)
                assert (M.euler, M.signature) == (4 * n + 1, -1)
                assert cert.verdict == "trivial" and cert.matches_target
                replay(cert, M.pi1)
                assert freedman_model(M, cert) == FreedmanModel(2 * n - 1, 2 * n)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_03_four_and_six_blowup_families():
    with reported(3, "(7,-3) -> model (1,4) and (9,-5) -> model (1,6), "
                     "trivial pi1 for m = 1..3"):
        for m in (1, 2, 3):
            V, vcert = v_family(m)
            assert (V.euler, V.signature) == (7, -3)
            assert vcert.verdict == "trivial" and vcert.matches_target
            replay(vcert, V.pi1)
            assert freedman_model(V, vcert) == FreedmanModel(1, 4)
            W, wcert = w_family(m)
            assert (W.euler, W.signature) == (9, -5)
            assert wcert.verdict == "trivial" and wcert.matches_target
            replay(wcert, W.pi1)
            assert freedman_model(W, wcert) == FreedmanModel(1, 6)


def test_criterion_04_cyclic_family_case_table():
    with reported(4, "first twist opened to 1/p: Z for p=0, Z/p for "
                     "p = 2..6, coset index 1 over the surviving generator, "
                     "each under 10s"):
        for p in (0, 2, 3, 4, 5, 6):
            t0 = time.monotonic()
            M, cert = cyclic_member(p)
            elapsed = time.monotonic() - t0
            assert elapsed < 10.0, f"p={p} took {elapsed:.1f}s"
            if p == 0:
                assert cert.verdict == "infinite_cyclic"
            else:
                assert cert.verdict == "finite_cyclic" and cert.order == p
            assert cert.matches_target
            assert cert.generator == "c"
            assert cert.coset_subgroup == ("c",)
            assert cert.coset_index == 1
            replay(cert, M.pi1)
            # abelianization agrees (this is also certify's internal gate)
            expected = AbelianGroup(1) if p == 0 else AbelianGroup(0, (p,))
            assert h1(M.pi1.strip_meridional(),
                      include_h1_safe_conditionals=True) == expected


def test_criterion_05_unsurgered_sum_is_z2():
    with reported(5, "wholly untwisted right-hand block: pi1 = Z/2, "
                     "with the abelianization + coset fallback also checked"):
        M, cert = degenerate_sum()
        # primary path: the engine reaches the definite verdict
        assert cert.verdict == "finite_cyclic"
        assert (cert.generator, cert.order) == ("alpha3", 2)
        replay(cert, M.pi1)
        # fallback layer (named by the criterion; cheap, so always run):
        assert h1(M.pi1.strip_meridional(),
                  include_h1_safe_conditionals=True) == AbelianGroup(0, (2,))
        tc = coset_enumeration(cert.core(), [gen("alpha3")])
        assert isinstance(tc, CosetCount) and tc.index == 1


def test_criterion_06_geography_identities():
    with reported(6, "c1^2 - 8 chi = sigma for every constructed manifold; "
                     "odd-region membership for the simply connected ones; "
                     "wedge coordinates as tabulated"):
        tabulated = {}
        manifolds = []
        for m in range(1, 6):
            manifolds.append(x1(m))
            tabulated[x1(m)[0].name] = GeoPoint(1, 7)
        for n in range(2, 11):
            for m in (1, 2, 3):
                manifolds.append(xn(n, m))
                tabulated[xn(n, m)[0].name] = GeoPoint(n, 8 * n - 1)
        for m in (1, 2, 3):
            manifolds.append(v_family(m))
            tabulated[v_family(m)[0].name] = GeoPoint(1, 5)
            manifolds.append(w_family(m))     # (1, 3): identity + region only
        for p in (0, 2, 3, 4, 5, 6):
            manifolds.append(cyclic_member(p))
        manifolds.append(degenerate_sum())

        for M, cert in manifolds:
            pt = coords(M.euler, M.signature)      # raises unless e+sigma = 0 mod 4
            assert pt.signature == M.signature     # the identity, exactly
            if cert.verdict == "trivial":
                assert in_odd_region(pt), M.name
            if M.name in tabulated:
                assert pt == tabulated[M.name], M.name


def test_criterion_07_realization_table():
    with reported(7, "marked-torus realizations for all six wedge rows; "
                     "meridian dies at (1,7); torus generators surject at "
                     "(1,7), (2,15), (3,23)"):
        rows = [(1, 5), (1, 7), (2, 9), (2, 11), (2, 13), (2, 15), (3, 23)]
        for chi, c1sq in rows:
            r = realization(chi, c1sq)
            assert r.point == GeoPoint(chi, c1sq)
            assert in_odd_region(r.point)
            assert coords(r.manifold.euler, r.manifold.signature) == r.point
            assert r.manifold.symplectic
            # rows beyond the fully-worked ones may be inconclusive without
            # failing; whatever is definite must replay
            for cert in (r.closed_certificate, r.complement_certificate):
                if cert.is_definite:
                    replay(cert)
        front = realization(1, 7)
        assert front.closed_certificate.verdict == "infinite_cyclic"
        assert front.closed_certificate.generator == "c"
        assert front.complement_certificate.verdict == "infinite_cyclic"
        assert front.site.pushoff == parse_word("d^-1 b2^-1 d b2")
        assert front.meridian_dies
        for chi, c1sq in [(1, 7), (2, 15), (3, 23)]:
            assert realization(chi, c1sq).torus_surjects, (chi, c1sq)


def test_criterion_08_smith_vs_coset_cross_oracle():
    with reported(8, "group order by Smith normal form equals Todd-Coxeter "
                     "index on 200+ random finite abelian presentations"):
        rng = Random(0x4D344B)
        checked = 0
        while checked < 200:
            k = rng.randint(1, 4)
            matrix = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
            diag = smith_normal_form(matrix).diagonal
            order = 1
            for d in diag:
                order *= d
            order = abs(order)
            if order == 0 or order > 400:
                continue                     # infinite or needlessly slow
            gens = tuple(f"g{i}" for i in range(k))
            rels = []
            for row in matrix:
                w = parse_word("1")
                for g, exp in zip(gens, row):
                    w = w * gen(g) ** exp
                rels.append(w)
            for i in range(k):
                for j in range(i + 1, k):
                    rels.append(commutator(gen(gens[i]), gen(gens[j])))
            p = FpPresentation(gens, tuple(r for r in rels if r))
            tc = coset_enumeration(p, max_cosets=100_000)
            assert isinstance(tc, CosetCount), f"enumeration blew up on {matrix}"
            assert tc.index == order, (matrix, diag, tc)
            checked += 1
        assert checked == 200


def test_criterion_09_certificate_replay_corpus():
    with reported(9, "every definite certificate emitted by the manifest "
                     "corpus and the family builds replays through the "
                     "independent checker"):
        corpus = []
        for path in sorted(MANIFEST_DIR.glob("*.m4")):
            result = run_manifest(parse_manifest(path.read_text()))
            assert all(o.passed for o in result.outcomes), \
                f"{path.name} has failing checks"
            for name, cert in result.certificates.items():
                corpus.append((f"{path.name}:{name}",
                               cert, result.manifolds[name].pi1))
        for m in range(1, 6):
            corpus.append((f"x1({m})", x1(m)[1], x1(m)[0].pi1))
        for p in (0, 2, 3, 4, 5, 6):
            corpus.append((f"cyclic({p})", cyclic_member(p)[1],
                           cyclic_member(p)[0].pi1))
        definite = [(tag, c, p) for tag, c, p in corpus if c.is_definite]
        assert len(definite) >= 30, "corpus unexpectedly small"
        for tag, cert, presentation in definite:
            replay(cert, presentation)       # CheckFailure = criterion failure


def test_criterion_10_sign_robustness():
    with reported(10, "families of criteria 1-3 certify trivial under all "
                      "four pushoff sign choices"):
        for signs in SIGNS:
            for m in range(1, 6):
                M, cert = x1(m, signs)
                assert cert.verdict == "trivial", (signs, "x1", m)
                replay(cert, M.pi1)
            for m in (1, 2, 3):
                M, cert = v_family(m, signs)
                assert cert.verdict == "trivial", (signs, "v", m)
                replay(cert, M.pi1)
                M, cert = w_family(m, signs)
                assert cert.verdict == "trivial", (signs, "w", m)
                replay(cert, M.pi1)
        # The odd family's pushoff feeds a surgery that bt4(1, 0, ...)
        # skips, so the four choices build one presentation: certify it once.
        for n in range(2, 11):
            for m in (1, 2, 3):
                texts = {format_presentation(
                    exotic_odd_cp2(n, m, eps1=e1, eps3=e3).pi1)
                    for e1, e3 in SIGNS}
                assert len(texts) == 1, ("xn", n, m)
                M, cert = xn(n, m)
                assert cert.verdict == "trivial", ("xn", n, m)
                replay(cert, M.pi1)
