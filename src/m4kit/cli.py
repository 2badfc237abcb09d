"""Command-line interface.

    m4kit build MANIFEST [-o REPORT.json]     build + evaluate expectations
    m4kit certify MANIFEST NAME [...]         certify one manifold's pi1
    m4kit geography CHI C1SQ [-o OUT.json]    realize a characteristic pair
    m4kit catalog                             list block constructors
    m4kit replay CERT.json [...]              re-verify a certificate
    m4kit fmt MANIFEST [-w]                   canonical manifest form

Exit codes: 0 every check held; 1 a check was refuted, a replay failed,
or fmt refused a manifest (its canonical form is not a fixpoint, or -w
would drop a comment); 2 the input was malformed (parse error, unknown
name, bad arguments, a malformed certificate or --target) or could not
be read (a missing or unreadable file, or one that is not UTF-8); 3
nothing was refuted, but a check stayed undetermined: its certificate is
inconclusive (a budget ran out, or the engine stalled, as on T4()) or
its coset enumeration ran out of cosets.  A check is an expectation of
build, the --target of certify, or one of geography's certificates,
meridian and torus; _exit_code is the one rule from a command's checks
to 0, 1 or 3.

The coset budget is the --max-cosets flag (default 1,000,000); it must be
a positive integer, or the command exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from . import checker
from .blocks import MarkedManifold
from .certify import Budget, BudgetError, certify
from .coset import DEFAULT_MAX_COSETS
from .geography import GeographyError, in_odd_region, realize_pair
from .manifest import (
    Expectation,
    Manifest,
    ManifestError,
    comment_line,
    format_manifest,
    parse_manifest,
    report_json,
    run_manifest,
)
from .trace import Certificate, CertificateFormatError, parse_target

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNDETERMINED = 3


def _exit_code(outcomes: list[bool | None]) -> int:
    """The exit code of a command's checks, each True (it holds), False
    (refuted) or None (undetermined): 1 if any is refuted, else 3 if any
    is undetermined, else 0."""
    if False in outcomes:
        return EXIT_FAIL
    return EXIT_UNDETERMINED if None in outcomes else EXIT_OK


def _held(cert: Certificate) -> bool | None:
    """A certificate as a check: None if inconclusive, else whether its
    verdict meets its target (True if it has none)."""
    return ((cert.target is None or cert.matches_target) if cert.is_definite
            else None)


def _show(outcome: bool | None) -> str:
    return "undetermined" if outcome is None else str(outcome)


_STATUS = {True: "ok  ", False: "FAIL", None: "????"}


def _budget(args: argparse.Namespace) -> Budget:
    return Budget(max_cosets=args.max_cosets)


def _write_json(path: str, data: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


class _UnreadableInput(Exception):
    """An input file that is missing, cannot be read or is not UTF-8."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UnreadableInput(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _UnreadableInput(f"cannot read {path}: {exc}") from None


def _load_manifest(path: str) -> Manifest:
    return parse_manifest(_read_text(path))


def _build_manifold(path: str, name: str) -> MarkedManifold:
    """Build the definitions of a manifest, skipping its expectations, and
    return the manifold called `name`."""
    m = _load_manifest(path)
    result = run_manifest(
        Manifest(tuple(i for i in m.items if not isinstance(i, Expectation))))
    if name not in result.manifolds:
        raise ManifestError(f"no manifold named {name!r} in {path}")
    return result.manifolds[name]


def _cmd_build(args: argparse.Namespace) -> int:
    m = _load_manifest(args.manifest)
    result = run_manifest(m, budget=_budget(args))
    for o in result.outcomes:
        detail = (f"{o.expected!r}" if o.passed
                  else f"expected {o.expected!r}, got {o.actual!r}")
        print(f"{_STATUS[o.passed]} {o.manifold} {o.key}: {detail}")
    n_pass = sum(1 for o in result.outcomes if o.passed)
    print(f"{n_pass}/{len(result.outcomes)} checks passed")
    if args.output:
        _write_json(args.output, report_json(m, result))
        print(f"report written to {args.output}")
    return _exit_code([o.passed for o in result.outcomes])


def _cmd_certify(args: argparse.Namespace) -> int:
    M = _build_manifold(args.manifest, args.name)
    cert = certify(M.pi1, target=args.target, budget=_budget(args))
    if cert.is_definite:
        checker.replay(cert, M.pi1)
        print(f"pi1({args.name}) = {cert.describe()}   [replayed ok]")
    else:
        print(f"pi1({args.name}): inconclusive -- {cert.reason}")
    print(f"  e = {M.euler}, sigma = {M.signature}, parity = {M.parity}, "
          f"symplectic = {M.symplectic}")
    if cert.is_definite:
        torsion = list(cert.h1_torsion) if cert.h1_torsion is not None else []
        print(f"  h1 rank {cert.h1_rank}, torsion {torsion}; "
              f"derivation steps {cert.steps_used}; "
              f"coset index {cert.coset_index}")
    else:
        print(f"  derivation steps {cert.steps_used}")
    if args.output:
        _write_json(args.output, cert.to_json())
        print(f"certificate written to {args.output}")
    held = _held(cert)
    if held is False:
        print(f"verdict does not match target {args.target!r}", file=sys.stderr)
    return _exit_code([held])


def _cmd_geography(args: argparse.Namespace) -> int:
    try:
        r = realize_pair(args.chi, args.c1sq, budget=_budget(args))
    except GeographyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    checker.replay(r.closed_certificate, r.manifold.pi1)
    checker.replay(r.complement_certificate)
    M = r.manifold
    print(f"point {r.point}: {M.name}")
    print(f"  e = {M.euler}, sigma = {M.signature}, "
          f"symplectic = {M.symplectic}, in odd-form band = "
          f"{in_odd_region(r.point)}")
    print(f"  marked torus: {r.site_name} "
          f"(generators {list(r.site.torus_generators)})")
    print(f"  pi1(closed)     = {r.closed_certificate.describe()}")
    print(f"  pi1(complement) = {r.complement_certificate.describe()}")
    print(f"  meridian dies = {_show(r.meridian_dies)}, "
          f"torus generates = {_show(r.torus_surjects)}")
    data = {
        "schema": "m4kit.geography/1",
        "chi": r.point.chi,
        "c1sq": r.point.c1sq,
        "euler": M.euler,
        "signature": M.signature,
        "manifold": M.name,
        "site": r.site_name,
        "torus_generators": list(r.site.torus_generators),
        "closed_certificate": r.closed_certificate.to_json(),
        "complement_certificate": r.complement_certificate.to_json(),
        "meridian_dies": r.meridian_dies,
        "torus_surjects": r.torus_surjects,
        "in_odd_region": in_odd_region(r.point),
    }
    if args.output:
        _write_json(args.output, data)
        print(f"report written to {args.output}")
    return _exit_code([_held(r.closed_certificate),
                       _held(r.complement_certificate),
                       r.meridian_dies, r.torus_surjects])


_CATALOG_LINES = """\
block constructors (use in `block NAME = CTOR(...)`):

  T2xG2(p, q)      torus x genus-2 surface, four torus twists, last two of
                   coefficient 1/p and 1/q       e=0   sigma=0   symplectic
                   surfaces: Sigma2   sites: a1'xc', b1'xc'', a2'xc', a2''xd'
  G2xGn(n, m)      genus-2 x genus-n surface (n>=2), 2n+4 twists, one of
                   multiplicity m                e=4n-4 sigma=0  sympl iff m=1
                   surfaces: Sigma2   sites: 8 + 2(n-2), incl. a2'xc1'
  BT4(q, r, m=1, eps1=1, eps3=-1)
                   blown-up 4-torus, twists 1/q and m/r (0 denominator =
                   skipped)                      e=1   sigma=-1  sympl iff m=1
                   surfaces: SigmaBar2 (meridional tier; third curve image
                   modulo meridian)   sites: alpha2'xalpha3', alpha2''xalpha4'
  BBT4(q, r)       twice blown-up 4-torus, twists 1/q, 1/r (q, r >= 1)
                                                 e=2   sigma=-2  symplectic
                   surfaces: SigmaHat2 (trivial meridian, exact images)
                   sites: alpha1'xalpha3', alpha2'xalpha3''
  T4b2()           twice blown-up 4-torus, untwisted (pi1 = Z^4)
                                                 e=2   sigma=-2  symplectic
  T4()             the 4-torus, two sites armed  e=0   sigma=0   symplectic
  T2xS2b4()        torus-ruled surface blown up four times, genus-2 surface
                   SigmaTilde2 (trivial meridian) e=4  sigma=-4  symplectic

operations: torus_surgery(base, site, k, m=1), blow_up(base, n=1),
            fiber_sum(left, left_surface, right, right_surface, prefix=None)

composites (python API, m4kit.constructions):
  exotic_cp2_2(m=1, *, eps1=1, eps3=-1)
  exotic_odd_cp2(n, m=1, *, eps1=1, eps3=-1)
  cyclic_family(p, m=1)
  exotic_cp2_4(m=1, *, eps1=1, eps3=-1)
  exotic_cp2_6(m=1, *, eps1=1, eps3=-1)
  finite_cyclic_example()"""


def _cmd_catalog(_args: argparse.Namespace) -> int:
    print(_CATALOG_LINES)
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    text = _read_text(args.certificate)
    try:
        data = json.loads(text)
    except RecursionError:
        raise CertificateFormatError("JSON nests too deeply") from None
    cert = Certificate.from_json(data)
    expected = None
    if (args.manifest is None) != (args.name is None):
        print("--manifest requires --name" if args.name is None
              else "--name requires --manifest", file=sys.stderr)
        return EXIT_USAGE
    if args.manifest is not None:
        expected = _build_manifold(args.manifest, args.name).pi1
    try:
        checker.replay(cert, expected)
    except checker.CheckFailure as exc:
        print(f"REPLAY FAILED: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print(f"replay ok: {cert.describe()} "
          f"({len(cert.trace)} steps re-verified)")
    if not cert.is_definite:
        print("note: certificate is inconclusive; nothing was claimed")
    return EXIT_OK


def _cmd_fmt(args: argparse.Namespace) -> int:
    text = _read_text(args.manifest)
    canon = format_manifest(parse_manifest(text))
    # parse -> print leaves canonical text fixed; refuse to write otherwise
    if format_manifest(parse_manifest(canon)) != canon:
        print(f"fmt: canonical form of {args.manifest} is not a fixpoint",
              file=sys.stderr)
        return EXIT_FAIL
    if not args.write:
        sys.stdout.write(canon)
        return EXIT_OK
    # the canonical form keeps no comment: refuse to lose one
    line = comment_line(text)
    if line is not None:
        print(f"fmt: line {line} of {args.manifest} holds a comment, which "
              "the canonical form drops; not rewritten", file=sys.stderr)
        return EXIT_FAIL
    with open(args.manifest, "w", encoding="utf-8") as fh:
        fh.write(canon)
    print(f"rewrote {args.manifest}")
    return EXIT_OK


@functools.cache                   # parse_args leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="m4kit",
        description="symbolic 4-manifold constructions with machine-checked "
                    "fundamental-group certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="run a manifest and its expectations")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", help="write a JSON report here")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("certify", help="certify one manifold from a manifest")
    p.add_argument("manifest")
    p.add_argument("name")
    p.add_argument("--target", default=None, type=parse_target,
                   help='"trivial", "Z", or "Z/<n>" with n >= 2')
    p.add_argument("-o", "--output", help="write the certificate JSON here")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("geography",
                       help="realize a (chi, c1sq) pair with a marked torus")
    p.add_argument("chi", type=int)
    p.add_argument("c1sq", type=int)
    p.add_argument("-o", "--output", help="write a JSON report here")
    p.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    p.set_defaults(fn=_cmd_geography)

    p = sub.add_parser("catalog", help="list the block constructors")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("replay", help="re-verify a certificate JSON file")
    p.add_argument("certificate")
    p.add_argument("--manifest", default=None,
                   help="manifest to rebuild the input presentation from")
    p.add_argument("--name", default=None,
                   help="manifold name within --manifest")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("fmt", help="print the canonical form of a manifest")
    p.add_argument("manifest")
    p.add_argument("-w", "--write", action="store_true",
                   help="rewrite the file in place")
    p.set_defaults(fn=_cmd_fmt)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CertificateFormatError, json.JSONDecodeError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_UnreadableInput, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except checker.CheckFailure as exc:
        print(f"certificate verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
