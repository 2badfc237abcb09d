"""The .m4 manifest format: declarative build-and-check scripts.

A manifest is a line-oriented text file.  Blank lines and `#` comments are
ignored.  Every other line is one of

    block   NAME = CTOR(args)
    surgery NAME = torus_surgery(BASE, site="...", k=INT, m=INT)
    blowup  NAME = blow_up(BASE, n=INT)
    sum     NAME = fiber_sum(LEFT, "SURF", RIGHT, "SURF", prefix="...")
    expect  NAME: key=value, key=value, ...

Arguments may be given positionally or by keyword, Python-style.  Values
are integers, double-quoted strings, `true`/`false`, or bare names (which
refer to previously defined manifolds).  CTOR is one of the catalog
constructors (see blocks.CATALOG).

A parsed manifest is canonical: each definition holds its arguments by
keyword, in parameter order, with defaults filled in (an omitted `prefix`
stays out).  format_manifest prints that form, which parses back the same.

Expectation keys:

    e=INT           Euler characteristic
    sigma=INT       signature
    parity="odd"    intersection-form parity ("odd"/"even"/"unknown")
    symplectic=BOOL carries a symplectic structure
    pi1="trivial"   certify the fundamental group against a target:
       ="Z"         "trivial", "Z", or "Z/<n>" (n >= 2, no leading zeros)
    gen="c"         the certified generator (with pi1="Z" or "Z/<n>")
    model="CP2 # 2CP2bar"
                    homeomorphism type read off a trivial-pi1 certificate
    region=BOOL     the point (chi, c1sq) lies in the odd-form band

Running a manifest produces a deterministic JSON report: same manifest and
budget, byte-identical report.  Certificates for pi1 expectations are
embedded in the report and re-verified with the independent checker as
they are produced.
"""

from __future__ import annotations

import functools
import inspect
import re
from operator import attrgetter
from typing import Any, Callable

from . import checker
from .blocks import CATALOG, MarkedManifold
from .certify import Budget, certify
from .geography import GeographyError, coords, freedman_model, in_odd_region
# the operations are looked up in globals() when a definition calls them
from .surgery import blow_up, fiber_sum, torus_surgery
from .trace import Certificate, parse_target, target_of
from .words import Record, set_field


class ManifestError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


# --- values and tokens ------------------------------------------------------

# A value is a tagged pair: ("int", 5) | ("str", "x") | ("bool", True)
# | ("ref", "name").
Value = tuple[str, Any]

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<int>-?\d+)
    | (?P<str>"(?:[^"\\]|\\.)*")
    | (?P<name>[A-Za-z_][A-Za-z0-9_/']*)
    | (?P<punct>[=(),:])
    | (?P<comment>\#.*)
    | (?P<other>\S)
    )
""", re.VERBOSE)


def _tokenize(text: str, line: int) -> list[tuple[str, Any]]:
    """The tokens of one line, up to a # comment; a # inside a string is
    part of the string, since the string is read first."""
    out: list[tuple[str, Any]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        if kind == "comment":
            break
        if kind == "other":
            rest = text[m.start(kind):].strip()
            raise ManifestError(f"cannot tokenize {rest[:20]!r}", line)
        if kind == "int":
            out.append(("int", int(tok)))
        elif kind == "str":
            body = tok[1:-1]
            out.append(("str", body.replace('\\"', '"').replace("\\\\", "\\")))
        elif tok in ("true", "false"):
            out.append(("bool", tok == "true"))
        else:
            out.append((kind, tok))           # a name or punctuation
    return out


def comment_line(text: str) -> int | None:
    """The number of the first line of `text` that holds a # comment, or
    None: the rule of _tokenize, so a # inside a string is no comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if any(m.lastgroup == "comment" for m in _TOKEN_RE.finditer(raw)):
            return lineno
    return None


class Definition(Record):
    """`kind` is block, surgery, blowup or sum; `ctor` the catalog name or
    operation name; `args` are by keyword, in parameter order."""

    __slots__ = ("kind", "name", "ctor", "args", "line")
    _uncompared = ("line",)          # line numbers don't count

    def __init__(self, kind: str, name: str, ctor: str,
                 args: tuple[tuple[str, Value], ...], line: int = 0) -> None:
        set_field(self, "kind", kind)
        set_field(self, "name", name)
        set_field(self, "ctor", ctor)
        set_field(self, "args", args)
        set_field(self, "line", line)


class Expectation(Record):
    __slots__ = ("name", "checks", "line")
    _uncompared = ("line",)

    def __init__(self, name: str, checks: tuple[tuple[str, Value], ...],
                 line: int = 0) -> None:
        set_field(self, "name", name)
        set_field(self, "checks", checks)
        set_field(self, "line", line)


class Manifest(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple[Definition | Expectation, ...]) -> None:
        set_field(self, "items", items)


# --- argument schemas and expectation keys --------------------------------

_KINDS = ("block", "surgery", "blowup", "sum")
_OPERATION = {"surgery": "torus_surgery", "blowup": "blow_up",
              "sum": "fiber_sum"}

# (parameter name, value tag, required, default)
_Schema = tuple[tuple[str, str, bool, Any], ...]

# parameter annotation -> value tag
_TAGS = {int: "int", str: "str", str | None: "str", MarkedManifold: "ref"}


def _callee(kind: str, ctor: str) -> Callable[..., MarkedManifold]:
    """The function a definition calls, looked up at call time: a block
    through CATALOG, an operation through this module's globals."""
    if kind == "block":
        return CATALOG[ctor]
    return globals()[_OPERATION[kind]]


@functools.cache
def _schema(fn: Callable[..., MarkedManifold]) -> _Schema:
    """The arguments fn takes in a manifest, read from its signature."""
    return tuple(
        (p.name, _TAGS[p.annotation], p.default is p.empty,
         None if p.default is p.empty else p.default)
        for p in inspect.signature(fn, eval_str=True).parameters.values())


def _bind(schema: _Schema, args: tuple[tuple[str | None, Value], ...],
          what: str, line: int) -> tuple[tuple[str, Value], ...]:
    """The arguments of a call as written, in canonical form (see the
    module docstring); a default of None (prefix) is left out."""
    names = [s[0] for s in schema]
    bound: dict[str, Value] = {}
    pos = 0
    seen_kw = False
    for key, (tag, val) in args:
        if key is None:
            if seen_kw:
                raise ManifestError(
                    f"{what}: positional argument after keyword", line)
            if pos >= len(schema):
                raise ManifestError(f"{what}: too many arguments", line)
            key = names[pos]
            pos += 1
        else:
            seen_kw = True
            if key not in names:
                raise ManifestError(
                    f"{what}: unknown argument {key!r} (takes {names})", line)
        if key in bound:
            raise ManifestError(f"{what}: duplicate argument {key!r}", line)
        want = schema[names.index(key)][1]
        if tag != want:
            raise ManifestError(
                f"{what}: argument {key!r} must be a {want}, got {tag}", line)
        bound[key] = (tag, val)
    for name, tag, required, default in schema:
        if name not in bound:
            if required:
                raise ManifestError(f"{what}: missing argument {name!r}", line)
            if default is not None:
                bound[name] = (tag, default)
    return tuple((name, bound[name]) for name in names if name in bound)


# expectation key -> the measure of a manifold it is compared with
_MEASURES: dict[str, Callable[[MarkedManifold], Any]] = {
    "e": attrgetter("euler"),
    "sigma": attrgetter("signature"),
    "parity": attrgetter("parity"),
    "symplectic": attrgetter("symplectic"),
    "region": lambda M: in_odd_region(coords(M.euler, M.signature)),
}
# the keys read off the manifold's pi1 certificate
_FROM_CERTIFICATE = ("pi1", "gen", "model")
_EXPECT_KEYS = (*_MEASURES, *_FROM_CERTIFICATE)


# --- parsing ----------------------------------------------------------------

class _Cursor:
    def __init__(self, tokens: list[tuple[str, Any]], line: int):
        self.tokens = tokens
        self.i = 0
        self.line = line

    def peek(self) -> tuple[str, Any] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, what: str) -> tuple[str, Any]:
        tok = self.peek()
        if tok is None:
            raise ManifestError(f"expected {what}, line ended", self.line)
        self.i += 1
        return tok

    def expect_punct(self, ch: str) -> None:
        tok = self.next(f"'{ch}'")
        if tok != ("punct", ch):
            raise ManifestError(f"expected '{ch}', got {tok[1]!r}", self.line)

    def expect_name(self, what: str) -> str:
        tok = self.next(what)
        if tok[0] != "name":
            raise ManifestError(f"expected {what}, got {tok[1]!r}", self.line)
        return tok[1]

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ManifestError(f"trailing input {tok[1]!r}", self.line)


def _parse_value(cur: _Cursor) -> Value:
    tok = cur.next("a value")
    if tok[0] in ("int", "str", "bool"):
        return tok
    if tok[0] == "name":
        return ("ref", tok[1])
    raise ManifestError(f"expected a value, got {tok[1]!r}", cur.line)


def _parse_args(cur: _Cursor) -> tuple[tuple[str | None, Value], ...]:
    cur.expect_punct("(")
    args: list[tuple[str | None, Value]] = []
    if cur.peek() == ("punct", ")"):
        cur.next(")")
        return tuple(args)
    while True:
        tok = cur.peek()
        if (tok is not None and tok[0] == "name"
                and cur.i + 1 < len(cur.tokens)
                and cur.tokens[cur.i + 1] == ("punct", "=")):
            key = cur.expect_name("keyword")
            cur.expect_punct("=")
            args.append((key, _parse_value(cur)))
        else:
            args.append((None, _parse_value(cur)))
        tok = cur.next("',' or ')'")
        if tok == ("punct", ")"):
            return tuple(args)
        if tok != ("punct", ","):
            raise ManifestError(f"expected ',' or ')', got {tok[1]!r}", cur.line)


def parse_manifest(text: str) -> Manifest:
    """Parse a manifest into its canonical form (see the module docstring).
    References are resolved and pi1 targets checked when it runs."""
    items: list[Definition | Expectation] = []
    defined: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw, lineno)
        if not tokens:
            continue
        cur = _Cursor(tokens, lineno)
        head = cur.expect_name("a directive")
        if head in _KINDS:
            name = cur.expect_name("a manifold name")
            cur.expect_punct("=")
            ctor = cur.expect_name("a constructor")
            written = _parse_args(cur)
            cur.done()
            if head != "block" and ctor != _OPERATION[head]:
                raise ManifestError(
                    f"directive {head!r} must call {_OPERATION[head]!r}, "
                    f"not {ctor!r}", lineno)
            if head == "block" and ctor not in CATALOG:
                raise ManifestError(
                    f"unknown block constructor {ctor!r}; available: "
                    f"{sorted(CATALOG)}", lineno)
            if name in defined:
                raise ManifestError(f"duplicate definition of {name!r}", lineno)
            defined.add(name)
            args = _bind(_schema(_callee(head, ctor)), written, ctor, lineno)
            items.append(Definition(head, name, ctor, args, lineno))
        elif head == "expect":
            name = cur.expect_name("a manifold name")
            cur.expect_punct(":")
            checks: list[tuple[str, Value]] = []
            while True:
                key = cur.expect_name("an expectation key")
                if key not in _EXPECT_KEYS:
                    raise ManifestError(
                        f"unknown expectation key {key!r}; known: "
                        f"{list(_EXPECT_KEYS)}", lineno)
                cur.expect_punct("=")
                checks.append((key, _parse_value(cur)))
                tok = cur.peek()
                if tok is None:
                    break
                cur.expect_punct(",")
            cur.done()
            if name not in defined:
                raise ManifestError(
                    f"expect references undefined manifold {name!r}", lineno)
            items.append(Expectation(name, tuple(checks), lineno))
        else:
            raise ManifestError(
                f"unknown directive {head!r} (block/surgery/blowup/sum/expect)",
                lineno)
    return Manifest(tuple(items))


# --- canonical form ---------------------------------------------------------

def _format_value(v: Value) -> str:
    tag, x = v
    if tag == "int":
        return str(x)
    if tag == "str":
        return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if tag == "bool":
        return "true" if x else "false"
    return x                                   # ref


def format_manifest(m: Manifest) -> str:
    lines = []
    for item in m.items:
        pairs = item.args if isinstance(item, Definition) else item.checks
        parts = ", ".join(f"{k}={_format_value(v)}" for k, v in pairs)
        lines.append(f"{item.kind} {item.name} = {item.ctor}({parts})"
                     if isinstance(item, Definition)
                     else f"expect {item.name}: {parts}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- evaluation ---------------------------------------------------------------

class CheckOutcome(Record):
    """`passed` is True (the check held), False (refuted) or None
    (undetermined: the check reads an inconclusive certificate)."""

    __slots__ = ("manifold", "key", "expected", "actual", "passed")

    def __init__(self, manifold: str, key: str, expected: Any, actual: Any,
                 passed: bool | None) -> None:
        set_field(self, "manifold", manifold)
        set_field(self, "key", key)
        set_field(self, "expected", expected)
        set_field(self, "actual", actual)
        set_field(self, "passed", passed)


class RunResult(Record):
    __slots__ = ("manifolds", "outcomes", "certificates")

    def __init__(self, manifolds: dict[str, MarkedManifold],
                 outcomes: list[CheckOutcome],
                 certificates: dict[str, Certificate]) -> None:
        set_field(self, "manifolds", manifolds)
        set_field(self, "outcomes", outcomes)
        set_field(self, "certificates", certificates)


def _describe_target(cert: Certificate) -> str:
    return (target_of(cert.verdict, cert.order)
            or f"inconclusive ({cert.reason})")


def run_manifest(m: Manifest, budget: Budget | None = None) -> RunResult:
    """Build every definition, evaluate every expectation.

    Each pi1 expectation certifies the manifold once (the certificate is
    verified with the independent checker before it is trusted) and the
    gen/model checks of the same expectation line reuse that certificate.
    """
    budget = budget if budget is not None else Budget()
    env: dict[str, MarkedManifold] = {}
    outcomes: list[CheckOutcome] = []
    certificates: dict[str, Certificate] = {}

    for item in m.items:
        if isinstance(item, Definition):
            kwargs = {}
            for key, (tag, val) in item.args:
                if tag == "ref":
                    if val not in env:
                        raise ManifestError(
                            f"reference to undefined manifold {val!r}",
                            item.line)
                    val = env[val]
                kwargs[key] = val
            try:
                env[item.name] = _callee(item.kind, item.ctor)(**kwargs)
            except (ValueError, KeyError) as exc:
                raise ManifestError(f"building {item.name!r}: {exc}",
                                    item.line) from exc
            continue

        M = env[item.name]
        keys = dict(item.checks)
        from_cert: dict[str, Any] = {}      # actual of the pi1/gen/model checks
        if keys.keys() & _FROM_CERTIFICATE:
            target = None
            if "pi1" in keys:
                tag, target = keys["pi1"]
                try:
                    if tag != "str":
                        raise ValueError(target)
                    parse_target(target)
                except ValueError:
                    raise ManifestError('pi1 expects "trivial", "Z" or '
                                        '"Z/<n>" with n >= 2', item.line) from None
            cert = certify(M.pi1, target=target, budget=budget)
            if cert.is_definite:
                checker.replay(cert, M.pi1)   # trust nothing unreplayed
            certificates[item.name] = cert
            from_cert = {"pi1": _describe_target(cert), "gen": cert.generator}
            if "model" in keys:
                try:
                    from_cert["model"] = freedman_model(M, cert).describe()
                except GeographyError as exc:
                    from_cert["model"] = f"unavailable ({exc})"

        for key, (tag, val) in item.checks:
            actual = _MEASURES[key](M) if key in _MEASURES else from_cert[key]
            undetermined = key in from_cert and not cert.is_definite
            outcomes.append(CheckOutcome(
                manifold=item.name, key=key, expected=val, actual=actual,
                passed=None if undetermined else actual == val))
    return RunResult(env, outcomes, certificates)


def report_json(m: Manifest, result: RunResult) -> dict[str, Any]:
    """Deterministic report: no timestamps, no paths, no machine state."""
    defs = []
    for item in m.items:
        if not isinstance(item, Definition):
            continue
        M = result.manifolds[item.name]
        defs.append({
            "name": item.name,
            "kind": item.kind,
            "manifold": M.name,
            "euler": M.euler,
            "signature": M.signature,
            "parity": M.parity,
            "symplectic": M.symplectic,
            "minimal": M.minimal,
            "generators": len(M.pi1.generators),
            "relators": len(M.pi1.relators),
            "conditional": len(M.pi1.conditional),
            "meridional": len(M.pi1.meridional),
        })
    checks = [{
        "manifold": o.manifold,
        "key": o.key,
        "expected": o.expected,
        "actual": o.actual,
        "pass": o.passed is True,
    } for o in result.outcomes]
    return {
        "schema": "m4kit.report/1",
        "definitions": defs,
        "checks": checks,
        "certificates": {name: cert.to_json()
                         for name, cert in sorted(result.certificates.items())},
        "summary": {
            "checks": len(checks),
            "passed": sum(1 for c in checks if c["pass"]),
            "failed": sum(1 for c in checks if not c["pass"]),
        },
    }
