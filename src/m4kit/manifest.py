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
from dataclasses import dataclass, field
from typing import Any, Callable

from . import checker
from .blocks import CATALOG, MarkedManifold
from .certify import Budget, certify
from .geography import GeographyError, coords, freedman_model, in_odd_region
# the operations are looked up in globals() when a definition calls them
from .surgery import blow_up, fiber_sum, torus_surgery
from .trace import Certificate, INCONCLUSIVE, parse_target, target_of


class ManifestError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


# --- values and argument binding -------------------------------------------

# A value is a tagged pair: ("int", 5) | ("str", "x") | ("bool", True)
# | ("ref", "name").
Value = tuple[str, Any]

_TOKEN_RE = re.compile(r"""
    \s*(?:
      (?P<int>-?\d+)
    | (?P<str>"(?:[^"\\]|\\.)*")
    | (?P<name>[A-Za-z_][A-Za-z0-9_/']*)
    | (?P<punct>[=(),:])
    )
""", re.VERBOSE)


def _tokenize(text: str, line: int) -> list[tuple[str, Any]]:
    out: list[tuple[str, Any]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ManifestError(f"cannot tokenize {rest[:20]!r}", line)
        pos = m.end()
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int"))))
        elif m.lastgroup == "str":
            body = m.group("str")[1:-1]
            out.append(("str", body.replace('\\"', '"').replace("\\\\", "\\")))
        elif m.lastgroup == "name":
            word = m.group("name")
            if word in ("true", "false"):
                out.append(("bool", word == "true"))
            else:
                out.append(("name", word))
        else:
            out.append(("punct", m.group("punct")))
    return out


@dataclass(frozen=True)
class Definition:
    kind: str                 # block | surgery | blowup | sum
    name: str
    ctor: str                 # catalog name or operation name
    args: tuple[tuple[str | None, Value], ...]
    line: int = field(default=0, compare=False)   # line numbers don't count


@dataclass(frozen=True)
class Expectation:
    name: str
    checks: tuple[tuple[str, Value], ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Manifest:
    items: tuple[Definition | Expectation, ...]


# --- parsing ----------------------------------------------------------------

_KINDS = ("block", "surgery", "blowup", "sum")
_OPERATION = {"surgery": "torus_surgery", "blowup": "blow_up",
              "sum": "fiber_sum"}
_EXPECT_KEYS = ("e", "sigma", "parity", "symplectic", "pi1", "gen", "model",
                "region")


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


def _strip_comment(raw: str) -> str:
    """Drop a trailing # comment, but not a # inside a quoted string."""
    in_str = False
    i = 0
    while i < len(raw):
        ch = raw[i]
        if in_str and ch == "\\":
            i += 1
        elif ch == '"':
            in_str = not in_str
        elif ch == "#" and not in_str:
            return raw[:i]
        i += 1
    return raw


def parse_manifest(text: str) -> Manifest:
    items: list[Definition | Expectation] = []
    defined: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).strip()
        if not stripped:
            continue
        cur = _Cursor(_tokenize(stripped, lineno), lineno)
        head = cur.expect_name("a directive")
        if head in _KINDS:
            name = cur.expect_name("a manifold name")
            cur.expect_punct("=")
            ctor = cur.expect_name("a constructor")
            args = _parse_args(cur)
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
        if isinstance(item, Definition):
            parts = [(f"{k}={_format_value(v)}" if k else _format_value(v))
                     for k, v in item.args]
            lines.append(f"{item.kind} {item.name} = "
                         f"{item.ctor}({', '.join(parts)})")
        else:
            parts = [f"{k}={_format_value(v)}" for k, v in item.checks]
            lines.append(f"expect {item.name}: {', '.join(parts)}")
    return "\n".join(lines) + ("\n" if lines else "")


# --- argument schemas and evaluation ----------------------------------------

# (parameter name, value tag, required, default)
_Schema = tuple[tuple[str, str, bool, Any], ...]

# parameter annotation -> value tag
_TAGS = {int: "int", str: "str", str | None: "str", MarkedManifold: "ref"}


def _callee(d: Definition) -> Callable[..., MarkedManifold]:
    """The function a definition calls, looked up at call time: a block
    through CATALOG, an operation through this module's globals."""
    if d.kind == "block":
        return CATALOG[d.ctor]
    return globals()[_OPERATION[d.kind]]


@functools.cache
def _schema(fn: Callable[..., MarkedManifold]) -> _Schema:
    """The arguments fn takes in a manifest, read from its signature."""
    return tuple(
        (p.name, _TAGS[p.annotation], p.default is p.empty,
         None if p.default is p.empty else p.default)
        for p in inspect.signature(fn, eval_str=True).parameters.values())


def _bind(schema: _Schema, args: tuple[tuple[str | None, Value], ...],
          what: str, line: int) -> dict[str, Any]:
    names = [s[0] for s in schema]
    bound: dict[str, Any] = {}
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
        bound[key] = val
    for name, _, required, default in schema:
        if name not in bound:
            if required:
                raise ManifestError(f"{what}: missing argument {name!r}", line)
            bound[name] = default
    return bound


def canonicalize(m: Manifest) -> Manifest:
    """Normalize every definition to fully-keyworded, default-filled form.
    format_manifest(canonicalize(m)) is a fixed point of parse/format."""
    items: list[Definition | Expectation] = []
    for item in m.items:
        if not isinstance(item, Definition):
            items.append(item)
            continue
        schema = _schema(_callee(item))
        bound = _bind(schema, item.args, item.ctor, item.line)
        args = []
        for name, tag, _, _ in schema:
            if bound[name] is None and tag == "str":
                continue                       # omitted optional (prefix)
            args.append((name, (tag, bound[name])))
        items.append(Definition(item.kind, item.name, item.ctor,
                                tuple(args), item.line))
    return Manifest(tuple(items))


def _build_definition(d: Definition, env: dict[str, MarkedManifold],
                      ) -> MarkedManifold:
    def ref(name: str) -> MarkedManifold:
        if name not in env:
            raise ManifestError(f"reference to undefined manifold {name!r}",
                                d.line)
        return env[name]

    fn = _callee(d)
    schema = _schema(fn)
    bound = _bind(schema, d.args, d.ctor, d.line)
    for name, tag, _, _ in schema:
        if tag == "ref":
            bound[name] = ref(bound[name])
    return fn(**bound)


@dataclass(frozen=True)
class CheckOutcome:
    manifold: str
    key: str
    expected: Any
    actual: Any
    passed: bool
    budget_limited: bool = False


@dataclass
class RunResult:
    manifolds: dict[str, MarkedManifold]
    outcomes: list[CheckOutcome]
    certificates: dict[str, Certificate]

    @property
    def ok(self) -> bool:
        return all(o.passed for o in self.outcomes)

    @property
    def budget_limited(self) -> bool:
        return any(o.budget_limited and not o.passed for o in self.outcomes)


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
            try:
                env[item.name] = _build_definition(item, env)
            except ManifestError:
                raise
            except (ValueError, KeyError) as exc:
                raise ManifestError(f"building {item.name!r}: {exc}",
                                    item.line) from exc
            continue

        M = env[item.name]
        keys = dict(item.checks)
        # (actual, budget_limited) of the pi1, gen and model checks
        from_cert: dict[str, tuple[Any, bool]] = {}
        if {"pi1", "gen", "model"} & set(keys):
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
            inconclusive = cert.verdict == INCONCLUSIVE
            from_cert = {"pi1": (_describe_target(cert), inconclusive),
                         "gen": (cert.generator, False)}
            if "model" in keys:
                try:
                    from_cert["model"] = (freedman_model(M, cert).describe(),
                                          False)
                except GeographyError as exc:
                    from_cert["model"] = (f"unavailable ({exc})", inconclusive)

        for key, (tag, val) in item.checks:
            actual: Any
            limited = False
            if key in from_cert:
                actual, limited = from_cert[key]
            elif key == "e":
                actual = M.euler
            elif key == "sigma":
                actual = M.signature
            elif key == "parity":
                actual = M.parity
            elif key == "symplectic":
                actual = M.symplectic
            else:                              # region
                actual = in_odd_region(coords(M.euler, M.signature))
            outcomes.append(CheckOutcome(
                manifold=item.name, key=key, expected=val, actual=actual,
                passed=(actual == val), budget_limited=limited))
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
        "pass": o.passed,
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
