"""The certificate format: replayable derivation steps, the certificate
that carries them, the verdict and target names, the rules for what a
verdict means, and the JSON codec.  The engine writes this format and the
checker reads it; it depends on words and presentations only, so the
checker depends on no engine module.

Every move the certification engine makes is recorded as one of the
steps below.  Steps reference relators by *value* (the freely- and cyclically-
reduced word as it stands at that moment), never by index, so a checker
that maintains its own copy of the state can find, verify and apply each
step using word algebra alone.

Soundness contracts (P = presentation state before the step):

* PairFromRelator(x, y, relator): `relator` is in P and is, up to cyclic
  rotation and inversion, a commutator of the single letters x^e, y^f.
  Records that x and y commute in the presented group.

* PairFromDefinition(gen, other, relator): `relator` is in P, mentions
  `gen` exactly once, and rewrites to gen = definition where every letter
  of the definition already commutes with `other`.  Hence gen does too.

* CommutationCancel(before, after, rotation, i, j, x): `before` is in P;
  after rotating it by `rotation`, positions i < j hold x^e and x^-e and
  every letter strictly between commutes with x.  Deleting the pair (and
  reducing) yields `after`, which replaces `before`.

* Eliminate(gen, definition, via): `via` is in P, mentions `gen` exactly
  once and rewrites to gen = definition (which avoids gen).  The relator
  is dropped, the generator removed, and the definition substituted into
  every relator, conditional relator and key.  The kill of a generator
  (relator g^±1) is the definition-is-empty case.

* Kill(relators): at least two relators of P, each one letter g^±1, no
  two on the same generator.  The first copy of each is dropped, and one
  substitution, sending every one of those generators to 1, is applied to
  each relator that mentions any of them (then reduced cyclically once),
  to every conditional relator and to every key; the generators and every
  proved pair that names one are removed.  This is sound because killing
  one generator cannot change another generator's one-letter relator: each
  kill in turn is a single Tietze elimination with an empty definition, and
  applying them one after the other sends every word to the same element
  of the free group as the simultaneous map, so each relator ends up the
  same up to cyclic rotation (a cyclic reduction between kills can rotate
  it differently: killing x and then y in a^-1 y^-1 a y^-1 b a x^2 leaves
  a b, killing both at once leaves b a).  Replay must therefore apply the
  one simultaneous map, as the engine does.

* ReplaceSubword(before, after, via, via_rotation, via_inverted, split,
  at): `via` is a *different* relator of P; rotating (and possibly
  inverting) it and splitting at `split` gives via' = s t with |s| > |t|.
  Since s = t^-1 in the group, the occurrence of s at position `at` of
  `before` may be replaced by t^-1, giving the shorter `after`.

* ActivateConditional(relator): a conditional relator whose current form
  is `relator` and whose current key word is freely trivial is promoted
  to an ordinary relator.

* DischargeMeridional(label): the tier's current key word is freely
  trivial, so its symbolic generators are all trivial; drop the tier.

Bookkeeping shared by engine and checker (not recorded as steps): relators
are kept freely and cyclically reduced at all times, empty relators are
dropped, and a conditional relator whose current form is empty is dropped
as vacuous.  Keys are only freely reduced.  A rewrite keeps the relator's
place, an activated relator comes last, and a step that names a relator
held more than once acts on its first copy.

A certificate's fields are its class's `__slots__`, in order, and one
table maps the annotation of each in the class's constructor to its JSON
type, for steps and certificates alike: words and presentations are
text, tuples are lists and a step is an object that names its kind.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from .presentation import (
    FpPresentation,
    PresentationError,
    core_presentation,
    format_presentation,
    parse_presentation,
)
from .words import (
    Record,
    Word,
    WordSyntaxError,
    format_word,
    parse_word,
    set_field,
)

TRIVIAL = "trivial"
INFINITE_CYCLIC = "infinite_cyclic"
FINITE_CYCLIC = "finite_cyclic"
INCONCLUSIVE = "inconclusive"

_SCHEMA = "m4kit.certificate/2"
# the schema before Kill, still read: the same format without that step
_SCHEMA_1 = "m4kit.certificate/1"


class CertificateFormatError(ValueError):
    """Certificate JSON that does not decode: wrong schema, verdict or
    target, unknown step kind, missing field or a field of the wrong type."""


class PairFromRelator(Record):
    __slots__ = ("x", "y", "relator")

    def __init__(self, x: str, y: str, relator: Word) -> None:
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "relator", relator)


class PairFromDefinition(Record):
    __slots__ = ("gen", "other", "relator")

    def __init__(self, gen: str, other: str, relator: Word) -> None:
        set_field(self, "gen", gen)
        set_field(self, "other", other)
        set_field(self, "relator", relator)


class CommutationCancel(Record):
    __slots__ = ("before", "after", "rotation", "i", "j", "x")

    def __init__(self, before: Word, after: Word, rotation: int, i: int,
                 j: int, x: str) -> None:
        set_field(self, "before", before)
        set_field(self, "after", after)
        set_field(self, "rotation", rotation)
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "x", x)


class Eliminate(Record):
    __slots__ = ("gen", "definition", "via")

    def __init__(self, gen: str, definition: Word, via: Word) -> None:
        set_field(self, "gen", gen)
        set_field(self, "definition", definition)
        set_field(self, "via", via)


class Kill(Record):
    __slots__ = ("relators",)

    def __init__(self, relators: tuple[Word, ...]) -> None:
        set_field(self, "relators", relators)


class ReplaceSubword(Record):
    __slots__ = ("before", "after", "via", "via_rotation", "via_inverted",
                 "split", "at")

    def __init__(self, before: Word, after: Word, via: Word,
                 via_rotation: int, via_inverted: bool, split: int,
                 at: int) -> None:
        set_field(self, "before", before)
        set_field(self, "after", after)
        set_field(self, "via", via)
        set_field(self, "via_rotation", via_rotation)
        set_field(self, "via_inverted", via_inverted)
        set_field(self, "split", split)
        set_field(self, "at", at)


class ActivateConditional(Record):
    __slots__ = ("relator",)

    def __init__(self, relator: Word) -> None:
        set_field(self, "relator", relator)


class DischargeMeridional(Record):
    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        set_field(self, "label", label)


TraceStep = (PairFromRelator | PairFromDefinition | CommutationCancel
             | Eliminate | Kill | ReplaceSubword | ActivateConditional
             | DischargeMeridional)

_KINDS = {
    "pair_from_relator": PairFromRelator,
    "pair_from_definition": PairFromDefinition,
    "commutation_cancel": CommutationCancel,
    "eliminate": Eliminate,
    "kill": Kill,
    "replace_subword": ReplaceSubword,
    "activate_conditional": ActivateConditional,
    "discharge_meridional": DischargeMeridional,
}
_NAMES = {cls: name for name, cls in _KINDS.items()}


class Certificate(Record):
    __slots__ = ("verdict", "generator", "order", "reason", "presentation",
                 "final", "trace", "activated", "h1_rank", "h1_torsion",
                 "coset_index", "coset_subgroup", "steps_used", "target",
                 "matches_target")

    def __init__(self, verdict: str, generator: str | None,
                 order: int | None, reason: str | None,
                 presentation: FpPresentation, final: FpPresentation,
                 trace: tuple[TraceStep, ...], activated: tuple[Word, ...],
                 h1_rank: int | None, h1_torsion: tuple[int, ...] | None,
                 coset_index: int | None,
                 coset_subgroup: tuple[str, ...] | None, steps_used: int,
                 target: str | None, matches_target: bool | None) -> None:
        set_field(self, "verdict", verdict)
        set_field(self, "generator", generator)
        set_field(self, "order", order)
        set_field(self, "reason", reason)
        set_field(self, "presentation", presentation)
        set_field(self, "final", final)
        set_field(self, "trace", trace)
        set_field(self, "activated", activated)
        set_field(self, "h1_rank", h1_rank)
        set_field(self, "h1_torsion", h1_torsion)
        set_field(self, "coset_index", coset_index)
        set_field(self, "coset_subgroup", coset_subgroup)
        set_field(self, "steps_used", steps_used)
        set_field(self, "target", target)
        set_field(self, "matches_target", matches_target)

    @property
    def is_definite(self) -> bool:
        return self.verdict != INCONCLUSIVE

    def core(self) -> FpPresentation:
        """The input relators plus the activated conditionals: a
        presentation that the true group genuinely satisfies."""
        return core_presentation(self.presentation, self.activated)

    def describe(self) -> str:
        target = target_of(self.verdict, self.order)
        if target is None:
            return f"inconclusive: {self.reason}"
        return target + (f" (generated by {self.generator})"
                         if self.generator else "")

    def to_json(self) -> dict[str, Any]:
        return {"schema": _SCHEMA, **_fields_to_json(self)}

    @staticmethod
    def from_json(data: Any) -> Certificate:
        """Decode to_json() output, or a `/1` certificate.  Raises
        CertificateFormatError on a wrong schema, verdict or target, a
        missing field, a wrongly typed value or a `/1` trace with a kill."""
        schema = json_field(data, "schema", "certificate", str)
        if schema not in (_SCHEMA, _SCHEMA_1):
            raise CertificateFormatError(f"unknown schema {schema!r}")
        cert = Certificate(**_fields_from_json(Certificate, data, "certificate"))
        if schema == _SCHEMA_1 and any(type(s) is Kill for s in cert.trace):
            raise CertificateFormatError(
                f"trace step kind 'kill' is not in schema {schema!r}")
        if cert.verdict not in (TRIVIAL, INFINITE_CYCLIC, FINITE_CYCLIC,
                                INCONCLUSIVE):
            raise CertificateFormatError(f"unknown verdict {cert.verdict!r}")
        if cert.target is not None:
            try:
                parse_target(cert.target)
            except ValueError as exc:
                raise CertificateFormatError(str(exc)) from None
        return cert


# -- what a verdict means ---------------------------------------------------

_TARGETS = {TRIVIAL: "trivial", INFINITE_CYCLIC: "Z"}


def target_of(verdict: str, order: int | None) -> str | None:
    """The target a verdict meets: "trivial", "Z" or "Z/n"; None when
    inconclusive."""
    return f"Z/{order}" if verdict == FINITE_CYCLIC else _TARGETS.get(verdict)


def h1_of(verdict: str, order: int | None) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of the group a definite verdict names."""
    if verdict == FINITE_CYCLIC:
        return 0, (order,)
    return {TRIVIAL: 0, INFINITE_CYCLIC: 1}[verdict], ()


def coset_subgroup_of(verdict: str, generator: str | None) -> tuple[str, ...]:
    """The subgroup whose coset index a definite verdict makes 1: the
    trivial one, or the cyclic verdict's generator."""
    return () if verdict == TRIVIAL else (generator,)


def parse_target(text: str) -> str:
    """Return text if it is a target: "trivial", "Z" or "Z/n" with n >= 2
    written without leading zeros.  Raises ValueError otherwise."""
    if text in _TARGETS.values() or re.fullmatch(r"Z/([2-9]|[1-9]\d+)", text):
        return text
    raise ValueError(f"unknown target {text!r} (expected trivial, Z, or Z/n "
                     "with n >= 2)")


# -- the JSON codec ---------------------------------------------------------

def _to_json(v: Any) -> Any:
    if isinstance(v, Word):
        return format_word(v)
    if isinstance(v, FpPresentation):
        return format_presentation(v)
    if isinstance(v, tuple):
        return [_to_json(x) for x in v]
    if type(v) in _NAMES:
        return {"kind": _NAMES[type(v)], **_fields_to_json(v)}
    return v


def _fields_to_json(obj: Any) -> dict[str, Any]:
    """The fields of a step or certificate, in order, as JSON values."""
    return {f: _to_json(getattr(obj, f)) for f in obj.__slots__}


def json_field(data: Any, key: str, what: str, *kinds: type) -> Any:
    """data[key], whose exact JSON type must be one of `kinds`."""
    if not isinstance(data, dict) or key not in data:
        raise CertificateFormatError(f"{what} lacks field {key!r}")
    v = data[key]
    if type(v) not in kinds:
        raise CertificateFormatError(
            f"{what} field {key!r} is {type(v).__name__}, expected "
            + " or ".join(k.__name__ for k in kinds))
    return v


def step_from_json(data: Any) -> TraceStep:
    kind = json_field(data, "kind", "trace step", str)
    if kind not in _KINDS:
        raise CertificateFormatError(f"unknown trace step kind {kind!r}")
    cls = _KINDS[kind]
    return cls(**_fields_from_json(cls, data, kind))


# each type a field annotation names -> (its JSON type, the decoder of a
# value of that type); a JSON scalar decodes to itself.  An annotation is
# T, T | None, tuple[T, ...] (a JSON list) or tuple[T, ...] | None.
_JSON_TYPES: dict[str, tuple[type, Callable[[Any], Any]]] = {
    "str": (str, str), "int": (int, int), "bool": (bool, bool),
    "Word": (str, parse_word), "FpPresentation": (str, parse_presentation),
    "TraceStep": (dict, step_from_json),
}


def _fields_from_json(cls: type, data: Any, what: str) -> dict[str, Any]:
    """The fields of step or certificate class `cls`, each decoded from
    data by its constructor's annotation."""
    out = {}
    annotations = cls.__init__.__annotations__
    for key in cls.__slots__:
        spec = annotations[key]
        base = spec.removesuffix(" | None")
        nulls = (type(None),) if base != spec else ()
        item = base.removeprefix("tuple[").removesuffix(", ...]")
        kind, decode = _JSON_TYPES[item]
        v = json_field(data, key, what, kind if item == base else list, *nulls)
        if item != base and v is not None and \
                any(type(x) is not kind for x in v):
            raise CertificateFormatError(
                f"{what} field {key!r} must list {kind.__name__} values")
        try:
            out[key] = (v if v is None else decode(v) if item == base
                        else tuple(map(decode, v)))
        except (PresentationError, WordSyntaxError) as exc:
            raise CertificateFormatError(f"{what} field {key!r}: {exc}") from None
    return out
