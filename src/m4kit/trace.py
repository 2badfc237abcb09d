"""Replayable derivation steps.

Every move the certification engine makes is recorded as one of these
steps.  Steps reference relators by *value* (the freely- and cyclically-
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .words import Word, WordSyntaxError, format_word, parse_word


class CertificateFormatError(ValueError):
    """Certificate JSON that does not decode: wrong schema, unknown step
    kind, missing field or a field of the wrong type."""


@dataclass(frozen=True, slots=True)
class PairFromRelator:
    x: str
    y: str
    relator: Word


@dataclass(frozen=True, slots=True)
class PairFromDefinition:
    gen: str
    other: str
    relator: Word


@dataclass(frozen=True, slots=True)
class CommutationCancel:
    before: Word
    after: Word
    rotation: int
    i: int
    j: int
    x: str


@dataclass(frozen=True, slots=True)
class Eliminate:
    gen: str
    definition: Word
    via: Word


@dataclass(frozen=True, slots=True)
class ReplaceSubword:
    before: Word
    after: Word
    via: Word
    via_rotation: int
    via_inverted: bool
    split: int
    at: int


@dataclass(frozen=True, slots=True)
class ActivateConditional:
    relator: Word


@dataclass(frozen=True, slots=True)
class DischargeMeridional:
    label: str


TraceStep = (PairFromRelator | PairFromDefinition | CommutationCancel
             | Eliminate | ReplaceSubword | ActivateConditional
             | DischargeMeridional)

_KINDS = {
    "pair_from_relator": PairFromRelator,
    "pair_from_definition": PairFromDefinition,
    "commutation_cancel": CommutationCancel,
    "eliminate": Eliminate,
    "replace_subword": ReplaceSubword,
    "activate_conditional": ActivateConditional,
    "discharge_meridional": DischargeMeridional,
}
_NAMES = {cls: name for name, cls in _KINDS.items()}


def step_to_json(step: TraceStep) -> dict[str, Any]:
    out: dict[str, Any] = {"kind": _NAMES[type(step)]}
    for f in step.__dataclass_fields__:
        v = getattr(step, f)
        out[f] = format_word(v) if isinstance(v, Word) else v
    return out


# the JSON type of each step field type
_JSON_TYPES = {"Word": str, "str": str, "int": int, "bool": bool}


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
    kwargs = {}
    for f, spec in cls.__dataclass_fields__.items():
        v = json_field(data, f, kind, _JSON_TYPES[spec.type])
        try:
            kwargs[f] = parse_word(v) if spec.type == "Word" else v
        except WordSyntaxError as exc:
            raise CertificateFormatError(f"{kind} field {f!r}: {exc}") from None
    return cls(**kwargs)
