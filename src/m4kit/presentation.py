"""Finite presentations with surgery-flavoured extras.

Beyond generators and relators, a presentation here can carry two kinds
of side data that the rest of the package leans on:

* ``meridional`` tiers — a symbolic marker for a family of unnamed extra
  generators, every one of which is a conjugate of a fixed
  boundary circle (the *key* word).  Such generators die in any quotient
  where the key dies, so we never materialise them; a tier is discharged
  once the key word has been proved trivial.

* ``conditional`` relators — relations known to hold *provided* a key
  word is trivial.  They typically record a curve identification that was
  computed only up to multiplication by a boundary circle.  The
  certification engine may activate one only after the key's image has
  become freely trivial.

All types are immutable; operations return new presentations.

Every word is validated once, where it enters.  The constructor, and so
the text parser, the block constructors and certificate decoding, checks
that generator names and tier labels follow the name rule and that every
letter names a generator with sign +1 or -1.  A presentation derived from
valid ones (strip_meridional, without_relator, relator_to_tier, glued,
core_presentation, replace_relator, with_prefix) relies on their
validity: it keeps their words unchecked, checks only the words and
names it adds, and raises the message the constructor would.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from .words import (
    NAME_RE,
    Record,
    Word,
    WordSyntaxError,
    format_word,
    gen,
    parse_word,
    rotate,
    set_field,
    substitute,
)


class PresentationError(ValueError):
    pass


class MeridionalTier(Record):
    """Symbolic stand-in for finitely many extra generators, each conjugate
    to the key word.  The count is deliberately not stored: no downstream
    argument may depend on it."""

    __slots__ = ("label", "key")

    def __init__(self, label: str, key: Word) -> None:
        set_field(self, "label", label)
        set_field(self, "key", key)


class ConditionalRelator(Record):
    """A relator valid in any quotient where `key` is trivial."""

    __slots__ = ("relator", "key")

    def __init__(self, relator: Word, key: Word) -> None:
        set_field(self, "relator", relator)
        set_field(self, "key", key)


_name, _sign = itemgetter(0), itemgetter(1)
_SIGNS = frozenset((1, -1))


def _check_word(w: Word, what: str, generators: set[str]) -> None:
    if not generators.issuperset(map(_name, w.letters)):
        raise PresentationError(
            f"{what} {format_word(w)!r} uses unknown generators "
            f"{sorted(w.names() - generators)}")
    try:
        signed = _SIGNS.issuperset(map(_sign, w.letters))
    except TypeError:           # an unhashable sign is not +1 or -1 either
        signed = False
    if not signed:
        raise PresentationError(
            f"{what} {format_word(w)!r} has a sign other than +1 or -1")


def _check_words(generators: set[str], relators: Iterable[Word] = (),
                 conditional: Iterable[ConditionalRelator] = (),
                 meridional: Iterable[MeridionalTier] = ()) -> None:
    """Raise PresentationError at the first fault: relators, conditionals
    (relator, then key), tiers (label, then key); in a word, names before
    signs."""
    for w in relators:
        _check_word(w, "relator", generators)
    for c in conditional:
        _check_word(c.relator, "conditional relator", generators)
        _check_word(c.key, "conditional key", generators)
    for t in meridional:
        _check_label(t.label)
        _check_word(t.key, f"meridional key for {t.label!r}", generators)


def _check_label(label: str) -> None:
    if not NAME_RE.fullmatch(label):
        raise PresentationError(f"bad tier label {label!r}")


class FpPresentation(Record):
    __slots__ = ("generators", "relators", "conditional", "meridional")

    def __init__(self, generators: tuple[str, ...] = (),
                 relators: tuple[Word, ...] = (),
                 conditional: tuple[ConditionalRelator, ...] = (),
                 meridional: tuple[MeridionalTier, ...] = ()) -> None:
        seen: set[str] = set()
        for g in generators:
            if not NAME_RE.fullmatch(g):
                raise PresentationError(f"bad generator name {g!r}")
            if g in seen:
                raise PresentationError(f"duplicate generator {g!r}")
            seen.add(g)
        _check_words(seen, relators, conditional, meridional)
        set_field(self, "generators", generators)
        set_field(self, "relators", relators)
        set_field(self, "conditional", conditional)
        set_field(self, "meridional", meridional)

    # -- small immutable transforms ---------------------------------------

    def replace_relator(self, old: Word, new: Word) -> "FpPresentation":
        p = self._spliced(old, new)
        _check_word(new, "relator", set(self.generators))
        return p

    def without_relator(self, old: Word) -> "FpPresentation":
        """Drop the first copy of relator `old`."""
        return self._spliced(old)

    def _spliced(self, old: Word, *new: Word) -> "FpPresentation":
        rels = list(self.relators)
        try:
            i = rels.index(old)
        except ValueError:
            raise PresentationError(f"relator {format_word(old)!r} not present")
        rels[i:i + 1] = new
        return _derived(self.generators, tuple(rels), self.conditional,
                        self.meridional)

    def relator_to_tier(self, label: str, relator: Word) -> "FpPresentation":
        """Drop the first copy of `relator` and add a tier keyed on it: a
        meridian that dies in the closed manifold, seen from the surface
        complement.  The key was checked as a relator."""
        rest = self.without_relator(relator)
        _check_label(label)
        return _derived(rest.generators, rest.relators, rest.conditional,
                        rest.meridional + (MeridionalTier(label, relator),))

    def strip_meridional(self) -> "FpPresentation":
        return _derived(self.generators, self.relators, self.conditional, ())

    def glued(self, other: "FpPresentation", relators: tuple[Word, ...] = (),
              conditional: tuple[ConditionalRelator, ...] = (),
              ) -> "FpPresentation":
        """self and other side by side, their alphabets disjoint, then
        `relators` and `conditional`, words over both alphabets."""
        known = set(self.generators)
        for g in other.generators:
            if g in known:
                raise PresentationError(f"duplicate generator {g!r}")
        known.update(other.generators)
        _check_words(known, relators, conditional)
        return _derived(self.generators + other.generators,
                        self.relators + other.relators + relators,
                        self.conditional + other.conditional + conditional,
                        self.meridional + other.meridional)

    def with_prefix(self, prefix: str) -> "FpPresentation":
        """Prefix every generator name and tier label, rewriting every word
        to match.  This is the one rename."""
        images = {g: gen(prefix + g) for g in self.generators}

        def sub(w: Word) -> Word:
            return substitute(w, images)

        for t in self.meridional:
            _check_label(prefix + t.label)
        return _derived(
            tuple(prefix + g for g in self.generators),
            tuple(sub(r) for r in self.relators),
            tuple(ConditionalRelator(sub(c.relator), sub(c.key))
                  for c in self.conditional),
            tuple(MeridionalTier(prefix + t.label, sub(t.key))
                  for t in self.meridional))

    def __str__(self) -> str:
        return format_presentation(self)


def _derived(generators: tuple[str, ...], relators: tuple[Word, ...],
             conditional: tuple[ConditionalRelator, ...],
             meridional: tuple[MeridionalTier, ...]) -> FpPresentation:
    """The presentation of these fields, every one of which must already
    be valid together, built without checking them again.  This is the
    one way round the checking constructor; it stays private to this
    module, behind transforms that check whatever they add."""
    p = object.__new__(FpPresentation)
    set_field(p, "generators", generators)
    set_field(p, "relators", relators)
    set_field(p, "conditional", conditional)
    set_field(p, "meridional", meridional)
    return p


def core_presentation(p: FpPresentation,
                      activated: Iterable[Word]) -> FpPresentation:
    """The conditional-free core that coset corroboration runs on: p's
    generators and relators plus every activated conditional relator."""
    activated = tuple(activated)
    # certify activates conditional relators of p, which are valid
    valid = [c.relator for c in p.conditional]
    _check_words(set(p.generators), [w for w in activated if w not in valid])
    return _derived(p.generators, p.relators + activated, (), ())


def defining_rotation(r: Word, name: str) -> Word | None:
    """If relator r mentions `name` exactly once, return the definition
    (which avoids `name`) such that r = 1 is equivalent to
    name = definition.  Otherwise None."""
    if r.occurrences(name) != 1:
        return None
    k = next(i for i, (n, _) in enumerate(r.letters) if n == name)
    rot = rotate(r, k)          # now rot[0] is (name, e)
    tail = Word(rot.letters[1:])
    return tail.inverse() if rot.letters[0][1] > 0 else tail


# -- text form -------------------------------------------------------------
#
# Line oriented: one `kind: ...` line per generator list, relator,
# conditional relator and tier, exactly as format_presentation writes them,
# so parsing reads back every presentation, empty relators included.  This
# is the fixture/display format, not the manifest DSL.

def format_presentation(p: FpPresentation) -> str:
    lines = ["generators: " + ", ".join(p.generators)]
    lines += [f"relator: {format_word(r)}" for r in p.relators]
    lines += [f"conditional: {format_word(c.relator)} : {format_word(c.key)}"
              for c in p.conditional]
    lines += [f"meridional: {t.label} : {format_word(t.key)}"
              for t in p.meridional]
    return "\n".join(lines)


def parse_presentation(text: str) -> FpPresentation:
    generators: tuple[str, ...] = ()
    relators: list[Word] = []
    conditional: list[ConditionalRelator] = []
    meridional: list[MeridionalTier] = []
    saw_generators = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        kind, sep, rest = line.partition(":")
        if not sep:
            raise PresentationError(f"line {lineno}: expected 'kind: ...'")
        kind = kind.strip()
        rest = rest.strip()
        try:
            if kind == "generators":
                if saw_generators:
                    raise PresentationError("repeated 'generators:' line")
                saw_generators = True
                generators = tuple(g.strip() for g in rest.split(",") if g.strip())
            elif kind == "relator":
                relators.append(parse_word(rest))
            elif kind == "conditional":
                rel_text, sep2, key_text = rest.rpartition(":")
                if not sep2:
                    raise PresentationError("conditional needs 'relator : key'")
                conditional.append(ConditionalRelator(parse_word(rel_text),
                                                      parse_word(key_text)))
            elif kind == "meridional":
                label, sep2, key_text = rest.partition(":")
                if not sep2:
                    raise PresentationError("meridional needs 'label : key'")
                meridional.append(MeridionalTier(label.strip(),
                                                 parse_word(key_text.strip())))
            else:
                raise PresentationError(f"unknown section {kind!r}")
        except (WordSyntaxError, PresentationError) as exc:
            raise PresentationError(f"line {lineno}: {exc}") from exc
    if not saw_generators:
        raise PresentationError("missing 'generators:' line")
    return FpPresentation(
        generators=generators,
        relators=tuple(relators),
        conditional=tuple(conditional),
        meridional=tuple(meridional),
    )
