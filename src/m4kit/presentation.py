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
"""

from __future__ import annotations

from operator import itemgetter

from .words import (
    NAME_RE,
    Record,
    Word,
    WordSyntaxError,
    format_word,
    gen,
    parse_word,
    replace,
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
        for w in relators:
            _check_word(w, "relator", seen)
        for c in conditional:
            _check_word(c.relator, "conditional relator", seen)
            _check_word(c.key, "conditional key", seen)
        for t in meridional:
            if not NAME_RE.fullmatch(t.label):
                raise PresentationError(f"bad tier label {t.label!r}")
            _check_word(t.key, f"meridional key for {t.label!r}", seen)
        set_field(self, "generators", generators)
        set_field(self, "relators", relators)
        set_field(self, "conditional", conditional)
        set_field(self, "meridional", meridional)

    # -- small immutable transforms ---------------------------------------

    def replace_relator(self, old: Word, new: Word) -> "FpPresentation":
        rels = list(self.relators)
        try:
            i = rels.index(old)
        except ValueError:
            raise PresentationError(f"relator {format_word(old)!r} not present")
        rels[i] = new
        return replace(self, relators=tuple(rels))

    def with_meridional(self, label: str, key: Word) -> "FpPresentation":
        return replace(self, meridional=self.meridional
                       + (MeridionalTier(label, key),))

    def strip_meridional(self) -> "FpPresentation":
        return replace(self, meridional=())

    def with_prefix(self, prefix: str) -> "FpPresentation":
        """Prefix every generator name and tier label, rewriting every word
        to match.  This is the one rename."""
        images = {g: gen(prefix + g) for g in self.generators}

        def sub(w: Word) -> Word:
            return substitute(w, images)

        return FpPresentation(
            generators=tuple(prefix + g for g in self.generators),
            relators=tuple(sub(r) for r in self.relators),
            conditional=tuple(ConditionalRelator(sub(c.relator), sub(c.key))
                              for c in self.conditional),
            meridional=tuple(MeridionalTier(prefix + t.label, sub(t.key))
                             for t in self.meridional),
        )

    def __str__(self) -> str:
        return format_presentation(self)


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
