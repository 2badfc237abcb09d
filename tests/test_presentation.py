"""Presentations: validation, the small immutable transforms,
meridional tiers, conditional relators, and the text round-trip."""

import pytest
from hypothesis import given, settings, strategies as st

from m4kit.presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    PresentationError,
    core_presentation,
    defining_rotation,
    format_presentation,
    parse_presentation,
)
from m4kit.words import (
    NAME_RE,
    Word,
    WordSyntaxError,
    commutator,
    format_word,
    gen,
    parse_word,
    substitute,
)

AB = FpPresentation(("a", "b"), (commutator(gen("a"), gen("b")),))


def test_validation_rejects_unknown_generator_in_relator():
    with pytest.raises(PresentationError) as exc:
        FpPresentation(("a",), (parse_word("a b"),))
    assert str(exc.value) == "relator 'a b' uses unknown generators ['b']"


def test_validation_rejects_duplicate_generator():
    with pytest.raises(PresentationError):
        FpPresentation(("a", "a"))


def test_validation_covers_conditional_and_tier_keys():
    with pytest.raises(PresentationError) as exc:
        FpPresentation(("a",), conditional=(
            ConditionalRelator(gen("a"), parse_word("q")),))
    assert str(exc.value) == "conditional key 'q' uses unknown generators ['q']"
    with pytest.raises(PresentationError) as exc:
        FpPresentation(("a",), conditional=(
            ConditionalRelator(parse_word("a q"), gen("a")),))
    assert str(exc.value) == (
        "conditional relator 'a q' uses unknown generators ['q']")
    with pytest.raises(PresentationError) as exc:
        FpPresentation(("a",), meridional=(MeridionalTier("t", gen("z")),))
    assert str(exc.value) == (
        "meridional key for 't' 'z' uses unknown generators ['z']")


# a label outside the name rule would write a certificate that does not
# decode, or one whose decoded label no longer matches its discharge step
@pytest.mark.parametrize("label", [" t", "a:b", "a\nb"])
def test_validation_rejects_bad_tier_label(label):
    with pytest.raises(PresentationError):
        FpPresentation(("a",), meridional=(MeridionalTier(label, gen("a")),))


# Inputs with two faults and the one named: the first fault in the order
# relators, conditionals (relator, then key), tiers (label, then key), and
# within a word names before signs.
_TWO_FAULTS = [
    (dict(relators=(gen("q"),), meridional=(MeridionalTier(" t", gen("a")),)),
     "relator 'q' uses unknown generators ['q']"),
    (dict(meridional=(MeridionalTier(" t", gen("z")),)),
     "bad tier label ' t'"),
    (dict(meridional=(MeridionalTier("t", gen("z")),
                      MeridionalTier(" u", gen("a")))),
     "meridional key for 't' 'z' uses unknown generators ['z']"),
    (dict(conditional=(ConditionalRelator(gen("a"), gen("q")),),
          meridional=(MeridionalTier("t", gen("z")),)),
     "conditional key 'q' uses unknown generators ['q']"),
    (dict(relators=(Word((("a", 2),)), gen("q"))),
     "relator 'a^2' has a sign other than +1 or -1"),
    (dict(relators=(gen("q"), Word((("a", 2),)))),
     "relator 'q' uses unknown generators ['q']"),
    (dict(relators=(Word((("a", [1]),)), gen("q"))),
     "relator 'a^[1]' has a sign other than +1 or -1"),
]


@pytest.mark.parametrize("faults, message", _TWO_FAULTS)
def test_validation_names_the_first_of_two_faults(faults, message):
    with pytest.raises(PresentationError) as exc:
        FpPresentation(("a",), **faults)
    assert str(exc.value) == message


def test_with_and_without_relator():
    p = FpPresentation(AB.generators, AB.relators + (parse_word("a^2"),))
    assert parse_word("a^2") in p.relators


def test_replace_relator_preserves_position():
    p = FpPresentation(("a", "b"), (parse_word("a^2"), parse_word("b^3")))
    q = p.replace_relator(parse_word("a^2"), parse_word("a^5"))
    assert q.relators == (parse_word("a^5"), parse_word("b^3"))


def test_meridional_tier_and_strip():
    p = FpPresentation(AB.generators, AB.relators, meridional=(
        MeridionalTier("g", commutator(gen("a"), gen("b"))),))
    assert p.meridional[0].label == "g"
    assert p.strip_meridional().meridional == ()
    # stripping does not invent or drop ordinary relators
    assert p.strip_meridional().relators == p.relators


def test_with_prefix():
    q = FpPresentation(AB.generators, AB.relators, conditional=(
        ConditionalRelator(parse_word("a^2 b"), gen("b")),),
        meridional=(MeridionalTier("g", gen("a")),)).with_prefix("L_")
    assert q.generators == ("L_a", "L_b")
    assert q.relators == (parse_word("L_a L_b L_a^-1 L_b^-1"),)
    assert q.meridional == (MeridionalTier("L_g", gen("L_a")),)
    assert q.conditional == (
        ConditionalRelator(parse_word("L_a^2 L_b"), gen("L_b")),)


def test_defining_rotation_reads_off_definition():
    # relator c^-1 b a  defines c = b a
    r = parse_word("c^-1 b a")
    assert defining_rotation(r, "c") == parse_word("b a")


def test_defining_rotation_requires_single_occurrence():
    assert defining_rotation(parse_word("c b c"), "c") is None


def test_format_parse_round_trip_with_all_features():
    p = FpPresentation(
        ("a", "b"),
        (commutator(gen("a"), gen("b")), parse_word("a^4")),
        conditional=(ConditionalRelator(parse_word("b^2"), parse_word("a b a^-1 b^-1")),),
        meridional=(MeridionalTier("g", parse_word("a^4")),),
    )
    text = format_presentation(p)
    assert parse_presentation(text) == p


def test_parse_presentation_rejects_unknown_line():
    with pytest.raises(PresentationError):
        parse_presentation("generators: a\nnonsense: a")
    with pytest.raises(PresentationError):
        parse_presentation("generators: a\ndistinguished: mu = a")


def test_parse_presentation_rejects_a_repeated_generators_line():
    with pytest.raises(PresentationError,
                       match="^line 2: repeated 'generators:' line$"):
        parse_presentation("generators: a, b\ngenerators: c\nrelator: c^2")


# -- the one-pass validation against the per-word reference ---------------

def reference_check_word(w, what, generators):
    """The per-word validator that every word once went through."""
    if not generators.issuperset(n for n, _ in w.letters):
        raise PresentationError(
            f"{what} {format_word(w)!r} uses unknown generators "
            f"{sorted(w.names() - generators)}")
    try:
        signed = {1, -1}.issuperset(s for _, s in w.letters)
    except TypeError:
        signed = False
    if not signed:
        raise PresentationError(
            f"{what} {format_word(w)!r} has a sign other than +1 or -1")


def reference_validate(generators, relators=(), conditional=(),
                       meridional=()):
    """The constructor's checks, one word at a time, in its order."""
    seen = set()
    for g in generators:
        if not NAME_RE.fullmatch(g):
            raise PresentationError(f"bad generator name {g!r}")
        if g in seen:
            raise PresentationError(f"duplicate generator {g!r}")
        seen.add(g)
    for w in relators:
        reference_check_word(w, "relator", seen)
    for c in conditional:
        reference_check_word(c.relator, "conditional relator", seen)
        reference_check_word(c.key, "conditional key", seen)
    for t in meridional:
        if not NAME_RE.fullmatch(t.label):
            raise PresentationError(f"bad tier label {t.label!r}")
        reference_check_word(t.key, f"meridional key for {t.label!r}", seen)


def outcome(build):
    """What build() gives: the presentation it returns, or the type and
    message of the error it raises."""
    try:
        return build()
    except (PresentationError, WordSyntaxError) as exc:
        return type(exc), str(exc)


def reference_outcome(**fields):
    """What the per-word reference makes of these fields: the presentation
    they form, or the type and message of its error."""
    try:
        reference_validate(**fields)
    except PresentationError as exc:
        return PresentationError, str(exc)
    return FpPresentation(**fields)


NAMES = ("a", "b", "c", "x1")
# faults that a presentation's text form can carry; a bad sign cannot be
# written, and a name with a space, comma or colon does not read back
TEXT_FAULTS = ("unknown", "bad name", "duplicate", "bad label")
FAULTS = TEXT_FAULTS + ("sign 2", "sign 0", "unhashable sign")


def corrupt(w, fault, gens):
    """w with one bad letter in front: an unknown generator, or a sign
    other than +1 or -1."""
    if fault == "unknown":
        return Word((("zz", 1),) + w.letters)
    bad = {"sign 2": 2, "sign 0": 0, "unhashable sign": [1]}[fault]
    return Word(((gens[0] if gens else "a", bad),) + w.letters)


@st.composite
def words(draw, gens):
    if not gens:
        return Word()
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    return Word(tuple(draw(st.lists(letter, max_size=5))))


@st.composite
def faulty_fields(draw, faults=FAULTS):
    """The fields of a presentation, with up to two faults drawn from
    `faults`: a corrupted relator, conditional relator, conditional key or
    tier key, a bad or duplicate generator name, or a bad tier label."""
    gens = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    relators = draw(st.lists(words(gens), max_size=4))
    conditional = draw(st.lists(st.tuples(words(gens), words(gens)),
                                max_size=2))
    meridional = draw(st.lists(st.tuples(st.sampled_from(("g", "h")),
                                         words(gens)), max_size=2))
    corrupted = set()
    for fault in (draw(st.lists(st.sampled_from(faults), max_size=2))
                  if faults else ()):
        if fault == "bad name":
            gens.insert(draw(st.integers(0, len(gens))),
                        draw(st.sampled_from(("1a", "_b", "9"))))
        elif fault == "duplicate" and gens:
            gens.append(draw(st.sampled_from(gens)))
        elif fault == "bad label" and meridional:
            i = draw(st.integers(0, len(meridional) - 1))
            meridional[i] = (draw(st.sampled_from(("1t", "_t"))),
                             meridional[i][1])
        elif fault not in ("bad name", "duplicate", "bad label"):
            # a word carries at most one bad letter: a second in front of
            # an unhashable sign would break the Word's own reduction
            slots = [slot for slot in
                     [(relators, i, None) for i in range(len(relators))]
                     + [(conditional, i, j) for i in range(len(conditional))
                        for j in (0, 1)]
                     + [(meridional, i, 1) for i in range(len(meridional))]
                     if (id(slot[0]), *slot[1:]) not in corrupted]
            if not slots:
                continue
            where, i, j = draw(st.sampled_from(slots))
            corrupted.add((id(where), i, j))
            if j is None:
                where[i] = corrupt(where[i], fault, gens)
            else:
                pair = list(where[i])
                pair[j] = corrupt(pair[j], fault, gens)
                where[i] = tuple(pair)
    return dict(generators=tuple(gens), relators=tuple(relators),
                conditional=tuple(ConditionalRelator(*c) for c in conditional),
                meridional=tuple(MeridionalTier(*t) for t in meridional))


def text_of(fields):
    """The text form of the fields, written line by line as
    format_presentation writes a presentation."""
    lines = ["generators: " + ", ".join(fields["generators"])]
    lines += [f"relator: {format_word(r)}" for r in fields["relators"]]
    lines += [f"conditional: {format_word(c.relator)} : {format_word(c.key)}"
              for c in fields["conditional"]]
    lines += [f"meridional: {t.label} : {format_word(t.key)}"
              for t in fields["meridional"]]
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(faulty_fields())
def test_the_constructor_rejects_as_the_per_word_reference(fields):
    assert outcome(lambda: FpPresentation(**fields)) \
        == reference_outcome(**fields)


@settings(max_examples=60, deadline=None)
@given(faulty_fields(TEXT_FAULTS))
def test_the_parser_rejects_as_the_per_word_reference(fields):
    assert outcome(lambda: parse_presentation(text_of(fields))) \
        == reference_outcome(**fields)


def reference_with_prefix(p, prefix):
    """with_prefix as the constructor built it: gen() checks each new
    generator name first, then the constructor checks the renamed
    fields."""
    try:
        images = {g: gen(prefix + g) for g in p.generators}
    except WordSyntaxError as exc:
        return WordSyntaxError, str(exc)

    def sub(w):
        return substitute(w, images)

    return reference_outcome(
        generators=tuple(prefix + g for g in p.generators),
        relators=tuple(sub(r) for r in p.relators),
        conditional=tuple(ConditionalRelator(sub(c.relator), sub(c.key))
                          for c in p.conditional),
        meridional=tuple(MeridionalTier(prefix + t.label, sub(t.key))
                         for t in p.meridional))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_transforms_reject_as_the_per_word_reference(data):
    # each transform checks only the words or names it adds; a valid
    # presentation and one added word, label or prefix that may be faulty
    p = FpPresentation(**data.draw(faulty_fields(())))
    word = data.draw(words(p.generators))
    fault = data.draw(st.sampled_from((None, "unknown", "sign 2", "sign 0",
                                       "unhashable sign")))
    if fault:
        word = corrupt(word, fault, p.generators)
    fields = dict(generators=p.generators, relators=p.relators,
                  conditional=p.conditional, meridional=p.meridional)
    if p.relators:
        old = data.draw(st.sampled_from(p.relators))
        relators = list(p.relators)
        relators[relators.index(old)] = word
        assert outcome(lambda: p.replace_relator(old, word)) \
            == reference_outcome(**fields | {"relators": tuple(relators)})
    label = data.draw(st.sampled_from(("g", "t2", "1t", "_t", " t", "a:b")))
    prefix = data.draw(st.sampled_from(("", "L_", "x", "1", "_", " ")))
    assert outcome(lambda: p.with_prefix(prefix)) \
        == reference_with_prefix(p, prefix)
    assert outcome(lambda: core_presentation(p, (word,))) \
        == reference_outcome(generators=p.generators,
                             relators=p.relators + (word,))
    if p.relators:
        relators = list(p.relators)
        relators.remove(old)
        assert outcome(lambda: p.relator_to_tier(label, old)) \
            == reference_outcome(**fields | {
                "relators": tuple(relators),
                "meridional": p.meridional + (MeridionalTier(label, old),)})
    # the fiber sum's gluing: the added word as a relator, a conditional
    # relator or a conditional key, over both alphabets; the right side
    # renamed apart, or not (then its generators are duplicates)
    q = FpPresentation(**data.draw(faulty_fields(())))
    q = q.with_prefix(data.draw(st.sampled_from(("", "R_"))))
    other = data.draw(words(p.generators + q.generators))
    added = data.draw(st.sampled_from((
        ((word,), ()), ((), (ConditionalRelator(word, other),)),
        ((other,), (ConditionalRelator(other, word),)))))
    assert outcome(lambda: p.glued(q, *added)) == reference_outcome(
        generators=p.generators + q.generators,
        relators=p.relators + q.relators + added[0],
        conditional=p.conditional + q.conditional + added[1],
        meridional=p.meridional + q.meridional)
