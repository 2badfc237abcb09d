"""Presentations: validation, the small immutable transforms,
meridional tiers, conditional relators, and the text round-trip."""

import pytest

from m4kit.presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    PresentationError,
    defining_rotation,
    format_presentation,
    parse_presentation,
)
from m4kit.words import Word, commutator, gen, parse_word

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
    p = AB.with_meridional("g", commutator(gen("a"), gen("b")))
    assert p.meridional[0].label == "g"
    assert p.strip_meridional().meridional == ()
    # stripping does not invent or drop ordinary relators
    assert p.strip_meridional().relators == p.relators


def test_with_prefix():
    q = FpPresentation(AB.generators, AB.relators, conditional=(
        ConditionalRelator(parse_word("a^2 b"), gen("b")),)
    ).with_meridional("g", gen("a")).with_prefix("L_")
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
