"""Word algebra: free reduction, the usual operators, and the text format."""

import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from m4kit.presentation import FpPresentation, PresentationError
from m4kit.words import (
    IDENTITY,
    MAX_LETTERS,
    MAX_NESTING,
    NAME_RE,
    Word,
    WordSyntaxError,
    _invert,
    _reduce,
    commutator,
    cyclic_reduce,
    cyclic_rotations,
    cyclically_equal,
    format_word,
    gen,
    parse_word,
    rotate,
    substitute,
)

a, b, c = gen("a"), gen("b"), gen("c")


# -- strategies ---------------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "d"])
letters = st.tuples(names, st.sampled_from([1, -1]))
words = st.builds(lambda ls: Word(tuple(ls)), st.lists(letters, max_size=12))


# -- construction and reduction ----------------------------------------------

def naive_reduce(letters):
    """The reduction oracle, sharing no code with the kernel: delete the
    first adjacent inverse pair, and repeat until none is left.  No pair
    lies before the one deleted, so the next first pair is at most one
    letter to its left."""
    out = list(letters)
    i = 0
    while i < len(out) - 1:
        if out[i][0] == out[i + 1][0] and out[i][1] == -out[i + 1][1]:
            del out[i:i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(out)


def naive_inverse(letters):
    return [(name, -sign) for name, sign in reversed(letters)]


@st.composite
def cascades(draw):
    """Random letters with up to three words inserted, each followed by its
    inverse, so that cancellation cascades across the whole of both, and
    an insertion into an earlier one nests its cascade inside."""
    out = draw(st.lists(letters, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        x = draw(st.lists(letters, max_size=30))
        at = draw(st.integers(0, len(out)))
        out[at:at] = x + naive_inverse(x)
    return out


@given(cascades())
def test_reduce_matches_the_naive_oracle(letter_list):
    assert _reduce(letter_list) == naive_reduce(letter_list)
    assert Word(letter_list).letters == naive_reduce(letter_list)


def test_auto_reduction_on_construction():
    w = Word((("a", 1), ("b", 1), ("b", -1), ("a", 1)))
    assert w.letters == (("a", 1), ("a", 1))


def test_reduction_cascades():
    # a b c c^-1 b^-1 a  ->  a a
    w = Word((("a", 1), ("b", 1), ("c", 1), ("c", -1), ("b", -1), ("a", 1)))
    assert w == a * a


def test_identity_is_empty():
    assert len(IDENTITY) == 0
    assert a * a.inverse() == IDENTITY
    assert not IDENTITY


def test_bad_letter_rejected():
    with pytest.raises(WordSyntaxError):
        gen("a", 2)
    with pytest.raises(WordSyntaxError):
        gen("", 1)
    with pytest.raises(WordSyntaxError):
        gen("a b")
    # a raw-letter Word is unchecked, but cannot enter a presentation
    with pytest.raises(PresentationError):
        FpPresentation(("a",), (Word((("a", 2),)),))


@given(words)
def test_double_inverse(w):
    assert w.inverse().inverse() == w


@given(words)
def test_word_times_inverse_is_identity(w):
    assert w * w.inverse() == IDENTITY
    assert w.inverse() * w == IDENTITY


@given(words, words, words)
def test_multiplication_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words, words)
def test_inverse_antihomomorphism(u, v):
    assert (u * v).inverse() == v.inverse() * u.inverse()


# -- counters ------------------------------------------------------------------

def test_exponent_sum_and_occurrences():
    w = parse_word("a b a^-1 b a^2")
    assert w.exponent_sum("a") == 2
    assert w.occurrences("a") == 4
    assert w.exponent_sum("b") == 2
    assert w.exponent_sum("c") == 0
    assert w.names() == frozenset({"a", "b"})


@given(words)
def test_commutator_has_zero_exponent_sums(w):
    k = commutator(w, b * c)
    for n in k.names():
        assert k.exponent_sum(n) == 0


# -- operators -----------------------------------------------------------------

def test_commutator_definition():
    assert commutator(a, b) == parse_word("a b a^-1 b^-1")


@given(words, words)
def test_conjugation_is_homomorphism(u, v):
    t = gen("d")
    assert t * (u * v) * t.inverse() == \
        (t * u * t.inverse()) * (t * v * t.inverse())


def test_substitute_replaces_and_inverts():
    w = parse_word("x y^-1 x")
    out = substitute(w, {"x": a * b, "y": c})
    assert out == parse_word("a b c^-1 a b")


def test_substitute_leaves_unmapped_names():
    w = parse_word("x z")
    assert substitute(w, {"x": a}) == parse_word("a z")


images = st.dictionaries(names, words, max_size=3)


def test_substitute_returns_an_untouched_word_itself():
    w = parse_word("a b^-1 c")
    assert substitute(w, {"d": a * b}) is w
    assert substitute(w, {}) is w


def test_cyclic_reduce_returns_a_reduced_word_itself():
    w = parse_word("a b a^-1 c")
    assert cyclic_reduce(w) is w
    assert cyclic_reduce(IDENTITY) is IDENTITY


def naive_substitute(w, imgs):
    """The oracle: expand every mapped letter, then reduce the whole."""
    expanded = []
    for name, sign in w.letters:
        if name in imgs:
            img = imgs[name].letters
            expanded += img if sign > 0 else naive_inverse(img)
        else:
            expanded.append((name, sign))
    return naive_reduce(expanded)


@given(words, images)
def test_substitute_equals_the_plain_construction(w, imgs):
    assert substitute(w, imgs).letters == naive_substitute(w, imgs)


long_words = st.builds(lambda ls: Word(tuple(ls)),
                       st.lists(letters, max_size=60))


@st.composite
def seam_cases(draw):
    """A word of up to 60 letters and a map of one or more names.  Each
    image is empty, random, or the inverse of the runs beside one
    occurrence of its name, so that cancellation crosses that seam and
    cascades into the next ones."""
    w = draw(long_words)
    mapped = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    imgs = {}
    for name in mapped:
        kind = draw(st.sampled_from(["empty", "random", "neighbours"]))
        at = [i for i, (n, _) in enumerate(w.letters) if n == name]
        if kind == "empty":
            imgs[name] = IDENTITY
        elif kind == "random" or not at:
            imgs[name] = draw(long_words)
        else:
            i = draw(st.sampled_from(at))
            lo = draw(st.integers(0, i))
            hi = draw(st.integers(i + 1, len(w)))
            # w[lo:i] (w[lo:i])^-1 (w[i+1:hi])^-1 w[i+1:hi] cancels away
            image = Word(w.letters[i + 1:hi] + w.letters[lo:i]).inverse()
            imgs[name] = image if w.letters[i][1] > 0 else image.inverse()
    return w, imgs


@given(seam_cases())
def test_substitute_matches_the_naive_oracle(case):
    w, imgs = case
    assert substitute(w, imgs).letters == naive_substitute(w, imgs)
    for name, image in imgs.items():        # one name, as eliminations map
        one = {name: image}
        assert substitute(w, one).letters == naive_substitute(w, one)


@given(seam_cases())
def test_cyclic_reduce_of_a_substitution_matches_the_naive_oracle(case):
    w, imgs = case
    letters = list(naive_substitute(w, imgs))
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    assert cyclic_reduce(substitute(w, imgs)).letters == naive_reduce(letters)


@given(long_words, long_words, st.integers(min_value=0, max_value=200))
def test_products_inverses_and_rotations_match_the_naive_oracle(u, v, k):
    # u u^-1 v and u v v^-1 cancel a whole factor across the seam
    for left, right in ((u, v), (u, u.inverse() * v), (u * v, v.inverse())):
        assert (left * right).letters == naive_reduce(
            left.letters + right.letters)
    assert u.inverse().letters == naive_reduce(naive_inverse(u.letters))
    # a conjugate is not cyclically reduced, so its rotations may cancel
    for w in (u, v * u * v.inverse()):
        if w:
            j = k % len(w)
            assert rotate(w, k).letters == naive_reduce(
                w.letters[j:] + w.letters[:j])


def test_substitute_cancels_across_several_seams():
    w = parse_word("a b x y c x^-1 d")
    out = substitute(w, {"x": parse_word("b^-1 a^-1"), "y": parse_word("c^-1")})
    assert out == parse_word("a b d")
    assert substitute(w, {"x": IDENTITY}) == parse_word("a b y c d")
    assert substitute(parse_word("a x a^-1"), {"x": IDENTITY}) == IDENTITY


@given(words)
def test_cyclic_reduce_equals_the_plain_construction(w):
    letters = list(w.letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    assert cyclic_reduce(w).letters == naive_reduce(letters)


# -- cyclic structure -----------------------------------------------------------

def test_cyclic_reduce_strips_conjugating_frame():
    w = c * a * commutator(a, b) * (c * a).inverse()
    assert cyclic_reduce(w) == commutator(a, b)


@given(words)
def test_cyclic_reduce_idempotent(w):
    r = cyclic_reduce(w)
    assert cyclic_reduce(r) == r


@given(words, st.integers(min_value=-6, max_value=6))
def test_rotation_preserves_cyclic_class(w, k):
    r = cyclic_reduce(w)
    assert cyclically_equal(r, rotate(r, k))


def test_cyclically_equal_covers_rotation_and_inversion():
    u = parse_word("a b a^-1 b^-1")
    assert cyclically_equal(u, parse_word("b a^-1 b^-1 a"))
    assert cyclically_equal(u, u.inverse())  # relators are unoriented
    assert not cyclically_equal(u, parse_word("a b a b"))
    assert not cyclically_equal(u, parse_word("a b"))


def test_cyclic_rotations_count():
    w = parse_word("a b c")
    assert len(cyclic_rotations(w)) == 3
    assert cyclic_rotations(IDENTITY) == [IDENTITY]


# -- text form -------------------------------------------------------------------

def test_format_uses_powers():
    assert format_word(parse_word("a a a b^-1 b^-1")) == "a^3 b^-2"
    assert format_word(IDENTITY) == "1"


def test_parse_supports_brackets_and_commutators():
    assert parse_word("[a, b]") == commutator(a, b)
    assert parse_word("(a b)^-1") == (a * b).inverse()
    assert parse_word("[a, b]^2") == commutator(a, b) * commutator(a, b)
    assert parse_word("1") == IDENTITY


def test_parse_nested_commutator():
    assert parse_word("[[a, b], c]") == commutator(commutator(a, b), c)


# Each malformed input and its exact message, pinned so that a change to the
# parser keeps every check and its wording.
_GARBAGE = {
    "a^": "unexpected end of word in 'a^'",
    "a^x": "expected integer exponent at column 3",
    "[a b]": "unexpected token ']' at column 5",
    "(a": "unexpected end of word in '(a'",
    "a)": "unexpected token ')' at column 2",
    "^2": "unexpected token '^' at column 1",
    "a,": "unexpected token ',' at column 2",
    "a $": "unexpected character '$' at column 3",
}


@pytest.mark.parametrize("bad", list(_GARBAGE))
def test_parse_rejects_garbage(bad):
    with pytest.raises(WordSyntaxError) as exc:
        parse_word(bad)
    assert str(exc.value) == _GARBAGE[bad]


@pytest.mark.parametrize("depth", [3_000, 100_000])
def test_parse_rejects_deep_nesting(depth):
    # nesting deeper than MAX_NESTING is a WordSyntaxError like any other,
    # not a RecursionError or a crash
    with pytest.raises(WordSyntaxError, match="nest too deeply"):
        parse_word("(" * depth + "a" + ")" * depth)


def _under_frames(frames, call):
    """call() made from `frames` more Python frames down the stack."""
    return call() if frames == 0 else _under_frames(frames - 1, call)


@pytest.mark.parametrize("nest, value", [
    (lambda d: "(" * d + "a" + ")" * d, a),
    (lambda d: "(" * (d - 1) + "[a, b]" + ")" * (d - 1), commutator(a, b)),
])
def test_nesting_cap_does_not_depend_on_the_stack(nest, value):
    # the cap admits every word the recursive parser admitted from a
    # shallow stack (497 levels), and it holds 800 frames down as well
    assert MAX_NESTING >= 497
    word = _under_frames(800, lambda: parse_word(nest(MAX_NESTING)))
    assert word == value
    with pytest.raises(WordSyntaxError, match="^brackets nest too deeply$"):
        _under_frames(800, lambda: parse_word(nest(MAX_NESTING + 1)))


@pytest.mark.parametrize("text", ["[" * 500 + "a" + ", b]" * 500,
                                  "a^100000000"],
                         ids=["nested_commutators", "huge_power"])
def test_parse_caps_the_expanded_length(text):
    # short texts that expand to ~2^501 and 10^8 letters: the cap is checked
    # before each copy, so they end in a WordSyntaxError, not in exhausted
    # memory
    start = time.perf_counter()
    with pytest.raises(WordSyntaxError,
                       match="^word expands to more than 1,000,000 letters$"):
        parse_word(text)
    assert time.perf_counter() - start < 1.0


def test_parse_refuses_nested_commutators_in_bounded_memory():
    # near the cap the letter list alone is about 8 MB of references, so
    # the inverses that a commutator appends must reuse letters rather than
    # make one per letter copied
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError, match="more than 1,000,000"):
            parse_word("[" * 500 + "a" + ", b]" * 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


def test_letter_cap_admits_exactly_max_letters():
    assert MAX_LETTERS == 1_000_000
    assert parse_word("a^1000000") == Word((("a", 1),) * 1_000_000)
    with pytest.raises(WordSyntaxError, match="more than 1,000,000 letters"):
        parse_word("a^1000001")


def test_surface_sized_relator_round_trips():
    # 16,000 letters, the surface relator of the odd family at n = 4000
    w = Word(tuple(letter for i in range(4000) for letter in (
        (f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1))))
    assert len(w) == 16_000
    assert parse_word(format_word(w)) == w


# Syntax trees of the word grammar: ("name", n), ("one",), ("comm", x, y),
# ("group", x), ("pow", x, k) and ("cat", [x, ...]).  Each is rendered to
# text and, separately, evaluated with the Word algebra.
_syntax_trees = st.recursive(
    st.one_of(names.map(lambda n: ("name", n)), st.just(("one",))),
    lambda kids: st.one_of(
        st.tuples(st.just("comm"), kids, kids),
        st.tuples(st.just("group"), kids),
        st.tuples(st.just("pow"), kids, st.integers(min_value=-3, max_value=3)),
        st.tuples(st.just("cat"), st.lists(kids, max_size=4)),
    ),
    max_leaves=16,
)


def _render(tree):
    kind = tree[0]
    if kind == "name":
        return tree[1]
    if kind == "one":
        return "1"
    if kind == "comm":
        return f"[{_render(tree[1])}, {_render(tree[2])}]"
    if kind == "group":
        return f"({_render(tree[1])})"
    if kind == "pow":
        base = _render(tree[1])
        if tree[1][0] not in ("name", "one", "comm", "group"):
            base = f"({base})"
        return f"{base}^{tree[2]}"
    return " ".join(_render(t) for t in tree[1])


def _evaluate(tree):
    kind = tree[0]
    if kind == "name":
        return gen(tree[1])
    if kind == "one":
        return IDENTITY
    if kind == "comm":
        return commutator(_evaluate(tree[1]), _evaluate(tree[2]))
    if kind == "group":
        return _evaluate(tree[1])
    if kind == "pow":
        return _evaluate(tree[1]) ** tree[2]
    out = IDENTITY
    for t in tree[1]:
        out = out * _evaluate(t)
    return out


@given(_syntax_trees)
def test_parse_matches_the_word_algebra(tree):
    assert parse_word(_render(tree)) == _evaluate(tree)


# -- a recursive-descent parser of the same syntax, kept as an oracle ---------

_REF_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<name>{NAME_RE.pattern})|(?P<int>-?\d+)|(?P<punct>[\[\],^()])|(?P<bad>\S))"
)


def _ref_tokenize(text):
    toks = []
    for m in _REF_TOKEN_RE.finditer(text):
        kind = m.lastgroup      # exactly one group matches
        if kind == "bad":
            raise WordSyntaxError(f"unexpected character {m.group('bad')!r} at column {m.start('bad') + 1}")
        toks.append((kind, m.group(kind), m.start(kind)))
    return toks


class _RefParser:
    """Recursive descent over the tokens of one word; every rule appends
    the letters it denotes to `out`, reduced once at the end."""

    def __init__(self, text):
        self.text = text
        self.toks = _ref_tokenize(text)
        self.pos = 0
        self.out = []

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError(f"unexpected end of word in {self.text!r}")
        self.pos += 1
        return tok

    def word(self, stop=()):
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "punct" and tok[1] in stop):
                return
            self.atom()

    def atom(self):
        out = self.out
        start = len(out)
        kind, val, col = self.take()
        if kind == "name":
            out.append((val, 1))
        elif kind == "int" and val == "1":
            pass
        elif kind == "punct" and val == "[":
            self.word(stop=(",",))
            self.take()
            mid = len(out)
            self.word(stop=("]",))
            self.take()
            out += _invert(out[start:mid]) + _invert(out[mid:])
        elif kind == "punct" and val == "(":
            self.word(stop=(")",))
            self.take()
        else:
            raise WordSyntaxError(f"unexpected token {val!r} at column {col + 1}")
        tok = self.peek()
        if tok is not None and tok[0] == "punct" and tok[1] == "^":
            self.take()
            kind, val, col = self.take()
            if kind != "int":
                raise WordSyntaxError(f"expected integer exponent at column {col + 1}")
            k = int(val)
            base = _reduce(out[start:])
            out[start:] = (base if k >= 0 else _invert(base)) * abs(k)


def _ref_parse(text):
    parser = _RefParser(text)
    parser.word()
    return Word(tuple(parser.out))


def _outcome(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return str(exc)


# Pieces that concatenate into names ("a" "1 " is a1), bad characters ("-"
# alone, "_" and "$") and every punctuation mark.  Each digit piece ends in
# a space, so no exponent has more than one digit and no text blows up.
_PIECES = ["a", "b", "c1", "x_y", "1 ", "0 ", "2 ", "3 ", "-1 ", "-2 ", "^",
           "-", "[", "]", "(", ")", ",", " ", "\t", "$", "_"]
_soups = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)


@st.composite
def _damaged_words(draw):
    """A well-formed word with up to two characters replaced by a piece,
    so that faults also sit deep inside valid brackets and powers."""
    text = _render(draw(_syntax_trees))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 2)))
    return text[:i] + draw(st.sampled_from(_PIECES + [""])) + text[j:]


@settings(max_examples=1500)
@given(st.one_of(_soups, _damaged_words()))
def test_parse_matches_the_recursive_parser(text):
    assert _outcome(parse_word, text) == _outcome(_ref_parse, text)


@given(words)
def test_format_parse_round_trip(w):
    assert parse_word(format_word(w)) == w


def test_str_matches_format():
    w = parse_word("a^2 b^-1")
    assert str(w) == format_word(w)
