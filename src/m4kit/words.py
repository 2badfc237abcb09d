"""Freely reduced words in a free group.

A word is an immutable sequence of letters; a letter is a pair
``(generator_name, sign)`` with sign +1 or -1.  Every ``Word`` is freely
reduced by construction: adjacent inverse pairs are cancelled when the
object is built, so equality of words is equality in the free group on
whatever alphabet the letters mention.

Convention used throughout the package: the commutator is

    [x, y] = x y x^-1 y^-1

and conjugation is ``conjugate(w, g) = g w g^-1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

Letter = tuple[str, int]
_name = itemgetter(0)          # the generator of a letter

# Generator names: a letter followed by letters/digits/underscores.  Sign
# characters, whitespace and brackets are syntax, never part of a name.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class WordSyntaxError(ValueError):
    pass


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence with a stack scan."""
    out: list[Letter] = []
    for name, sign in letters:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def _invert(letters: Sequence[Letter]) -> tuple[Letter, ...]:
    """The letters of the inverse word: reversed, every sign flipped."""
    return tuple((name, -sign) for name, sign in reversed(letters))


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word.  Construct via gen(), parse_word(), or the
    algebraic operations below; the constructor reduces whatever it is
    given and checks nothing: letters are validated where they enter, in
    gen(), parse_word() and FpPresentation."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _reduce(self.letters))

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        # two reduced words cancel only where they meet
        left, right = self.letters, other.letters
        k, n = 0, min(len(left), len(right))
        while k < n and left[-1 - k][0] == right[k][0] \
                and left[-1 - k][1] == -right[k][1]:
            k += 1
        return _reduced_word(left[:len(left) - k] + right[k:])

    def inverse(self) -> "Word":
        return _reduced_word(_invert(self.letters))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def names(self) -> frozenset[str]:
        """The generator names actually occurring in the word."""
        return frozenset(map(_name, self.letters))

    def exponent_sum(self, name: str) -> int:
        return sum(s for n, s in self.letters if n == name)

    def occurrences(self, name: str) -> int:
        return sum(1 for n, _ in self.letters if n == name)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


IDENTITY = Word()


def _reduced_word(letters: tuple[Letter, ...]) -> Word:
    """The Word of `letters`, which must already be freely reduced, built
    without reducing them again.  This is the one way round the reducing
    constructor; it stays private to this module."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


def gen(name: str, sign: int = 1) -> Word:
    """The one-letter word ``name^sign``; raises WordSyntaxError on a bad
    generator name or a sign other than +1 or -1."""
    if not NAME_RE.fullmatch(name) or sign not in (1, -1):
        raise WordSyntaxError(f"bad letter {name!r}^{sign!r}")
    return Word(((name, sign),))


def conjugate(w: Word, by: Word) -> Word:
    """g w g^-1 for by = g."""
    return by * w * by.inverse()


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each name in `images` to its image
    (other generators map to themselves).  When no letter of w is in
    `images`, w itself is returned, not a copy."""
    letters = w.letters
    # one C-level pass finds the letters to replace
    found = list(compress(count(), map(images.__contains__,
                                       map(_name, letters))))
    if not found:
        return w
    return _reduced_word(_splice(letters, found, images))


def _splice(letters: tuple[Letter, ...], found: list[int],
            images: Mapping[str, Word]) -> tuple[Letter, ...]:
    """The reduced letters of a reduced word with the letter at each index
    in `found` (ascending) replaced by its image.  The unchanged runs are
    copied as slices and each image, or its inverse, is appended whole.
    Runs and images are reduced, so letters can cancel only where two of
    them meet, and only those seams are walked letter by letter."""
    out: list[Letter] = []
    inverses: dict[str, tuple[Letter, ...]] = {}
    start, end = 0, len(letters)
    for i in found + [end]:
        if i == end:
            image: tuple[Letter, ...] = ()
        elif letters[i][1] > 0:
            image = images[letters[i][0]].letters
        else:
            name = letters[i][0]
            if name not in inverses:
                inverses[name] = _invert(images[name].letters)
            image = inverses[name]
        for seg in (letters[start:i], image):
            k = 0
            while out and k < len(seg) and out[-1][0] == seg[k][0] \
                    and out[-1][1] == -seg[k][1]:
                out.pop()
                k += 1
            out += seg[k:] if k else seg
        start = i + 1
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    """Strip matching inverse letters from the two ends.  The result is the
    shortest word in the conjugacy class of w; when nothing is stripped it
    is w itself, not a copy."""
    letters = w.letters
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i][0] == letters[j - 1][0] \
            and letters[i][1] == -letters[j - 1][1]:
        i += 1
        j -= 1
    return _reduced_word(letters[i:j]) if i else w


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation: move the first k letters to the end.  Only sensible
    for cyclically reduced words, whose rotations stay reduced and are not
    reduced again; the rotation of any other word is reduced."""
    letters = w.letters
    if not letters:
        return w
    k %= len(letters)
    rotated = letters[k:] + letters[:k]
    if letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
        return Word(rotated)        # the two ends meet and may cancel
    return _reduced_word(rotated)


def cyclic_rotations(w: Word) -> list[Word]:
    """All rotations of a cyclically reduced word (length-many, or [w] when
    empty)."""
    if not w.letters:
        return [w]
    return [rotate(w, k) for k in range(len(w.letters))]


def cyclically_equal(u: Word, v: Word) -> bool:
    """Equality of conjugacy-class representatives, allowing inversion —
    the equivalence under which relators are interchangeable."""
    u = cyclic_reduce(u)
    v = cyclic_reduce(v)
    if len(u) != len(v):
        return False
    rots = cyclic_rotations(u)
    return v in rots or v.inverse() in rots


# -- text form -----------------------------------------------------------
#
# Syntax:   word  := atom*            (concatenation)
#           atom  := base exponent?
#           base  := NAME | "[" word "," word "]" | "(" word ")"
#           exponent := "^" ("-"? digits)
# "1" denotes the empty word.  Whitespace separates atoms but is otherwise
# ignored.  format_word emits the plain syllable form `a^2 b^-1 c`, which
# parses back to the same word.

_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<name>{NAME_RE.pattern})|(?P<int>-?\d+)|(?P<punct>[\[\],^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup      # exactly one group matches
        if kind == "bad":
            raise WordSyntaxError(f"unexpected character {m.group('bad')!r} at column {m.start('bad') + 1}")
        toks.append((kind, m.group(kind), m.start(kind)))
    return toks


class _WordParser:
    """Recursive descent over the tokens of one word.  Every rule appends
    the letters it denotes to one list, `out`; commutators, inverses and
    powers act on those letters unreduced, and parse_word reduces once at
    the end.  Free reduction is confluent, so the word is the same as
    reducing after every step.  The base of a power is reduced before it
    is repeated, so that a power of a cancelling base stays short."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.out: list[Letter] = []

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise WordSyntaxError(f"unexpected end of word in {self.text!r}")
        self.pos += 1
        return tok

    def word(self, stop: tuple[str, ...] = ()) -> None:
        """Parse atoms until a stop token, left unread, or the end of the
        input.  The next take() therefore reads that stop token or raises
        at the end."""
        while True:
            tok = self.peek()
            if tok is None or (tok[0] == "punct" and tok[1] in stop):
                return
            self.atom()

    def atom(self) -> None:
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


def parse_word(text: str) -> Word:
    """Parse the word syntax above.  Examples:

    >>> parse_word("a b^-1")           # doctest: +SKIP
    >>> parse_word("[b1^-1, d^-1]")    # commutator sugar
    >>> parse_word("1")                # identity
    """
    parser = _WordParser(text)
    try:
        parser.word()           # with no stop token it reads every token
    except RecursionError:
        raise WordSyntaxError("brackets nest too deeply") from None
    return Word(tuple(parser.out))


def format_word(w: Word) -> str:
    """Syllable form, e.g. ``a^2 b^-1 c``; the empty word prints as ``1``."""
    if not w.letters:
        return "1"
    syllables: list[str] = []
    i = 0
    letters = w.letters
    while i < len(letters):
        name, sign = letters[i]
        j = i
        while j < len(letters) and letters[j] == (name, sign):
            j += 1
        e = sign * (j - i)
        syllables.append(name if e == 1 else f"{name}^{e}")
        i = j
    return " ".join(syllables)
