"""Freely reduced words in a free group.

A word is an immutable sequence of letters; a letter is a pair
``(generator_name, sign)`` with sign +1 or -1.  Every ``Word`` is freely
reduced by construction: adjacent inverse pairs are cancelled when the
object is built, so equality of words is equality in the free group on
whatever alphabet the letters mention.

Convention used throughout the package: the commutator is

    [x, y] = x y x^-1 y^-1
"""

from __future__ import annotations

import re
import string
from itertools import compress, count
from operator import itemgetter, length_hint
from typing import Any, Iterable, Mapping, Sequence, TypeVar

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


# A Record's constructor fills each field with set_field(self, name, value).
set_field = object.__setattr__

_V = TypeVar("_V", bound="Record")


class Record:
    """Frozen value semantics for the package's value types.

    A subclass names its fields in `__slots__`, in constructor order, and
    its `__init__` checks its arguments and fills each field with
    `set_field`.  Two values are equal when they are of one class and
    agree on every field but those in `_uncompared`; those same fields are
    hashed.  The repr is ``Name(field=value, ...)``, fields cannot be
    assigned or deleted, and `replace` makes changed copies.  `Word`,
    built and compared thousands of times per certificate, writes
    `__eq__` and `__hash__` out over its one field, which is faster than
    `_key`."""

    __slots__ = ()
    _uncompared: tuple[str, ...] = ()

    def _key(self) -> tuple[Any, ...]:
        return tuple([getattr(self, f) for f in self.__slots__
                      if f not in self._uncompared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[Any, ...]:
        # copy and pickle rebuild through the constructor
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


def replace(obj: _V, **changes: Any) -> _V:
    """A copy of `obj` with the fields in `changes` replaced, built by its
    constructor, so that its checks run again."""
    fields = {f: getattr(obj, f) for f in obj.__slots__}
    return type(obj)(**(fields | changes))


class Word(Record):
    """A freely reduced word.  Construct via gen(), parse_word(), or the
    algebraic operations below; each of them builds its result with this
    constructor, the one way a Word is made.  It reduces whatever it is
    given and checks nothing: letters are validated where they enter, in
    gen(), parse_word() and FpPresentation."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        set_field(self, "letters", _reduce(letters))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.letters,))

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(_invert(self.letters))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word(base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

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


def gen(name: str, sign: int = 1) -> Word:
    """The one-letter word ``name^sign``; raises WordSyntaxError on a bad
    generator name or a sign other than +1 or -1."""
    if not NAME_RE.fullmatch(name) or sign not in (1, -1):
        raise WordSyntaxError(f"bad letter {name!r}^{sign!r}")
    return Word(((name, sign),))


def commutator(x: Word, y: Word) -> Word:
    """[x, y] = x y x^-1 y^-1."""
    return x * y * x.inverse() * y.inverse()


def substitute(w: Word, images: Mapping[str, Word]) -> Word:
    """Apply the homomorphism sending each name in `images` to its image
    (other generators map to themselves).  The unchanged runs of w and
    each image, or its inverse, are copied as slices and the whole is
    reduced by the constructor.  When no letter of w is in `images`, w
    itself is returned, not a copy."""
    letters = w.letters
    # one C-level pass finds the letters to replace
    found = list(compress(count(), map(images.__contains__,
                                       map(_name, letters))))
    if not found:
        return w
    out: list[Letter] = []
    inverses: dict[str, tuple[Letter, ...]] = {}
    start = 0
    for i in found:
        name, sign = letters[i]
        out += letters[start:i]
        if sign > 0:
            out += images[name].letters
        else:
            if name not in inverses:
                inverses[name] = _invert(images[name].letters)
            out += inverses[name]
        start = i + 1
    out += letters[start:]
    return Word(out)


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
    return Word(letters[i:j]) if i else w


def rotate(w: Word, k: int) -> Word:
    """Cyclic rotation: move the first k letters to the end.  Only sensible
    for cyclically reduced words, whose rotations are reduced words of the
    same length; the rotation of any other word may cancel where its two
    ends meet."""
    letters = w.letters
    if not letters:
        return w
    k %= len(letters)
    return Word(letters[k:] + letters[:k])


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

_TOKEN_RE = re.compile(rf"{NAME_RE.pattern}|-?\d+|[\[\],^()]|\S")
# A token is a name if it starts with an ASCII letter, otherwise an integer
# if it ends in a decimal digit (what \d matches), otherwise punctuation or
# a single character outside the syntax.
_LETTERS = frozenset(string.ascii_letters)
_PUNCT = frozenset("[],^()")

# The deepest bracket nesting parse_word accepts, whatever the caller's
# stack depth: above the 497 levels of "(...)" that a recursive parser of
# this syntax reaches from a shallow stack, so every word it reads parses.
MAX_NESTING = 500

# The most letters parse_word lets a power or a commutator expand a word
# to, checked before each copy is made, so that a short text cannot ask
# for more memory than the machine has ("a^100000000" is 11 characters).
# It admits every shipped manifest and the 16,000-letter surface relator
# of the odd family at n = 4000 with room to spare.
MAX_LETTERS = 1_000_000


def parse_word(text: str) -> Word:
    """Parse the word syntax above in one pass over its tokens.  Examples:

    >>> parse_word("a b^-1")           # doctest: +SKIP
    >>> parse_word("[b1^-1, d^-1]")    # commutator sugar
    >>> parse_word("1")                # identity
    """
    tokens = _TOKEN_RE.findall(text)
    rest = iter(tokens)
    # The letters the word denotes, appended unreduced and reduced once at
    # the end; free reduction is confluent, so the word is the same as
    # reducing after every step.  Each open bracket is (the token that
    # may come next at its level, its start in out, its comma in out).
    # `atom` is the start of the atom a "^" would raise, or -1 for none.
    # `inverse` maps each letter that has been inverted to its inverse,
    # made once per parse, so inverting a stretch of out makes no new
    # letters.
    out: list[Letter] = []
    stack: list[tuple[str, int, int]] = []
    atom = -1
    inverse = _Inverses()
    for tok in rest:
        if tok[0] in _LETTERS:
            atom = len(out)
            out.append((tok, 1))
        elif tok == "^" and atom >= 0:
            tok = next(rest, None)
            if tok is None:
                raise _syntax_error(text, f"unexpected end of word in {text!r}")
            if tok[0] in _LETTERS or not tok[-1].isdecimal():
                raise _syntax_error(text, "expected integer exponent",
                                    len(tokens) - length_hint(rest) - 1)
            k = int(tok)
            # the base is reduced first, so a power of a cancelling base
            # stays short
            base = _reduce(out[atom:])
            if atom + len(base) * abs(k) > MAX_LETTERS:
                raise _too_long(text)
            out[atom:] = (base if k >= 0 else inverse.invert(base)) * abs(k)
            atom = -1
        elif tok == "[" or tok == "(":
            if len(stack) == MAX_NESTING:
                raise _syntax_error(text, "brackets nest too deeply")
            stack.append((")" if tok == "(" else ",", len(out), 0))
            atom = -1
        elif stack and tok == stack[-1][0]:
            _, start, comma = stack.pop()
            if tok == ",":
                stack.append(("]", start, len(out)))
                atom = -1
            else:
                if tok == "]":
                    if 2 * len(out) - start > MAX_LETTERS:
                        raise _too_long(text)
                    out += (inverse.invert(out[start:comma])
                            + inverse.invert(out[comma:]))
                atom = start
        elif tok == "1":
            atom = len(out)
        else:
            raise _syntax_error(text, f"unexpected token {tok!r}",
                                len(tokens) - length_hint(rest) - 1)
    if stack:
        raise _syntax_error(text, f"unexpected end of word in {text!r}")
    return Word(tuple(out))


class _Inverses(dict):
    """Letter -> its inverse letter, each made once, on first lookup."""

    def __missing__(self, letter: Letter) -> Letter:
        inv = self[letter] = (letter[0], -letter[1])
        return inv

    def invert(self, letters: Sequence[Letter]) -> list[Letter]:
        """The letters of the inverse word, made of the letters held."""
        return list(map(self.__getitem__, reversed(letters)))


def _syntax_error(text: str, message: str,
                  token: int | None = None) -> WordSyntaxError:
    """The error for a word that does not parse: its first character
    outside the syntax if it has one, whatever else is wrong; otherwise
    `message`, with the column of token number `token` when given.  The
    text is scanned again for these, so the parse itself keeps no
    columns."""
    matches = list(_TOKEN_RE.finditer(text))
    for m in matches:
        tok = m.group()
        if not (tok[0] in _LETTERS or tok[-1].isdecimal() or tok in _PUNCT):
            return WordSyntaxError(
                f"unexpected character {tok!r} at column {m.start() + 1}")
    if token is not None:
        message += f" at column {matches[token].start() + 1}"
    return WordSyntaxError(message)


def _too_long(text: str) -> WordSyntaxError:
    return _syntax_error(
        text, f"word expands to more than {MAX_LETTERS:,} letters")


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
