"""Certified simplification of presentations.

The engine repeatedly applies a small move set — commutation cancellation
(proving the commuting pairs it needs on demand), generator elimination,
length-reducing relator application, meridional-tier discharge and
conditional-relator activation — recording every move as a replayable
trace step (see trace.py).  A verdict is only ever *positive*: the group
is trivial, infinite cyclic, or finite cyclic, read off a terminal state
that is the empty or a single-generator presentation.  Anything else is
Inconclusive with a reason; the engine never claims a group is nontrivial.

Corroborating evidence (abelianization, coset enumeration) is computed
independently of the trace and stored on the certificate; a consistency
gate downgrades any verdict whose abelianization disagrees.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from operator import itemgetter
from typing import Iterable

from .abelian import AbelianGroup, h1
from .coset import CosetCount, DEFAULT_MAX_COSETS, coset_enumeration
from .presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    core_presentation,
    defining_rotation,
)
from .trace import (
    ActivateConditional,
    Certificate,
    CommutationCancel,
    DischargeMeridional,
    Eliminate,
    FINITE_CYCLIC,
    INCONCLUSIVE,
    INFINITE_CYCLIC,
    Kill,
    PairFromDefinition,
    PairFromRelator,
    ReplaceSubword,
    TRIVIAL,
    TraceStep,
    coset_subgroup_of,
    h1_of,
    parse_target,
    target_of,
)
from .words import (
    IDENTITY,
    Record,
    Word,
    cyclic_reduce,
    gen,
    rotate,
    set_field,
    substitute,
)


class BudgetError(ValueError):
    """A budget count is not a positive integer, or `corroborate` is not a
    bool."""


class Budget(Record):
    __slots__ = ("max_cosets", "max_derivation_steps", "corroborate")

    def __init__(self, max_cosets: int = DEFAULT_MAX_COSETS,
                 max_derivation_steps: int = 10_000,
                 corroborate: bool = True) -> None:
        # bool is a subclass of int, but True is no count
        for what, count in (("the coset budget", max_cosets),
                            ("the derivation budget", max_derivation_steps)):
            if (not isinstance(count, int) or isinstance(count, bool)
                    or count < 1):
                raise BudgetError(f"{what} must be a positive integer, "
                                  f"got {count!r}")
        if not isinstance(corroborate, bool):
            raise BudgetError(f"corroborate must be a bool, "
                              f"got {corroborate!r}")
        set_field(self, "max_cosets", max_cosets)
        set_field(self, "max_derivation_steps", max_derivation_steps)
        set_field(self, "corroborate", corroborate)


_name = itemgetter(0)          # the generator of a letter
_NONE: frozenset[int] = frozenset()   # the keys of no relator


def _letter_counts(w: Word) -> dict[str, int]:
    """The number of letters of each generator in w, in order of first
    occurrence."""
    counts: dict[str, int] = {}
    for g, _ in w.letters:
        counts[g] = counts.get(g, 0) + 1
    return counts


# a way to prove a commuting pair: the class of its step, the step's two
# generators and the key of its relator, then the pairs it needs proved
# first; the step itself is built only when the proof is emitted
_Rule = tuple[type[PairFromRelator | PairFromDefinition], str, str, int,
              list[frozenset[str]]]


class _State:
    """Mutable working copy of a presentation plus the proved commuting
    pairs.  Relators are kept cyclically reduced and nonempty; conditional
    relators with empty current form are dropped as vacuous.

    The relators live in a dict under keys from a counter that only grows.
    A rewrite keeps its relator's key, so dict order is relator order.  An
    occurrence index is kept up to date for exactly the words a move
    changes: `occ` maps a generator to the keys of the relators that
    mention it, `total` counts its letters over the relators, tier keys and
    conditionals, and `definitions` maps it to the keys of the relators
    that mention it once.  An elimination therefore rewrites only the
    relators that mention the generator.  The definition itself, the
    rotation of such a relator that solves for the generator, is built
    only for the elimination that wins.  The list of a generator's
    defining keys with the names of each definition (`definition_names`)
    is found when the pair prover reads it, and kept until one of those
    keys is added or dropped."""

    def __init__(self, p: FpPresentation):
        self.gens: dict[str, None] = dict.fromkeys(p.generators)
        self.rels: dict[int, Word] = {}
        self.counts: dict[int, dict[str, int]] = {}  # key -> letter counts
        self.occ: dict[str, set[int]] = {}
        self.total: dict[str, int] = {}
        self.definitions: dict[str, set[int]] = {}
        # see definition_names
        self.names: dict[str, list[tuple[int, tuple[str, ...]]]] = {}
        self.next_key = 0
        # generators whose count or defining keys changed since the last
        # search, and that search's heap of candidates (see _find_elimination)
        self.dirty: set[str] = set()
        self.heap: list[tuple[int, int, str, int]] = []
        self.best: dict[str, tuple[int, int, str, int]] = {}
        for r in p.relators:
            self.put(None, cyclic_reduce(r))
        # (current relator, current key, original relator)
        self.conditional: list[tuple[Word, Word, Word]] = [
            (c.relator, c.key, c.relator) for c in p.conditional if c.relator]
        self.tiers: list[MeridionalTier] = list(p.meridional)
        for t in self.tiers:
            self.count(t.key, 1)
        for rel, key, _ in self.conditional:
            self.count(rel, 1)
            self.count(key, 1)
        self.pairs: set[frozenset[str]] = set()
        # pair -> the rule that proved it this round, else None; the
        # relators stay as they are until the round's move is applied
        self.settled: dict[frozenset[str], _Rule | None] = {}
        self.activated: list[Word] = []      # original forms, for reporting

    def definition_names(self, g: str) -> list[tuple[int, tuple[str, ...]]]:
        """(key, the distinct names of g's definition by relator `key` in
        order of first occurrence) for each key in `definitions[g]`, in key
        order: found once, then kept until `put` adds or drops one of those
        keys.  The names are read off the relator, which is cyclically
        reduced: the letters after g's one letter, cyclically, are the
        definition, or its inverse (so reversed) when g's sign is +1."""
        names = self.names.get(g)
        if names is None:
            names = self.names[g] = []
            for key in sorted(self.definitions.get(g, ())):
                letters = self.rels[key].letters
                seq = list(map(_name, letters))
                k = seq.index(g)
                seq = seq[k + 1:] + seq[:k]
                if letters[k][1] > 0:
                    seq.reverse()
                names.append((key, tuple(dict.fromkeys(seq))))
        return names

    def count(self, w: Word, sign: int) -> None:
        """Add (sign 1) or remove (sign -1) w's letters in `total`."""
        total = self.total
        for g, n in _letter_counts(w).items():
            total[g] = total.get(g, 0) + sign * n
            self.dirty.add(g)

    def put(self, key: int | None, w: Word) -> None:
        """Make w relator `key`, or a new last relator when key is None;
        an empty w drops the relator.  Only the generators whose letter
        count changes are re-counted, and only the defining keys of the old
        and new word are redone."""
        old: dict[str, int] = {}
        if key is None:
            key, self.next_key = self.next_key, self.next_key + 1
        else:
            old = self.counts.pop(key)
            for g, n in old.items():
                if n == 1:
                    self.definitions[g].discard(key)
                    self.names.pop(g, None)
        new = _letter_counts(w)
        total, dirty, occ = self.total, self.dirty, self.occ
        for g, after in new.items():
            before = old.get(g, 0)
            if after != before:
                total[g] = total.get(g, 0) + after - before
                dirty.add(g)
                if not before:
                    occ.setdefault(g, set()).add(key)
        for g, before in old.items():
            if g not in new:
                total[g] -= before
                dirty.add(g)
                occ[g].discard(key)
        if not w:
            self.rels.pop(key, None)
            return
        self.rels[key] = w
        self.counts[key] = new
        for g in [g for g, n in new.items() if n == 1]:
            self.definitions.setdefault(g, set()).add(key)
            self.names.pop(g, None)
            self.dirty.add(g)

    def substitute_everywhere(self, images: dict[str, Word]) -> None:
        """Apply the map `images` once to every relator that mentions one
        of its generators, reducing each cyclically, and to the conditional
        relators and tier keys; then remove those generators and their
        pairs."""
        for key in set().union(*(self.occ.get(g, ()) for g in images)):
            self.put(key, cyclic_reduce(substitute(self.rels[key], images)))

        def sub(w: Word) -> Word:
            new = substitute(w, images)
            if new is not w:
                self.count(w, -1)
                self.count(new, 1)
            return new

        new_cond = []
        for rel, key, orig in self.conditional:
            rel, key = sub(rel), sub(key)
            if rel:
                new_cond.append((rel, key, orig))
            else:
                self.count(key, -1)
        self.conditional = new_cond
        self.tiers = [MeridionalTier(t.label, sub(t.key)) for t in self.tiers]
        for g in images:
            del self.gens[g]
        self.pairs = {pr for pr in self.pairs if pr.isdisjoint(images)}

    def snapshot(self) -> FpPresentation:
        return FpPresentation(
            generators=tuple(self.gens),
            relators=tuple(self.rels.values()),
            conditional=tuple(ConditionalRelator(rel, key)
                              for rel, key, _ in self.conditional),
            meridional=tuple(self.tiers),
        )


# -- move discovery --------------------------------------------------------

def _prove_pair(state: _State, x: str, y: str,
                steps: list[TraceStep]) -> bool:
    """Prove that x and y commute, appending the steps of the proof to
    `steps`, each after the steps it depends on.

    Collects the pairs the goal depends on, each with its rules, the ways
    to prove it: a commutator relator needs no other pair, a definition of
    either generator needs each of its letters to commute with the other
    generator.  Then it sweeps the pairs in the order they were found
    until a sweep settles none.  A pair settles by its first rule whose
    premises are all proved when the sweep reaches it, pairs settled
    earlier in the same sweep included; a settled pair leaves the later
    sweeps.  Every pair it settles, proved or not, is kept for the rest of
    the round.  It loops instead of recursing, so a long chain of
    definitions can neither exhaust the stack nor be searched more than
    once."""
    settled, pairs = state.settled, state.pairs
    occ, rels = state.occ, state.rels
    goal = frozenset((x, y))
    if x == y or goal in pairs:
        return True
    rules: dict[frozenset[str], list[_Rule]] = {}
    todo = [goal]
    while todo:
        pair = todo.pop()
        if pair in rules or pair in settled or pair in pairs:
            continue
        u, v = sorted(pair)
        both = occ.get(u, _NONE) & occ.get(v, _NONE)
        # a relator in `both` mentions u and v: a commutator names only them
        rules[pair] = options = [
            (PairFromRelator, u, v, key, []) for key in sorted(both)
            if _is_commutator(rels[key])] if both else []
        for g, other in ((u, v), (v, u)):
            for key, names in state.definition_names(g):
                premises = [frozenset((n, other)) for n in names
                            if n != other]
                options.append((PairFromDefinition, g, other, key, premises))
                todo += premises
    if rules:
        # the pairs proved this round so far
        proved = pairs.union([q for q, rule in settled.items() if rule])
        waiting = list(rules.items())
        while waiting:
            left = []
            for pair, options in waiting:
                for rule in options:
                    if proved.issuperset(rule[-1]):
                        settled[pair] = rule
                        proved.add(pair)
                        break
                else:
                    left.append((pair, options))
            if len(left) == len(waiting):
                break
            waiting = left
        for pair in rules:
            settled.setdefault(pair, None)
    if settled[goal] is None:
        return False
    todo = [goal]           # emit the goal's proof, premises first
    while todo:
        pair = todo[-1]
        cls, a, b, key, premises = settled[pair]
        waiting = [q for q in premises if q not in pairs]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        if pair not in pairs:
            pairs.add(pair)
            steps.append(cls(a, b, rels[key]))
    return True


def _is_commutator(r: Word) -> bool:
    """Whether r is a b a^-1 b^-1 for letters a and b, which name distinct
    generators as r is reduced: the cyclically reduced relators that are a
    rotation of [x^±1, y^±1]."""
    if len(r) != 4:
        return False
    (a, ea), (b, eb), third, fourth = r.letters
    return third == (a, -ea) and fourth == (b, -eb)


def _find_cancel(state: _State, steps: list[TraceStep]
                 ) -> tuple[CommutationCancel, int] | None:
    """First commutation cancellation x^e ... x^-e (interior commuting with
    x), with the key of its relator, checking both the inner arc and, via
    rotation, the cyclic outer arc of each candidate pair.  The commuting
    pairs it needs are proved on demand, their steps appended to `steps`."""
    def commutes(letters: Iterable[tuple[str, int]], x: str) -> bool:
        return all(_prove_pair(state, n, x, steps) for n, _ in letters)

    for key, r in state.rels.items():
        L = len(r)
        letters = r.letters
        for i in range(L - 1):
            xi, ei = letters[i]
            for j in range(i + 1, L):
                if letters[j] != (xi, -ei):
                    continue
                if commutes(letters[i + 1:j], xi):
                    return _make_cancel(r, 0, i, j, xi), key
                exterior = letters[j + 1:] + letters[:i]
                if commutes(exterior, xi):
                    return _make_cancel(r, j, 0, L - j + i, xi), key
    return None


def _make_cancel(r: Word, rotation: int, i: int, j: int,
                 x: str) -> CommutationCancel:
    w = rotate(r, rotation)
    after = cyclic_reduce(Word(w.letters[:i] + w.letters[i + 1:j]
                               + w.letters[j + 1:]))
    return CommutationCancel(before=r, after=after, rotation=rotation,
                             i=i, j=j, x=x)


def _find_elimination(state: _State
                      ) -> tuple[Eliminate | Kill, int | tuple[int, ...]] | None:
    """Cheapest Tietze elimination, with the key of its relator.  A
    generator occurring exactly once in some relator can be eliminated;
    kills (relator g^±1) and renames (definition of length one) are free,
    otherwise the cost estimates the growth caused by substituting the
    definition elsewhere.  The least (cost, len(definition), g, key) wins.
    When that is a kill and other generators have kills too, the move is
    one Kill of them all, in (g, key) order, with the keys of its relators.

    A definition is one letter shorter than its relator, which is
    cyclically reduced, so lengths are read off the relators: only the
    winning elimination's definition is built.  For a fixed g the cost
    grows with the definition's length, so g's best candidate is its
    definition of least (length, key) whatever its letter count.  The
    candidates wait in a heap that is invalidated lazily: each generator
    whose count or defining keys changed since the last search gets a
    fresh entry, and an entry that is no longer its generator's best is
    dropped when it reaches the top.  Kills lead the heap; the ones found
    are taken off it, as the engine applies a kill as soon as it is found."""
    rels = state.rels
    for g in state.dirty:
        keys = state.definitions.get(g)
        if not keys:
            state.best.pop(g, None)
            continue
        length, key = min([(len(rels[k]) - 1, k) for k in keys])
        # rels[key] mentions g exactly once, as it defines g
        cost = (state.total[g] - 1) * max(length - 1, 0)
        cand = (cost, length, g, key)
        if state.best.get(g) != cand:
            state.best[g] = cand
            heappush(state.heap, cand)
    state.dirty.clear()
    heap = state.heap
    while heap and state.best.get(heap[0][2]) != heap[0]:
        heappop(heap)
    if not heap:
        return None
    _, length, g, key = heap[0]
    if length:
        return Eliminate(gen=g, definition=defining_rotation(rels[key], g),
                         via=rels[key]), key
    kills = []
    while heap and not heap[0][1]:
        entry = heappop(heap)
        if state.best.get(entry[2]) == entry:
            del state.best[entry[2]]        # a copy of the entry may follow
            kills.append(entry[2:])
    if len(kills) == 1:
        [(g, key)] = kills
        return Eliminate(gen=g, definition=IDENTITY, via=state.rels[key]), key
    keys = tuple(key for _, key in kills)
    return Kill(tuple(state.rels[key] for key in keys)), keys


def _find_replacement(state: _State) -> tuple[ReplaceSubword, int] | None:
    """Length-reducing application of one relator inside another, with the
    key of the relator it rewrites: if a rotation/inversion of `via` splits
    as s t with |s| > |t|, then s = t^-1 in the group and any occurrence of
    s may be replaced by t^-1."""
    for key, target in state.rels.items():
        tletters = target.letters
        for via in state.rels.values():
            if via == target or len(via) < 2:
                continue
            for inverted in (False, True):
                base = via.inverse() if inverted else via
                for rot_k in range(len(base)):
                    w = rotate(base, rot_k)
                    for split in range(len(w), len(w) // 2, -1):
                        if split > len(tletters):
                            continue
                        s = w.letters[:split]
                        t = Word(w.letters[split:])
                        for at in range(len(tletters) - split + 1):
                            if tletters[at:at + split] != s:
                                continue
                            after = cyclic_reduce(Word(
                                tletters[:at] + t.inverse().letters
                                + tletters[at + split:]))
                            return ReplaceSubword(
                                before=target, after=after, via=via,
                                via_rotation=rot_k, via_inverted=inverted,
                                split=split, at=at), key
    return None


# -- move application -------------------------------------------------------

def _apply(state: _State,
           step: Eliminate | Kill | CommutationCancel | ReplaceSubword,
           key: int | tuple[int, ...]) -> None:
    """Apply a move at relator `key` (at each of a Kill's keys), where its
    finder found it.

    The checker applies a step to the first relator equal to the one it
    names, and `key` is that copy: each finder scans the relators in key
    order, and equal relators yield equal moves.  `_find_elimination`
    ranks its candidates by (cost, length, generator, key), and within a
    round `state.settled` gives every copy of a relator the same answer
    for each pair."""
    if isinstance(step, Kill):
        images = {r.letters[0][0]: IDENTITY for r in step.relators}
        keys = key
    elif isinstance(step, Eliminate):
        images, keys = {step.gen: step.definition}, (key,)
    else:
        state.put(key, step.after)
        return
    for k in keys:
        state.put(k, IDENTITY)
    state.substitute_everywhere(images)


def _discharge_pass(state: _State) -> list[TraceStep]:
    """Discharge tiers and activate conditional relators whose current key
    word is freely trivial."""
    steps: list[TraceStep] = []
    remaining_tiers = []
    for t in state.tiers:
        if not t.key:
            steps.append(DischargeMeridional(t.label))
        else:
            remaining_tiers.append(t)
    state.tiers = remaining_tiers
    remaining_cond = []
    for rel, key, orig in state.conditional:
        if not key:
            steps.append(ActivateConditional(rel))
            state.activated.append(orig)
            state.count(rel, -1)
            state.put(None, cyclic_reduce(rel))
        else:
            remaining_cond.append((rel, key, orig))
    state.conditional = remaining_cond
    return steps


# -- the engine -------------------------------------------------------------

def _run_engine(p: FpPresentation, budget: Budget, *,
                allow_discharge: bool) -> tuple[_State, list[TraceStep], bool]:
    """Returns (final state, trace, budget_exhausted)."""
    state = _State(p)
    trace: list[TraceStep] = []

    def spent() -> bool:
        return len(trace) >= budget.max_derivation_steps

    while True:
        if spent():
            return state, trace, True
        discharged = _discharge_pass(state) if allow_discharge else []
        trace.extend(discharged)
        state.settled = {}          # forget last round's settled pairs
        # a kill first, then a cancellation, any elimination, a replacement
        move = _find_elimination(state)
        if move is None or (isinstance(move[0], Eliminate)
                            and move[0].definition):
            move = (_find_cancel(state, trace) or move
                    or _find_replacement(state))
        if move is not None:
            trace.append(move[0])
            _apply(state, *move)
        elif not discharged:
            return state, trace, False


def simplify(p: FpPresentation, budget: Budget | None = None) -> FpPresentation:
    """Tietze-safe simplification.  Never discharges tiers or activates
    conditional relators, so the presented group (and in particular its
    abelianization over the ordinary relators) is preserved exactly."""
    state, _, _ = _run_engine(p, budget or Budget(), allow_discharge=False)
    return state.snapshot()


def commutation_closure(p: FpPresentation) -> frozenset[frozenset[str]]:
    """The commuting generator pairs provable from p's relators by the
    closure rules (commutator relators; definitional relators whose
    definition commutes letterwise)."""
    state = _State(p)
    for i, x in enumerate(p.generators):
        for y in p.generators[i + 1:]:
            _prove_pair(state, x, y, [])
    return frozenset(state.pairs)


def _verdict_from_state(state: _State) -> tuple[str, str | None, int | None, str | None]:
    """(verdict, generator, order, reason) read off a terminal state."""
    if state.tiers:
        labels = ", ".join(t.label for t in state.tiers)
        return (INCONCLUSIVE, None, None,
                f"meridional tier(s) {labels} not discharged: key word was "
                "never proved trivial")
    if not state.gens:
        return (TRIVIAL, None, None, None)
    if len(state.gens) == 1:
        (g,) = state.gens
        if state.conditional:
            return (INCONCLUSIVE, None, None,
                    "conditional relator(s) never activated: key word was "
                    "never proved trivial")
        exponents = [abs(r.exponent_sum(g)) for r in state.rels.values()]
        d = 0
        for e in exponents:
            d = gcd(d, e)
        if d == 0:
            return (INFINITE_CYCLIC, g, None, None)
        if d >= 2:
            return (FINITE_CYCLIC, g, d, None)
        return (INCONCLUSIVE, None, None,
                "single-generator state with relator exponents of gcd 1 "
                "was not resolved")
    return (INCONCLUSIVE, None, None,
            f"simplification stalled with {len(state.gens)} generators and "
            f"{len(state.rels)} relators")


def certify(p: FpPresentation, target: str | None = None,
            budget: Budget | None = None) -> Certificate:
    """Run the derivation engine on p and package the result.

    Definite verdicts carry a trace ending at the empty or a single-
    generator presentation (replayable by checker.py), pass an
    abelianization consistency gate, and — unless budget.corroborate is
    off — are corroborated by a coset enumeration: over the trivial
    subgroup for a trivial verdict, over the surviving generator for a
    cyclic one (expected index 1 in both cases).
    """
    if target is not None:
        parse_target(target)
    budget = budget or Budget()
    state, trace, exhausted = _run_engine(p, budget, allow_discharge=True)
    if exhausted:
        verdict, generator, order, reason = (
            INCONCLUSIVE, None, None,
            f"derivation budget ({budget.max_derivation_steps} steps) exhausted")
    else:
        verdict, generator, order, reason = _verdict_from_state(state)

    h1_rank: int | None = None
    h1_torsion: tuple[int, ...] | None = None
    coset_index: int | None = None
    coset_subgroup: tuple[str, ...] | None = None

    if verdict != INCONCLUSIVE:
        # certified basis: the input with the (now discharged) tier removed
        basis = p.strip_meridional()
        ab = h1(basis, include_h1_safe_conditionals=True)
        h1_rank, h1_torsion = ab.rank, ab.torsion
        expected = AbelianGroup(*h1_of(verdict, order))
        if ab != expected:
            verdict, generator, order, reason = (
                INCONCLUSIVE, None, None,
                f"abelianization gate: derivation reached a "
                f"{expected} answer but H1 of the input is {ab}")

    if verdict != INCONCLUSIVE and budget.corroborate:
        subgroup_names = coset_subgroup_of(verdict, generator)
        result = coset_enumeration(core_presentation(p, state.activated),
                                   [gen(g) for g in subgroup_names],
                                   max_cosets=budget.max_cosets)
        coset_subgroup = subgroup_names
        if isinstance(result, CosetCount):
            coset_index = result.index
            if result.index != 1:
                verdict, generator, order, reason = (
                    INCONCLUSIVE, None, None,
                    f"coset enumeration gate: expected index 1 over "
                    f"{subgroup_names or 'the trivial subgroup'}, got {result.index}")
        else:                           # Exceeded: the budget ran out,
            coset_index = None          # the trace still stands

    return Certificate(
        verdict=verdict,
        generator=generator,
        order=order,
        reason=reason,
        presentation=p,
        final=state.snapshot(),
        trace=tuple(trace),
        activated=tuple(state.activated),
        h1_rank=h1_rank,
        h1_torsion=h1_torsion,
        coset_index=coset_index,
        coset_subgroup=coset_subgroup,
        steps_used=len(trace),
        target=target,
        matches_target=(None if target is None
                        else target_of(verdict, order) == target),
    )
