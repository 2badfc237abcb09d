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

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Iterable

from .abelian import AbelianGroup, h1
from .coset import CosetCount, coset_enumeration
from .presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    PresentationError,
    defining_rotation,
    format_presentation,
    parse_presentation,
)
from .trace import (
    ActivateConditional,
    CertificateFormatError,
    CommutationCancel,
    DischargeMeridional,
    Eliminate,
    PairFromDefinition,
    PairFromRelator,
    ReplaceSubword,
    TraceStep,
    json_field,
    step_from_json,
    step_to_json,
)
from .words import (
    Word,
    WordSyntaxError,
    commutator,
    cyclic_reduce,
    cyclically_equal,
    format_word,
    gen,
    parse_word,
    rotate,
    substitute,
)

TRIVIAL = "trivial"
INFINITE_CYCLIC = "infinite_cyclic"
FINITE_CYCLIC = "finite_cyclic"
INCONCLUSIVE = "inconclusive"


class BudgetError(ValueError):
    """The coset budget is not a positive integer."""


def _default_cosets() -> int:
    raw = os.environ.get("M4KIT_BUDGET_COSETS", "1000000")
    try:
        return int(raw)
    except ValueError:
        raise BudgetError(
            f"M4KIT_BUDGET_COSETS={raw!r} is not an integer") from None


@dataclass(frozen=True)
class Budget:
    max_cosets: int = field(default_factory=_default_cosets)
    max_derivation_steps: int = 10_000
    corroborate: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.max_cosets, int) or self.max_cosets < 1:
            raise BudgetError(f"the coset budget must be a positive "
                              f"integer, got {self.max_cosets!r}")


# a step that proves a commuting pair, with the pairs it needs proved first
_Rule = tuple[TraceStep, list[frozenset[str]]]


class _State:
    """Mutable working copy of a presentation plus the proved commuting
    pairs.  Relators are kept cyclically reduced and nonempty; conditional
    relators with empty current form are dropped as vacuous."""

    def __init__(self, p: FpPresentation):
        self.gens: list[str] = list(p.generators)
        self.relators: list[Word] = []
        for r in p.relators:
            r = cyclic_reduce(r)
            if r:
                self.relators.append(r)
        # (current relator, current key, original relator)
        self.conditional: list[tuple[Word, Word, Word]] = [
            (c.relator, c.key, c.relator) for c in p.conditional if c.relator]
        self.tiers: list[MeridionalTier] = list(p.meridional)
        self.pairs: set[frozenset[str]] = set()
        self.activated: list[Word] = []      # original forms, for reporting
        # relator -> [(g, definition)] for each g it mentions once
        self.defines: dict[Word, list[tuple[str, Word]]] = {}
        self.index_definitions()

    def paired(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in self.pairs

    def index_definitions(self) -> None:
        """Index the current relators for one engine round: each generator
        maps to its definitional relators as (relator index, relator,
        definition).  A relator's definitions are computed once, when it
        first appears, and kept while it survives: an elimination rebuilds
        only the relators it touches.  The pairs settled by last round's
        proofs are forgotten."""
        seen, self.defines = self.defines, {}
        self.definitions: dict[str, list[tuple[int, Word, Word]]] = {}
        for idx, r in enumerate(self.relators):
            entries = self.defines.get(r, seen.get(r))
            if entries is None:
                # a Counter keeps first-appearance order, so the index is
                # stable
                entries = [(g, defining_rotation(r, g)) for g, count
                           in Counter(n for n, _ in r.letters).items()
                           if count == 1]
            self.defines[r] = entries
            for g, definition in entries:
                self.definitions.setdefault(g, []).append((idx, r, definition))
        # pair -> (step, pairs it needs) if proved this round, else None
        self.settled: dict[frozenset[str], _Rule | None] = {}

    def substitute_everywhere(self, name: str, definition: Word) -> None:
        images = {name: definition}
        new_rels = []
        for r in self.relators:
            r2 = cyclic_reduce(substitute(r, images))
            if r2:
                new_rels.append(r2)
        self.relators = new_rels
        new_cond = []
        for rel, key, orig in self.conditional:
            rel2 = substitute(rel, images)
            if rel2:
                new_cond.append((rel2, substitute(key, images), orig))
        self.conditional = new_cond
        self.tiers = [MeridionalTier(t.label, substitute(t.key, images))
                      for t in self.tiers]
        self.gens.remove(name)
        self.pairs = {pr for pr in self.pairs if name not in pr}

    def snapshot(self) -> FpPresentation:
        return FpPresentation(
            generators=tuple(self.gens),
            relators=tuple(self.relators),
            conditional=tuple(ConditionalRelator(rel, key)
                              for rel, key, _ in self.conditional),
            meridional=tuple(self.tiers),
        )


# -- move discovery --------------------------------------------------------

def _prove_pair(state: _State, x: str, y: str,
                steps: list[TraceStep]) -> bool:
    """Prove that x and y commute, appending the steps of the proof to
    `steps`, each after the steps it depends on.  Collects the pairs the
    goal depends on, derives among them until nothing changes, and keeps
    every pair it settles, proved or not, for the rest of the round.  It
    loops instead of recursing, so a long chain of definitions can neither
    exhaust the stack nor be searched more than once."""
    if state.paired(x, y):
        return True
    goal = frozenset((x, y))
    rules: dict[frozenset[str], list[_Rule]] = {}
    todo = [goal]
    while todo:
        pair = todo.pop()
        if pair not in rules and pair not in state.settled \
                and not state.paired(*pair):
            rules[pair] = _pair_rules(state, pair)
            todo += [q for _, premises in rules[pair] for q in premises]
    changed = True
    while changed:
        changed = False
        for pair, options in rules.items():
            if pair in state.settled:
                continue
            for step, premises in options:
                if all(state.paired(*q) or state.settled.get(q)
                       for q in premises):
                    state.settled[pair] = (step, premises)
                    changed = True
                    break
    for pair in rules:
        state.settled.setdefault(pair, None)
    if state.settled[goal] is None:
        return False
    todo = [goal]           # emit the goal's proof, premises first
    while todo:
        pair = todo[-1]
        step, premises = state.settled[pair]
        waiting = [q for q in premises if not state.paired(*q)]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        if not state.paired(*pair):
            state.pairs.add(pair)
            steps.append(step)
    return True


def _pair_rules(state: _State, pair: frozenset[str]) -> list[_Rule]:
    """The steps that can prove a pair, each with the pairs it needs: a
    commutator relator needs none, a definition of either generator needs
    each of its letters to commute with the other generator."""
    x, y = sorted(pair)
    rules: list[_Rule] = [
        (PairFromRelator(x, y, r), []) for r in state.relators
        if len(r) == 4 and r.names() == pair and any(
            cyclically_equal(r, commutator(gen(x, ex), gen(y, ey)))
            for ex in (1, -1) for ey in (1, -1))]
    for g, other in ((x, y), (y, x)):
        rules += [(PairFromDefinition(g, other, r),
                   [frozenset((n, other)) for n in
                    dict.fromkeys(n for n, _ in definition.letters)
                    if n != other])
                  for _, r, definition in state.definitions.get(g, ())]
    return rules


def _find_cancel(state: _State,
                 steps: list[TraceStep]) -> CommutationCancel | None:
    """First commutation cancellation x^e ... x^-e (interior commuting with
    x), checking both the inner arc and, via rotation, the cyclic outer
    arc of each candidate pair.  The commuting pairs it needs are proved
    on demand, their steps appended to `steps`."""
    def commutes(letters: Iterable[tuple[str, int]], x: str) -> bool:
        return all(_prove_pair(state, n, x, steps) for n, _ in letters)

    for r in state.relators:
        L = len(r)
        letters = r.letters
        for i in range(L - 1):
            xi, ei = letters[i]
            for j in range(i + 1, L):
                if letters[j] != (xi, -ei):
                    continue
                if commutes(letters[i + 1:j], xi):
                    return _make_cancel(state, r, 0, i, j, xi)
                exterior = letters[j + 1:] + letters[:i]
                if commutes(exterior, xi):
                    return _make_cancel(state, r, j, 0, L - j + i, xi)
    return None


def _make_cancel(state: _State, r: Word, rotation: int, i: int, j: int,
                 x: str) -> CommutationCancel:
    w = rotate(r, rotation)
    after = cyclic_reduce(Word(w.letters[:i] + w.letters[i + 1:j]
                               + w.letters[j + 1:]))
    return CommutationCancel(before=r, after=after, rotation=rotation,
                             i=i, j=j, x=x)


def _find_elimination(state: _State) -> Eliminate | None:
    """Cheapest Tietze elimination.  A generator occurring exactly once in
    some relator can be eliminated; kills (relator g^±1) and renames
    (definition of length one) are free, otherwise the cost estimates the
    growth caused by substituting the definition elsewhere."""
    words = [*state.relators, *(t.key for t in state.tiers)]
    for rel, key, _ in state.conditional:
        words += (rel, key)
    total = Counter(n for w in words for n, _ in w.letters)
    best = None
    for g, entries in state.definitions.items():
        for idx, r, definition in entries:
            # r mentions g exactly once, as it defines g
            cost = (total[g] - 1) * max(len(definition) - 1, 0)
            cand = (cost, len(definition), g, idx)
            if best is None or cand < best[0]:
                best = (cand, g, definition, r)
    if best is None:
        return None
    _, g, definition, r = best
    return Eliminate(gen=g, definition=definition, via=r)


def _find_replacement(state: _State) -> ReplaceSubword | None:
    """Length-reducing application of one relator inside another: if a
    rotation/inversion of `via` splits as s t with |s| > |t|, then s = t^-1
    in the group and any occurrence of s may be replaced by t^-1."""
    for ti, target in enumerate(state.relators):
        tletters = target.letters
        for vi, via in enumerate(state.relators):
            if vi == ti or via == target or len(via) < 2:
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
                                split=split, at=at)
    return None


# -- move application -------------------------------------------------------

def _apply_rewrite(state: _State,
                   step: CommutationCancel | ReplaceSubword) -> None:
    i = state.relators.index(step.before)
    if step.after:
        state.relators[i] = step.after
    else:
        del state.relators[i]


def _apply_elimination(state: _State, step: Eliminate) -> None:
    i = state.relators.index(step.via)
    del state.relators[i]
    state.substitute_everywhere(step.gen, step.definition)


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
            promoted = cyclic_reduce(rel)
            if promoted:
                state.relators.append(promoted)
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
        state.index_definitions()
        step = _find_elimination(state)
        if step is not None and not step.definition:
            trace.append(step)
            _apply_elimination(state, step)
            continue
        cancel = _find_cancel(state, trace)
        if cancel is not None:
            trace.append(cancel)
            _apply_rewrite(state, cancel)
            continue
        if step is not None:
            trace.append(step)
            _apply_elimination(state, step)
            continue
        repl = _find_replacement(state)
        if repl is not None:
            trace.append(repl)
            _apply_rewrite(state, repl)
            continue
        if not discharged:
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
    for i, x in enumerate(state.gens):
        for y in state.gens[i + 1:]:
            _prove_pair(state, x, y, [])
    return frozenset(state.pairs)


# -- certificates -----------------------------------------------------------

_NULL = type(None)
# the JSON types of each certificate field, and of the items of list fields
_FIELDS: dict[str, tuple[type, ...]] = {
    "verdict": (str,), "generator": (str, _NULL), "order": (int, _NULL),
    "reason": (str, _NULL), "presentation": (str,), "final": (str,),
    "trace": (list,), "activated": (list,), "h1_rank": (int, _NULL),
    "h1_torsion": (list, _NULL), "coset_index": (int, _NULL),
    "coset_subgroup": (list, _NULL), "steps_used": (int,),
    "target": (str, _NULL), "matches_target": (bool, _NULL),
}
_ITEMS = {"activated": str, "h1_torsion": int, "coset_subgroup": str}


def core_presentation(p: FpPresentation,
                      activated: Iterable[Word]) -> FpPresentation:
    """The conditional-free core that coset corroboration runs on: p's
    generators and relators plus every activated conditional relator."""
    return FpPresentation(p.generators, p.relators + tuple(activated))


@dataclass(frozen=True)
class Certificate:
    verdict: str
    generator: str | None
    order: int | None
    reason: str | None
    presentation: FpPresentation
    final: FpPresentation
    trace: tuple[TraceStep, ...]
    activated: tuple[Word, ...]
    h1_rank: int | None
    h1_torsion: tuple[int, ...] | None
    coset_index: int | None
    coset_subgroup: tuple[str, ...] | None
    steps_used: int
    target: str | None
    matches_target: bool | None

    @property
    def is_definite(self) -> bool:
        return self.verdict != INCONCLUSIVE

    def core(self) -> FpPresentation:
        """The input relators plus the activated conditionals: a
        presentation that the true group genuinely satisfies."""
        return core_presentation(self.presentation, self.activated)

    def describe(self) -> str:
        if self.verdict == TRIVIAL:
            return "trivial"
        if self.verdict == INFINITE_CYCLIC:
            return f"Z (generated by {self.generator})"
        if self.verdict == FINITE_CYCLIC:
            return f"Z/{self.order} (generated by {self.generator})"
        return f"inconclusive: {self.reason}"

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": "m4kit.certificate/1",
            "verdict": self.verdict,
            "generator": self.generator,
            "order": self.order,
            "reason": self.reason,
            "presentation": format_presentation(self.presentation),
            "final": format_presentation(self.final),
            "trace": [step_to_json(s) for s in self.trace],
            "activated": [format_word(w) for w in self.activated],
            "h1_rank": self.h1_rank,
            "h1_torsion": list(self.h1_torsion) if self.h1_torsion is not None else None,
            "coset_index": self.coset_index,
            "coset_subgroup": list(self.coset_subgroup)
                              if self.coset_subgroup is not None else None,
            "steps_used": self.steps_used,
            "target": self.target,
            "matches_target": self.matches_target,
        }

    @staticmethod
    def from_json(data: Any) -> "Certificate":
        """Decode to_json() output.  Raises CertificateFormatError on a
        wrong schema or verdict, a missing field or a wrongly typed value."""
        schema = json_field(data, "schema", "certificate", str)
        if schema != "m4kit.certificate/1":
            raise CertificateFormatError(f"unknown schema {schema!r}")
        f = {key: json_field(data, key, "certificate", *kinds)
             for key, kinds in _FIELDS.items()}
        for key, kind in _ITEMS.items():
            if f[key] is not None and any(type(x) is not kind for x in f[key]):
                raise CertificateFormatError(
                    f"certificate field {key!r} must list {kind.__name__} values")
        if f["verdict"] not in (TRIVIAL, INFINITE_CYCLIC, FINITE_CYCLIC,
                                INCONCLUSIVE):
            raise CertificateFormatError(f"unknown verdict {f['verdict']!r}")
        try:
            f.update(presentation=parse_presentation(f["presentation"]),
                     final=parse_presentation(f["final"]),
                     trace=[step_from_json(s) for s in f["trace"]],
                     activated=[parse_word(w) for w in f["activated"]])
        except (PresentationError, WordSyntaxError) as exc:
            raise CertificateFormatError(f"certificate: {exc}") from None
        return Certificate(**{key: tuple(v) if type(v) is list else v
                              for key, v in f.items()})


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
        g = state.gens[0]
        if state.conditional:
            return (INCONCLUSIVE, None, None,
                    "conditional relator(s) never activated: key word was "
                    "never proved trivial")
        exponents = [abs(r.exponent_sum(g)) for r in state.relators]
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
            f"{len(state.relators)} relators")


_TARGETS = {TRIVIAL: "trivial", INFINITE_CYCLIC: "Z"}


def target_of(verdict: str, order: int | None) -> str | None:
    """The target a verdict meets: "trivial", "Z" or "Z/n"; None when
    inconclusive."""
    return f"Z/{order}" if verdict == FINITE_CYCLIC else _TARGETS.get(verdict)


def parse_target(text: str) -> str:
    """Return text if it is a target: "trivial", "Z" or "Z/n" with n >= 2
    written without leading zeros.  Raises ValueError otherwise."""
    if text in _TARGETS.values() or re.fullmatch(r"Z/([2-9]|[1-9]\d+)", text):
        return text
    raise ValueError(f"unknown target {text!r} (expected trivial, Z, or Z/n "
                     "with n >= 2)")


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
        expected = {
            TRIVIAL: AbelianGroup(0),
            INFINITE_CYCLIC: AbelianGroup(1),
            FINITE_CYCLIC: AbelianGroup(0, (order,) if order else ()),
        }[verdict]
        if ab != expected:
            verdict, generator, order, reason = (
                INCONCLUSIVE, None, None,
                f"abelianization gate: derivation reached a "
                f"{expected} answer but H1 of the input is {ab}")

    if verdict != INCONCLUSIVE and budget.corroborate:
        # a definite verdict names a generator exactly when it is cyclic
        subgroup_names = () if generator is None else (generator,)
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
