"""Independent replay of certificates.

The checker rebuilds the derivation from a certificate's trace using word
algebra only — free/cyclic reduction, rotation, substitution — and a pair
set and an occurrence index it maintains itself.  It imports words,
presentations and the certificate format (trace.py), and no module of the
engine, the abelianization or the coset enumerator, so a bug there cannot
hide here: every step is re-verified against its own soundness contract
(see trace.py) before it is applied, the terminal state must match the
certificate's, and a definite verdict, generator and order must be the
checker's own reading of that state.  The fields the trace and the
verdict determine (activated relators, step count, reason, target, H1,
coset index and subgroup) must agree with them, by the rules in trace.py.

Raises CheckFailure with a specific message on the first discrepancy.
"""

from __future__ import annotations

from math import gcd

from .presentation import ConditionalRelator, FpPresentation, MeridionalTier
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
    coset_subgroup_of,
    h1_of,
    parse_target,
    target_of,
)
from .words import (
    Word,
    commutator,
    cyclic_reduce,
    cyclically_equal,
    format_word,
    gen,
    rotate,
    substitute,
)


class CheckFailure(Exception):
    pass


def _fail(msg: str) -> None:
    raise CheckFailure(msg)


class _Replay:
    def __init__(self, p: FpPresentation):
        self.gens = dict.fromkeys(p.generators)
        # relators under keys that only grow, so dict order is relator
        # order, and generator -> keys of the relators that mention it
        self.rels: dict[int, Word] = {}
        self.names: dict[int, frozenset[str]] = {}  # key -> its names
        self.occ: dict[str, set[int]] = {}
        self.next_key = 0
        for r in p.relators:
            self.put(None, cyclic_reduce(r))
        # (current relator, current key, original relator)
        self.conditional = [(c.relator, c.key, c.relator)
                            for c in p.conditional if c.relator]
        self.tiers = [(t.label, t.key) for t in p.meridional]
        self.pairs: set[frozenset[str]] = set()
        self.activated: list[Word] = []      # original forms, in order

    def paired(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in self.pairs

    def put(self, key: int | None, w: Word) -> None:
        """Make w relator `key`, or a new last relator when key is None;
        an empty w drops the relator."""
        old: frozenset[str] = frozenset()
        if key is None:
            key, self.next_key = self.next_key, self.next_key + 1
        else:
            old = self.names.pop(key)
        new = w.names()
        for n in old - new:
            self.occ[n].discard(key)
        for n in new - old:
            self.occ.setdefault(n, set()).add(key)
        if w:
            self.rels[key] = w
            self.names[key] = new
        else:
            self.rels.pop(key, None)

    def require_relator(self, w: Word, what: str) -> int:
        """The key of the first relator equal to w."""
        keys = [k for k in self.occ.get(w.letters[0][0], ())
                if self.rels[k] == w] if w else []
        if not keys:
            _fail(f"{what}: relator {format_word(w)!r} is not in the state")
        return min(keys)

    def rewrite_of(self, r: Word, name: str, what: str) -> Word:
        """The definition of `name` read off relator r (which must mention
        it exactly once) for step kind `what`.  Since r is in the state
        and every relator names only live generators, `name` is live."""
        if r.occurrences(name) != 1:
            _fail(f"{what}: relator {format_word(r)!r} does not define "
                  f"{name!r} (not a single occurrence)")
        k = next(i for i, (n, _) in enumerate(r.letters) if n == name)
        rot = rotate(r, k)
        e = rot.letters[0][1]
        tail = Word(rot.letters[1:])
        return tail.inverse() if e > 0 else tail

    # -- step handlers ----------------------------------------------------

    def pair_from_relator(self, s: PairFromRelator) -> None:
        self.require_relator(s.relator, "pair_from_relator")
        if s.x == s.y or s.x not in self.gens or s.y not in self.gens:
            _fail(f"pair_from_relator: bad pair ({s.x}, {s.y})")
        # this also rules out any relator not of four letters on x and y
        if not any(cyclically_equal(s.relator, commutator(gen(s.x, ex), gen(s.y, ey)))
                   for ex in (1, -1) for ey in (1, -1)):
            _fail(f"pair_from_relator: {format_word(s.relator)!r} is not a "
                  f"commutator of {s.x}^±1 and {s.y}^±1")
        self.pairs.add(frozenset((s.x, s.y)))

    def pair_from_definition(self, s: PairFromDefinition) -> None:
        r = s.relator
        self.require_relator(r, "pair_from_definition")
        # rewrite_of rejects an unknown s.gen: no relator names it
        if s.gen == s.other or s.other not in self.gens:
            _fail(f"pair_from_definition: bad pair ({s.gen}, {s.other})")
        definition = self.rewrite_of(r, s.gen, "pair_from_definition")
        for n, _ in definition.letters:
            if not self.paired(n, s.other):
                _fail(f"pair_from_definition: letter {n!r} of the definition "
                      f"of {s.gen!r} is not known to commute with {s.other!r}")
        self.pairs.add(frozenset((s.gen, s.other)))

    def commutation_cancel(self, s: CommutationCancel) -> None:
        idx = self.require_relator(s.before, "commutation_cancel")
        L = len(s.before)
        if not (0 <= s.rotation < L and 0 <= s.i < s.j < L):
            _fail("commutation_cancel: positions out of range")
        w = rotate(s.before, s.rotation)
        ni, ei = w.letters[s.i]
        nj, ej = w.letters[s.j]
        if ni != s.x or nj != s.x or ei != -ej:
            _fail(f"commutation_cancel: positions {s.i},{s.j} do not hold "
                  f"{s.x}^e and {s.x}^-e")
        for n, _ in w.letters[s.i + 1:s.j]:
            if not self.paired(n, s.x):
                _fail(f"commutation_cancel: interior letter {n!r} is not "
                      f"known to commute with {s.x!r}")
        self._rewrite(idx, w.letters[:s.i] + w.letters[s.i + 1:s.j]
                      + w.letters[s.j + 1:], s.after, "commutation_cancel")

    def eliminate(self, s: Eliminate) -> None:
        idx = self.require_relator(s.via, "eliminate")
        definition = self.rewrite_of(s.via, s.gen, "eliminate")
        # read off gen's one occurrence, definition avoids gen, as s's must
        if definition != s.definition:
            _fail(f"eliminate: relator {format_word(s.via)!r} defines "
                  f"{s.gen} = {format_word(definition)}, not "
                  f"{format_word(s.definition)}")
        self.put(idx, Word())
        self._substitute_everywhere({s.gen: definition})

    def kill(self, s: Kill) -> None:
        if len(s.relators) < 2:
            _fail("kill: fewer than two relators (a single kill is an "
                  "eliminate step)")
        images: dict[str, Word] = {}
        for r in s.relators:
            if len(r) != 1:
                _fail(f"kill: relator {format_word(r)!r} is not one letter")
            ((name, _),) = r.letters
            if name in images:
                _fail(f"kill: generator {name!r} is killed twice")
            images[name] = Word()
        # a one-letter relator on a dead or unknown name is never in the state
        for k in [self.require_relator(r, "kill") for r in s.relators]:
            self.put(k, Word())
        self._substitute_everywhere(images)

    def _substitute_everywhere(self, images: dict[str, Word]) -> None:
        """Apply the map `images` once to every relator that mentions one
        of its generators, reducing each cyclically, and to the conditional
        relators and keys; then remove those generators and their pairs."""
        for k in set().union(*(self.occ.get(g, ()) for g in images)):
            self.put(k, cyclic_reduce(substitute(self.rels[k], images)))

        new_cond = []
        for rel, key, orig in self.conditional:
            rel2 = substitute(rel, images)
            if rel2:
                new_cond.append((rel2, substitute(key, images), orig))
        self.conditional = new_cond
        self.tiers = [(label, substitute(key, images))
                      for label, key in self.tiers]
        for g in images:
            del self.gens[g]
        self.pairs = {pr for pr in self.pairs if pr.isdisjoint(images)}

    def replace_subword(self, s: ReplaceSubword) -> None:
        idx = self.require_relator(s.before, "replace_subword")
        self.require_relator(s.via, "replace_subword (via)")
        if s.via == s.before:
            _fail("replace_subword: a relator may not rewrite itself")
        base = s.via.inverse() if s.via_inverted else s.via
        if not (0 <= s.via_rotation < len(base)):
            _fail("replace_subword: rotation out of range")
        w = rotate(base, s.via_rotation)
        if not (len(w) // 2 < s.split <= len(w)):
            _fail("replace_subword: split does not shorten")
        sub = w.letters[:s.split]
        t = Word(w.letters[s.split:])
        # past the end, the slice below is too short to match
        if s.at < 0:
            _fail("replace_subword: occurrence out of range")
        if s.before.letters[s.at:s.at + s.split] != sub:
            _fail("replace_subword: claimed occurrence does not match")
        self._rewrite(idx, s.before.letters[:s.at] + t.inverse().letters
                      + s.before.letters[s.at + s.split:], s.after,
                      "replace_subword")

    def _rewrite(self, idx: int, letters: tuple[tuple[str, int], ...],
                 recorded: Word, what: str) -> None:
        """Reduce the rewritten letters, require the step's recorded
        result, and put it in place of relator idx."""
        after = cyclic_reduce(Word(letters))
        if after != recorded:
            _fail(f"{what}: recorded result does not match "
                  f"({format_word(after)} != {format_word(recorded)})")
        self.put(idx, after)

    def activate_conditional(self, s: ActivateConditional) -> None:
        for k, (rel, key, orig) in enumerate(self.conditional):
            if rel == s.relator and not key:
                del self.conditional[k]
                self.put(None, cyclic_reduce(rel))
                self.activated.append(orig)
                return
        _fail(f"activate_conditional: no conditional relator "
              f"{format_word(s.relator)!r} with a trivial key")

    def discharge_meridional(self, s: DischargeMeridional) -> None:
        for k, (label, key) in enumerate(self.tiers):
            if label == s.label and not key:
                del self.tiers[k]
                return
        _fail(f"discharge_meridional: no tier {s.label!r} with a trivial key")

    def snapshot(self) -> FpPresentation:
        return FpPresentation(
            generators=tuple(self.gens),
            relators=tuple(self.rels.values()),
            conditional=tuple(ConditionalRelator(rel, key)
                              for rel, key, _ in self.conditional),
            meridional=tuple(MeridionalTier(label, key)
                             for label, key in self.tiers),
        )


_HANDLERS = {
    PairFromRelator: _Replay.pair_from_relator,
    PairFromDefinition: _Replay.pair_from_definition,
    CommutationCancel: _Replay.commutation_cancel,
    Eliminate: _Replay.eliminate,
    Kill: _Replay.kill,
    ReplaceSubword: _Replay.replace_subword,
    ActivateConditional: _Replay.activate_conditional,
    DischargeMeridional: _Replay.discharge_meridional,
}


def replay(cert: Certificate, presentation: FpPresentation | None = None) -> None:
    """Replay and audit a certificate.  If `presentation` is given, it must
    equal the one embedded in the certificate (guarding against a swapped
    starting point).  Raises CheckFailure on any discrepancy."""
    if presentation is not None and presentation != cert.presentation:
        _fail("certificate presentation does not match the given one")
    state = _Replay(cert.presentation)
    for n, step in enumerate(cert.trace):
        handler = _HANDLERS.get(type(step))
        if handler is None:
            _fail(f"step {n}: unknown step kind {type(step).__name__}")
        try:
            handler(state, step)
        except CheckFailure as exc:
            raise CheckFailure(f"step {n}: {exc}") from None

    if state.snapshot() != cert.final:
        _fail("terminal state does not match the certificate's final "
              "presentation")
    if state.activated != list(cert.activated):
        _fail("activated conditional relators do not match the certificate")

    claim = (cert.verdict, cert.generator, cert.order)
    reading = _reading(state)
    if claim not in ((INCONCLUSIVE, None, None), reading):
        _fail(f"(verdict, generator, order) {claim} is neither inconclusive "
              f"nor what the terminal state forces: {reading}")
    _check_forced_fields(cert)


def _reading(state: _Replay) -> tuple[str, str | None, int | None] | str:
    """The (verdict, generator, order) that a terminal state forces by word
    algebra alone, or why it forces none."""
    if state.tiers:
        return "an undischarged meridional tier"
    if not state.gens:
        return TRIVIAL, None, None
    if len(state.gens) > 1:
        return f"generators {list(state.gens)} survive"
    if state.conditional:
        return "unactivated conditional relators"
    (g,) = state.gens
    d = gcd(*(r.exponent_sum(g) for r in state.rels.values()))
    if d == 1:
        return "relator exponents have gcd 1"
    return (INFINITE_CYCLIC, g, None) if d == 0 else (FINITE_CYCLIC, g, d)


def _check_forced_fields(cert: Certificate) -> None:
    """The fields the trace and the verdict determine must agree with them:
    the step count, the reason (null exactly when the verdict is definite),
    the target (a target, with its match recorded), and for a definite
    verdict its abelianization, the coset index (1, or null when not
    corroborated) and the coset subgroup, which is set whenever the index
    is."""
    if cert.steps_used != len(cert.trace):
        _fail(f"steps_used is {cert.steps_used} but the trace has "
              f"{len(cert.trace)} steps")
    if cert.is_definite != (cert.reason is None):
        _fail(f"reason {cert.reason!r} for a {cert.verdict} verdict (must be "
              f"null exactly when the verdict is definite)")
    if (cert.target is None) != (cert.matches_target is None):
        _fail("target and matches_target must both be set or both be null")
    if cert.target is not None:
        try:
            parse_target(cert.target)
        except ValueError as exc:
            _fail(str(exc))
        met = target_of(cert.verdict, cert.order)
        if cert.matches_target != (met == cert.target):
            _fail(f"matches_target is {cert.matches_target} for a "
                  f"{met or 'inconclusive'} verdict and target {cert.target!r}")
    if not cert.is_definite:
        return
    h1 = h1_of(cert.verdict, cert.order)
    if (cert.h1_rank, cert.h1_torsion) != h1:
        _fail(f"h1 rank {cert.h1_rank} torsion {cert.h1_torsion} is not "
              f"the {cert.verdict} verdict's (rank {h1[0]}, torsion {h1[1]})")
    if cert.coset_index not in (None, 1):
        _fail(f"coset index {cert.coset_index} for a definite verdict "
              "(must be 1 or null)")
    subgroup = coset_subgroup_of(cert.verdict, cert.generator)
    if cert.coset_subgroup not in (None, subgroup):
        _fail(f"coset subgroup {cert.coset_subgroup} for a {cert.verdict} "
              f"verdict (must be {list(subgroup)} or null)")
    if cert.coset_index is not None and cert.coset_subgroup is None:
        _fail(f"coset index {cert.coset_index} with a null coset subgroup "
              "(an index is over a subgroup)")
