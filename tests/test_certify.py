"""The derivation engine: verdicts on known groups, honest inconclusives,
tier discharge / conditional activation, gates, and byte-stable traces."""

import hashlib
import importlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from m4kit.certify import (
    Budget,
    BudgetError,
    certify,
    commutation_closure,
    simplify,
    _State,
    _is_commutator,
    _prove_pair,
    _run_engine,
)
from m4kit.abelian import AbelianGroup, h1
from m4kit.checker import _HANDLERS, _Replay, replay
from m4kit.constructions import (
    cyclic_family,
    exotic_cp2_2,
    exotic_cp2_4,
    exotic_cp2_6,
    exotic_odd_cp2,
    finite_cyclic_example,
)
from m4kit.presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    defining_rotation,
)
from m4kit.trace import (
    ActivateConditional,
    Certificate,
    CertificateFormatError,
    CommutationCancel,
    DischargeMeridional,
    Eliminate,
    FINITE_CYCLIC,
    INCONCLUSIVE,
    INFINITE_CYCLIC,
    Kill,
    PairFromDefinition,
    PairFromRelator,
    TRIVIAL,
)
from m4kit.words import (
    Word,
    commutator,
    cyclic_reduce,
    cyclically_equal,
    gen,
    parse_word,
)


def pres(gens: str, *rels: str, **extra) -> FpPresentation:
    return FpPresentation(tuple(gens.split()),
                          tuple(parse_word(r) for r in rels), **extra)


# -- verdicts ------------------------------------------------------------------

def test_trivial_by_kill_chain():
    c = certify(pres("a b", "a b^-1", "b"))
    assert c.verdict == TRIVIAL
    assert c.final.generators == ()
    assert c.coset_index == 1
    assert (c.h1_rank, c.h1_torsion) == (0, ())
    assert c.describe() == "trivial"


def test_infinite_cyclic_after_elimination():
    c = certify(pres("a b", "[a, b]", "a b^-1"))
    assert c.verdict == INFINITE_CYCLIC
    assert c.generator == "b"
    assert c.order is None
    assert c.coset_subgroup == ("b",)
    assert c.coset_index == 1


def test_finite_cyclic_direct():
    c = certify(pres("a", "a^6"), target="Z/6")
    assert c.verdict == FINITE_CYCLIC
    assert (c.generator, c.order) == ("a", 6)
    assert c.matches_target is True
    assert "Z/6" in c.describe()


def test_finite_cyclic_through_collapse():
    # b is a definition, and substituting it makes a^5
    c = certify(pres("a b", "b a^-2", "b^-1 a^7"))
    assert c.verdict == FINITE_CYCLIC
    assert c.order == 5
    assert c.h1_torsion == (5,)


def test_stalled_presentation_stays_inconclusive():
    # dihedral of order 14: perfectly good finite group, but not cyclic —
    # the engine must not pretend otherwise
    c = certify(pres("a b", "a^2", "b^2", "(a b)^7"))
    assert c.verdict == INCONCLUSIVE
    assert not c.is_definite
    assert "stalled" in c.reason
    assert c.h1_rank is None and c.h1_torsion is None
    assert c.coset_index is None
    assert c.matches_target is None


def test_budget_exhaustion_reports_inconclusive():
    c = certify(pres("a b", "[a, b]", "a b^-1"),
                budget=Budget(max_derivation_steps=1))
    assert c.verdict == INCONCLUSIVE
    assert "budget" in c.reason


@pytest.mark.parametrize("field, value", [
    ("max_cosets", True), ("max_cosets", 0), ("max_cosets", 2.0),
    ("max_derivation_steps", "x"), ("max_derivation_steps", -5),
    ("max_derivation_steps", 0), ("max_derivation_steps", False),
    ("corroborate", 1), ("corroborate", "yes"), ("corroborate", None),
])
def test_budget_rejects_malformed_fields(field, value):
    # both counts are positive ints (True is no count), corroborate a bool
    with pytest.raises(BudgetError, match=repr(value)):
        Budget(**{field: value})


def test_target_mismatch_is_flagged_not_silenced():
    c = certify(pres("a", "a^4"), target="trivial")
    assert c.verdict == FINITE_CYCLIC
    assert c.matches_target is False


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        certify(pres("a", "a"), target="S3")


def test_corroboration_can_be_disabled():
    c = certify(pres("a", "a^3"), budget=Budget(corroborate=False))
    assert c.verdict == FINITE_CYCLIC
    assert c.coset_index is None


# -- tiers and conditionals -------------------------------------------------------

def test_meridional_tier_discharged_when_key_dies():
    p = pres("a b", "b", meridional=(MeridionalTier("g", gen("b")),))
    c = certify(p)
    assert c.verdict == INFINITE_CYCLIC
    assert c.generator == "a"
    kinds = [type(s).__name__ for s in c.trace]
    assert "DischargeMeridional" in kinds


def test_meridional_tier_blocks_verdict_when_key_survives():
    p = pres("a", "a^2", meridional=(MeridionalTier("g", gen("a")),))
    # a^2 cannot make the single letter a freely trivial
    c = certify(p)
    assert c.verdict == INCONCLUSIVE
    assert "not discharged" in c.reason


def test_conditional_activation_imposes_relator():
    # commutator key, as the surface-image conditionals in practice: the key
    # dies once b does, and its exponent sums are zero so the abelianization
    # gate can see the activated relator
    p = pres("a b", "b", conditional=(
        ConditionalRelator(parse_word("a^2"), parse_word("[a, b]")),))
    c = certify(p)
    assert c.verdict == FINITE_CYCLIC
    assert (c.generator, c.order) == ("a", 2)
    assert c.activated == (parse_word("a^2"),)


def test_h1_gate_vetoes_activation_it_cannot_audit():
    # key b is trivial in the group but has nonzero exponent sum, so the
    # abelianization audit cannot count the activated relator; the engine
    # must downgrade to inconclusive rather than outrun its own gate
    p = pres("a b", "b", conditional=(
        ConditionalRelator(parse_word("a^2"), gen("b")),))
    c = certify(p)
    assert c.verdict == INCONCLUSIVE
    assert "abelianization gate" in c.reason


def test_unactivated_conditional_blocks_single_generator_verdict():
    p = pres("a b", "b^3", conditional=(
        ConditionalRelator(parse_word("a^2"), gen("b")),))
    c = certify(p)
    assert c.verdict == INCONCLUSIVE


# -- gates -------------------------------------------------------------------------

def test_cyclic_verdict_carries_coset_gate_over_generator():
    c = certify(pres("a b", "[a, b]", "b^3 a^-3", "b^2 a^-1"))
    # a = b^2, then b^3 = a^3 = b^6 -> b^3 = 1... engine may find another path;
    # whatever it derives must pass both gates
    if c.is_definite:
        assert c.coset_index == 1
        expected = {TRIVIAL: AbelianGroup(0),
                    INFINITE_CYCLIC: AbelianGroup(1),
                    FINITE_CYCLIC: AbelianGroup(0, (c.order,))}[c.verdict]
        assert h1(c.presentation) == expected


# -- determinism and serialization ---------------------------------------------------

def test_certify_is_reproducible_in_process():
    p = pres("a b c", "[a, b]", "[b, c]", "c a^-1", "a b^-2")
    assert certify(p) == certify(p)


def test_certificate_json_round_trip():
    p = pres("a b", "b", conditional=(
        ConditionalRelator(parse_word("a^2"), gen("b")),))
    c = certify(p)
    data = json.loads(json.dumps(c.to_json(), sort_keys=True))
    assert Certificate.from_json(data) == c
    # side data outside the four presentation fields is a format error
    data["presentation"] += "\ndistinguished: mu = a"
    with pytest.raises(CertificateFormatError):
        Certificate.from_json(data)


@st.composite
def presentations_with_empty_words(draw):
    gens = [f"g{i}" for i in range(draw(st.integers(1, 4)))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    word = st.lists(letter, max_size=6).map(lambda ls: Word(tuple(ls)))
    cond = draw(st.lists(st.tuples(word, word), max_size=2))
    tiers = draw(st.lists(word, max_size=2))
    return FpPresentation(
        tuple(gens), tuple(draw(st.lists(word, max_size=6))),
        tuple(ConditionalRelator(rel, key) for rel, key in cond),
        tuple(MeridionalTier(f"t{i}", key) for i, key in enumerate(tiers)))


@settings(max_examples=200, deadline=None)
@given(presentations_with_empty_words(),
       st.sampled_from([None, "trivial", "Z", "Z/2"]))
@example(pres("a b", "1", "a", "b"), None)
def test_certificate_json_round_trip_keeps_every_presentation(p, target):
    # the presentation text reads back what it writes, empty relators,
    # conditionals and tiers included, so a decoded certificate replays
    c = certify(p, target=target,
                budget=Budget(max_cosets=2000, max_derivation_steps=200))
    decoded = Certificate.from_json(json.loads(json.dumps(c.to_json())))
    assert decoded == c
    replay(decoded, p)


# SHA-256 of the certificate JSON (sort_keys=True) of the engine-scale
# family members, computed when schema /2 batched the ready kills into one
# step (13 steps at both sizes, 56 and 76 before): the engine must keep
# choosing the same steps.
ENGINE_SCALE_SHA256 = {
    20: "ed4b6ffd7cf6eb0e89914de05cabae414104fa0e423eed3f9ca5e69cdc316569",
    30: "42b82fcc8304b5de0811a56cea399231504dcc1729269dd17330e694f7cac20b",
}


@pytest.mark.parametrize("n", sorted(ENGINE_SCALE_SHA256))
@pytest.mark.parametrize("eps1, eps3", [(1, -1), (-1, 1)])
def test_engine_scale_certificate_bytes(n, eps1, eps3):
    p = exotic_odd_cp2(n, 1, eps1=eps1, eps3=eps3).pi1
    c = certify(p, target="trivial", budget=Budget(corroborate=False))
    text = json.dumps(c.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_SCALE_SHA256[n]


# SHA-256 of the certificate JSON (sort_keys=True) at n = 80, computed
# when schema /2 batched the ready kills (first computed before relators
# untouched by an elimination were reused across rounds and before the
# Smith form stopped at unit pivots): the certificate must not change with
# work-saving changes.
SCALE_SHA256 = {
    80: "4ffc7c3f83d0162d14d42e82f48aeccd260f0ab4eb44b52e1a7fff2bae569ab2",
}


@pytest.mark.parametrize("n", [70, 80])
def test_paper_family_certified_at_scale(n):
    # the paper's family exists for every n >= 3; commuting pairs proved on
    # demand keep the trace linear in n, well inside the default budget
    p = exotic_odd_cp2(n, 1).pi1
    c = certify(p, target="trivial", budget=Budget(corroborate=False))
    assert c.verdict == TRIVIAL
    assert c.matches_target is True
    assert len(c.trace) <= 3 * n + 30
    replay(c, p)
    if n in SCALE_SHA256:
        text = json.dumps(c.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SCALE_SHA256[n]


@pytest.mark.parametrize("n", [40, 80])
def test_definitions_found_once_per_relator(n, monkeypatch):
    # a definition is built only for the elimination that wins; finding
    # the definitions again for every relator in every round takes 4,112
    # calls at n = 40 and 14,552 at 80
    engine = importlib.import_module("m4kit.certify")
    calls = []

    def counting(r, g):
        calls.append(g)
        return defining_rotation(r, g)

    monkeypatch.setattr(engine, "defining_rotation", counting)
    c = certify(exotic_odd_cp2(n, 1).pi1, budget=Budget(corroborate=False))
    assert c.verdict == TRIVIAL
    assert len(calls) <= 4 * n + 40


def test_definitions_are_built_only_when_read(monkeypatch):
    # a relator's definition is built only when an elimination or a
    # commuting-pair proof reads it: building one for every relator that
    # mentions a generator once made 1,300 calls at n = 320
    calls = []

    def counting(r, g):
        calls.append(g)
        return defining_rotation(r, g)

    monkeypatch.setattr(importlib.import_module("m4kit.certify"),
                        "defining_rotation", counting)
    counts = []
    for n in (10, 320):
        calls.clear()
        c = certify(exotic_odd_cp2(n, 1).pi1,
                    budget=Budget(corroborate=False))
        assert c.verdict == TRIVIAL
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _kill(name, via):
    return Eliminate(name, parse_word("1"), parse_word(via))


def _kills(*vias):
    """One kill step, its relators in generator order as the engine takes
    them (c10 sorts before c2)."""
    return Kill(tuple(sorted(map(parse_word, vias),
                             key=lambda w: w.letters[0][0])))


# The trace of the paper's family, 13 steps for every n >= 3 and m: the
# commuting pairs that cancel a1, then every kill that is ready, all at
# once, round after round.  The 2n block generators c_j and d_j fall in
# three of those kill steps, the same three for every n.
FAMILY_PREFIX = (
    PairFromRelator("alpha2", "alpha4",
                    parse_word("alpha2 alpha4 alpha2^-1 alpha4^-1")),
    PairFromDefinition("b2", "alpha2", parse_word("b2 alpha4^-1")),
    PairFromDefinition("b1", "b2", parse_word("b1 alpha2^-1")),
    PairFromRelator("b1", "c1", parse_word("b1 c1 b1^-1 c1^-1")),
    PairFromDefinition("d1", "b1", parse_word("c1^-1 b2 c1 b2^-1 d1^-1")),
    CommutationCancel(parse_word("b1^-1 d1^-1 b1 d1 a1^-1"),
                      parse_word("a1^-1"), 0, 0, 2, "b1"),
    _kill("a1", "a1^-1"),
)


def family_trace(n):
    c = [f"c{j}^-1" for j in range(1, n + 1)]
    d = [f"d{j}^-1" for j in range(1, n + 1)]
    return FAMILY_PREFIX + (
        _kills("alpha1^-1", "b1^-1", *c[2:]),
        _kills("alpha2^-1", "alpha3", c[1], *d[1:]),
        DischargeMeridional("g"),
        ActivateConditional(parse_word("a2")),
        _kills("a2^-1", "b2^-1"),
        _kills("alpha4^-1", c[0], d[0]),
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_family_trace_is_the_same_13_steps_at_every_n(m):
    for n in range(3, 41):
        trace = certify(exotic_odd_cp2(n, m).pi1,
                        budget=Budget(corroborate=False)).trace
        expected = family_trace(n)
        for k, (got, want) in enumerate(zip(trace, expected)):
            assert got == want, f"n={n}, m={m}, step {k}: {got} != {want}"
        assert len(trace) == len(expected) == 13, (
            f"n={n}, m={m}: {len(trace)} steps, expected {len(expected)}")
        killed = {r.letters[0][0] for s in trace if type(s) is Kill
                  for r in s.relators}
        assert {f"{x}{j}" for x in "cd" for j in range(1, n + 1)} <= killed


def test_put_work_is_linear_in_relator_letters(monkeypatch):
    # every ready kill is one step, so the surface relator is rewritten a
    # fixed number of times, not once for each block generator: at n = 320 the
    # engine's and the checker's put each took 213,207 letters when every
    # kill was a step of its own, against 7,114 relator letters
    letters = {}
    for cls in (_State, _Replay):
        letters[cls] = 0

        def counting(self, key, w, cls=cls, put=cls.put):
            letters[cls] += len(w)
            return put(self, key, w)

        monkeypatch.setattr(cls, "put", counting)
    p = exotic_odd_cp2(320, 1).pi1
    c = certify(p, target="trivial", budget=Budget(corroborate=False))
    replay(c, p)
    relator_letters = sum(map(len, p.relators)) + sum(
        len(r.relator) for r in p.conditional)
    assert c.verdict == TRIVIAL and relator_letters == 7114
    assert 0 < letters[_State] <= 2 * relator_letters
    assert 0 < letters[_Replay] <= 2 * relator_letters


def random_corpus(count):
    """`count` seeded random presentations: 1-7 generators and 1 to 2k
    relators on k generators, 30% of them commutators of two letters on
    different generators and the rest random words of 1-6 letters."""
    rng = random.Random(7)
    for _ in range(count):
        k = rng.randint(1, 7)
        gens = [f"g{i}" for i in range(k)]
        rels = []
        for _ in range(rng.randint(1, 2 * k)):
            if k >= 2 and rng.random() < 0.3:
                x, y = rng.sample(gens, 2)
                rels.append(commutator(gen(x, rng.choice((1, -1))),
                                       gen(y, rng.choice((1, -1)))))
            else:
                rels.append(Word([(rng.choice(gens), rng.choice((1, -1)))
                                  for _ in range(rng.randint(1, 6))]))
        yield FpPresentation(tuple(gens), tuple(rels))


# SHA-256 of the lines "verdict order", one for each of the 3,000
# presentations of random_corpus, computed before every ready kill became
# one step: batching the kills must change no verdict and no order.
CORPUS_VERDICTS_SHA256 = (
    "48c7544122a9b66b23adb69fa8f77ecf125c3371bfa24955424fd68e754396c8")


def test_random_corpus_keeps_its_verdicts():
    budget = Budget(corroborate=False, max_derivation_steps=400)
    lines, batched = [], 0
    for p in random_corpus(3000):
        c = certify(p, budget=budget)
        replay(c, p)
        lines.append(f"{c.verdict} {c.order}")
        batched += any(type(s) is Kill for s in c.trace)
    assert sum(not line.startswith(INCONCLUSIVE) for line in lines) == 1661
    assert batched > 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CORPUS_VERDICTS_SHA256


@pytest.mark.parametrize("n", [40, 320])
def test_eliminations_touch_only_the_relators_that_mention_the_generator(
        n, monkeypatch):
    # substituting into every relator at every elimination takes 4,387
    # calls at n = 40 and 213,827 at n = 320, in the engine and again in
    # the checker
    calls = {}
    for module in ("m4kit.certify", "m4kit.checker"):
        calls[module] = 0
        sub = importlib.import_module(module).substitute

        def counting(w, images, module=module, sub=sub):
            calls[module] += 1
            return sub(w, images)

        monkeypatch.setattr(importlib.import_module(module), "substitute",
                            counting)
    p = exotic_odd_cp2(n, 1).pi1
    c = certify(p, target="trivial", budget=Budget(corroborate=False))
    replay(c, p)
    assert c.verdict == TRIVIAL
    assert 0 < calls["m4kit.certify"] <= 6 * n + 40
    assert 0 < calls["m4kit.checker"] <= 6 * n + 40


def test_substitution_work_is_linear_in_relator_letters(monkeypatch):
    # every word is made by the reducing constructor, so the letters that
    # _reduce receives are all the word work of build, certify and replay;
    # the bound gates that this stays linear in the relator letters: in a
    # fresh process it reads 17,702 (6,608 of them in certify and replay)
    # against 7,114 relator letters, and 33,278 when cyclic_reduce rebuilds
    # the words it leaves unchanged
    words = importlib.import_module("m4kit.words")
    reduce, reduced = words._reduce, []

    def counting_reduce(letters):
        letters = tuple(letters)
        reduced.append(len(letters))
        return reduce(letters)

    monkeypatch.setattr(words, "_reduce", counting_reduce)
    p = exotic_odd_cp2(320, 1).pi1
    c = certify(p, target="trivial", budget=Budget(corroborate=False))
    replay(c, p)
    letters = sum(map(len, p.relators)) + sum(
        len(r.relator) for r in p.conditional)
    assert c.verdict == TRIVIAL
    assert reduced and sum(reduced) <= 3 * letters


@pytest.mark.parametrize("build", [
    lambda: exotic_cp2_2(2).pi1, lambda: exotic_cp2_4(2).pi1,
    lambda: exotic_cp2_6(2).pi1, lambda: exotic_odd_cp2(6, 3).pi1,
    lambda: cyclic_family(4).pi1, lambda: finite_cyclic_example().pi1,
    # the prover memoises the definition names of g0, then eliminating g0
    # drops both of its defining keys
    lambda: pres("g0 g1 g2 g3 g4", "g2^-1 g0^-1", "g3^-1 g4^-1",
                 "g3^-1 g0^-1 g2 g3 g0 g3^-1", "g2 g0 g3^-1", "g1 g3 g4"),
])
def test_memoised_definitions_match_a_fresh_index(build, monkeypatch):
    # every round searches for an elimination after the round's moves, so
    # this compares the incremental index with one built from scratch after
    # every step of the engine: occurrences, letter counts, defining keys
    # and the definition each defining key gives, with relator keys read
    # as positions, and the step the heap picks with the position of its
    # relator.  First, each list of definition names that the pair prover
    # memoised and the engine kept must still be the one a fresh
    # computation gives.
    engine = importlib.import_module("m4kit.certify")
    find, rounds, batches, memos = engine._find_elimination, [], [], []

    def kept_names_are_fresh(state):
        for g, names in state.names.items():
            keys = sorted(state.definitions.get(g, ()))
            words = [defining_rotation(state.rels[k], g) for k in keys]
            assert names == [(k, tuple(dict.fromkeys(n for n, _ in w.letters)))
                             for k, w in zip(keys, words)], g
            memos.append(g)

    def definitions(state):
        return {g: {k: defining_rotation(state.rels[k], g) for k in keys}
                for g, keys in state.definitions.items() if keys}

    def index(state):
        pos = {key: i for i, key in enumerate(state.rels)}
        assert list(state.rels) == sorted(state.rels)
        return ({g: sorted(pos[k] for k in keys)
                 for g, keys in state.occ.items() if keys},
                {g: n for g, n in state.total.items() if n},
                {g: {pos[k]: d for k, d in entries.items()}
                 for g, entries in definitions(state).items()})

    def cheapest(state):
        # the full scan the heap replaces
        pos = {key: i for i, key in enumerate(state.rels)}
        cands = [((state.total[g] - 1) * max(len(d) - 1, 0), len(d), g,
                  pos[k], d) for g, entries in definitions(state).items()
                 for k, d in entries.items()]
        return min(cands, key=lambda c: c[:4], default=None)

    def ready_kills(state):
        # each generator's first one-letter relator, in generator order
        pos = {key: i for i, key in enumerate(state.rels)}
        kills = {g: min(pos[k] for k, d in entries.items() if not d)
                 for g, entries in sorted(definitions(state).items())
                 if any(not d for d in entries.values())}
        return [(g, i, list(state.rels.values())[i])
                for g, i in kills.items()]

    def compare_then_find(state):
        kept_names_are_fresh(state)
        fresh = _State(state.snapshot())
        assert index(state) == index(fresh)
        found, best, kills = find(state), cheapest(fresh), ready_kills(fresh)
        if best is None:
            assert found is None
        elif type(found[0]) is Kill:
            # every ready kill at once, each at its relator's position
            step, keys = found
            assert best[1] == 0 and len(kills) >= 2
            assert [(r.letters[0][0], list(state.rels).index(k), r)
                    for r, k in zip(step.relators, keys)] == kills
            batches.append(len(kills))
        else:
            step, key = found
            assert best[1] or len(kills) == 1
            assert (step.gen, step.definition, step.via,
                    list(state.rels).index(key)) == \
                (best[2], best[4], list(fresh.rels.values())[best[3]], best[3])
        rounds.append(len(state.rels))
        return found

    monkeypatch.setattr(engine, "_find_elimination", compare_then_find)
    _run_engine(build(), Budget(), allow_discharge=True)
    assert len(rounds) > 5
    assert batches and memos


def test_trace_step_order_is_stable_for_symmetric_input():
    # two single-occurrence generators in one relator: the definitional-pair
    # scan must pick them in first-appearance order, not set order
    p = pres("a b c", "[a, c]", "b c b c^-1 b^-1 a^-1 b^-1")
    c1, c2 = certify(p), certify(p)
    assert c1.trace == c2.trace


# -- helpers -----------------------------------------------------------------------

def test_simplify_preserves_h1_and_conditionals():
    p = pres("a b c", "c a b^-1", "[a, b]",
             conditional=(ConditionalRelator(parse_word("a^2"), gen("c")),))
    q = simplify(p)
    assert h1(q) == h1(p)
    assert len(q.conditional) == 1          # never activated by simplify
    assert len(q.generators) < len(p.generators)


def test_commutation_closure_full_torus():
    p = pres("a b c", "[a, b]", "[b, c]", "[a, c]")
    pairs = commutation_closure(p)
    assert pairs == frozenset({frozenset({"a", "b"}),
                               frozenset({"b", "c"}),
                               frozenset({"a", "c"})})


def test_commutation_closure_from_definition():
    # c is defined as a b, and both a and b commute with d -> c pairs with d
    p = pres("a b c d", "c^-1 a b", "[a, d]", "[b, d]")
    pairs = commutation_closure(p)
    assert frozenset({"c", "d"}) in pairs


def eager_closure(p: FpPresentation) -> frozenset[frozenset[str]]:
    """Reference oracle: the eager fixpoint the engine ran every round
    before commuting pairs were proved on demand.  It seeds pairs from
    two-letter commutator relators and adds (g, other) whenever some
    definition of g commutes letterwise with other, until nothing changes."""
    relators = [r for r in map(cyclic_reduce, p.relators) if r]
    pairs: set[frozenset[str]] = set()

    def paired(a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in pairs

    changed = True
    while changed:
        changed = False
        for r in relators:
            names = r.names()
            if len(r) == 4 and len(names) == 2 and not paired(*names):
                x, y = sorted(names)
                if any(cyclically_equal(r, commutator(gen(x, ex), gen(y, ey)))
                       for ex in (1, -1) for ey in (1, -1)):
                    pairs.add(names)
                    changed = True
        for r in relators:
            for g in dict.fromkeys(n for n, _ in r.letters):
                definition = defining_rotation(r, g)
                if definition is None:
                    continue
                for other in p.generators:
                    if not paired(g, other) and all(
                            paired(n, other) for n, _ in definition.letters):
                        pairs.add(frozenset((g, other)))
                        changed = True
    return frozenset(pairs)


@st.composite
def presentations(draw):
    gens = [f"g{i}" for i in range(draw(st.integers(1, 6)))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    word = st.lists(letter, min_size=1, max_size=6).map(
        lambda letters: Word(tuple(letters)))
    pair = st.tuples(letter, letter).map(
        lambda ab: commutator(gen(*ab[0]), gen(*ab[1])))
    rels = draw(st.lists(st.one_of(word, pair), min_size=1, max_size=10))
    return FpPresentation(tuple(gens), tuple(r for r in rels if r))


def prove_every_pair(p: FpPresentation) -> frozenset[frozenset[str]]:
    """The pairs `_prove_pair` proves over every generator pair of a fresh
    state.  The checker must accept each step it appends and end with the
    same pairs."""
    state, steps = _State(p), []
    for i, x in enumerate(p.generators):
        for y in p.generators[i + 1:]:
            _prove_pair(state, x, y, steps)
    checker = _Replay(p)
    for step in steps:
        _HANDLERS[type(step)](checker, step)
    assert checker.pairs == state.pairs
    return frozenset(state.pairs)


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_commutation_closure_matches_eager_oracle(p):
    assert prove_every_pair(p) == eager_closure(p)


def reference_prove_pair(state, x, y, steps):
    """Reference for `_prove_pair`: the plain sweep loop, which walks every
    collected pair in every sweep, skips the settled ones and tests each
    premise by lookups in `state.pairs` and `state.settled`, and stops
    after a sweep that settles nothing.  Its rules read each definition
    afresh, without the engine's memos.  Like the engine, it records in
    `state.settled` the rule that settles a pair, and builds a step only
    when it emits the step."""
    goal = frozenset((x, y))
    if x == y or goal in state.pairs:
        return True
    rules = {}
    todo = [goal]
    while todo:
        pair = todo.pop()
        if pair not in rules and pair not in state.settled \
                and pair not in state.pairs:
            rules[pair] = reference_pair_rules(state, pair)
            todo += [q for *_, premises in rules[pair] for q in premises]
    changed = True
    while changed:
        changed = False
        for pair, options in rules.items():
            if pair in state.settled:
                continue
            for rule in options:
                if all(q in state.pairs or state.settled.get(q)
                       for q in rule[-1]):
                    state.settled[pair] = rule
                    changed = True
                    break
    for pair in rules:
        state.settled.setdefault(pair, None)
    if state.settled[goal] is None:
        return False
    todo = [goal]
    while todo:
        pair = todo[-1]
        cls, a, b, key, premises = state.settled[pair]
        waiting = [q for q in premises if q not in state.pairs]
        if waiting:
            todo += waiting
            continue
        todo.pop()
        if pair not in state.pairs:
            state.pairs.add(pair)
            steps.append(cls(a, b, state.rels[key]))
    return True


def reference_pair_rules(state, pair):
    x, y = sorted(pair)
    both = state.occ.get(x, set()) & state.occ.get(y, set())
    rules = [(PairFromRelator, x, y, key, []) for key in sorted(both)
             if _is_commutator(state.rels[key])]
    for g, other in ((x, y), (y, x)):
        for key in sorted(state.definitions.get(g, ())):
            names = dict.fromkeys(
                n for n, _ in defining_rotation(state.rels[key], g).letters)
            rules.append((PairFromDefinition, g, other, key,
                          [frozenset((n, other)) for n in names
                           if n != other]))
    return rules


def check_every_pair_proof(monkeypatch):
    """Make every `_prove_pair` call of the engine also run the reference
    from the same start, and require the same answer, the same settled
    pairs (in the same order, with the same rules), the same proved pairs
    and the same appended steps.  Returns a list that gets the number of
    steps each checked call appends."""
    engine = importlib.import_module("m4kit.certify")
    prove, calls = engine._prove_pair, []

    def checked(state, x, y, steps):
        settled, pairs = dict(state.settled), set(state.pairs)
        start = len(steps)
        got = (prove(state, x, y, steps), list(state.settled.items()),
               state.pairs, steps[start:])
        kept = state.settled, state.pairs
        state.settled, state.pairs, ref_steps = settled, pairs, []
        want = (reference_prove_pair(state, x, y, ref_steps),
                list(state.settled.items()), state.pairs, ref_steps)
        assert got == want, (x, y, str(state.snapshot()))
        state.settled, state.pairs = kept
        calls.append(len(ref_steps))
        return got[0]

    monkeypatch.setattr(engine, "_prove_pair", checked)
    return calls


def test_pair_prover_matches_the_reference_on_the_family(monkeypatch):
    calls = check_every_pair_proof(monkeypatch)
    for n in range(2, 13):
        for m in (1, 2, 3):
            calls.clear()
            _run_engine(exotic_odd_cp2(n, m).pi1, Budget(),
                        allow_discharge=True)
            assert sum(calls) >= 5, (n, m)


def test_pair_prover_matches_the_reference_on_the_corpus(monkeypatch):
    calls = check_every_pair_proof(monkeypatch)
    budget = Budget(max_derivation_steps=400)
    for p in random_corpus(3000):
        _run_engine(p, budget, allow_discharge=True)
    assert sum(map(bool, calls)) > 1000


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_pair_prover_matches_the_reference_on_random_input(p):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_every_pair_proof(monkeypatch)
        _run_engine(p, Budget(max_derivation_steps=400), allow_discharge=True)
        commutation_closure(p)


def test_commutator_letter_test_matches_cyclic_equality():
    # every cyclically reduced 4-letter word on three names: the letter
    # test the pair prover uses agrees, for each pair of names, with
    # comparing the word against the four commutators of the pair
    letters = [(x, e) for x in "abc" for e in (1, -1)]
    words = {w for w in map(Word, itertools.product(letters, repeat=4))
             if len(w) == 4 and cyclic_reduce(w) == w}
    assert len(words) == 630
    hits = 0
    for r in words:
        for pair in map(frozenset, itertools.combinations("abc", 2)):
            x, y = sorted(pair)
            old = r.names() == pair and any(
                cyclically_equal(r, commutator(gen(x, ex), gen(y, ey)))
                for ex in (1, -1) for ey in (1, -1))
            assert (_is_commutator(r) and r.names() == pair) == old
            hits += old
    # a^s b^t a^-s b^-t: two orders of the pair, two signs each
    assert hits == 3 * 8


def test_commutation_closure_through_definitional_cycle():
    # g = h a and h = g a^-1 define each through the other, so proving that
    # b commutes with g needs b with h and the other way round: the cycle
    # alone proves neither
    cycle = ("[a, b]", "g^-1 h a")
    p = pres("a b g h", *cycle)
    assert prove_every_pair(p) == eager_closure(p) == \
        frozenset({frozenset({"a", "b"})})
    # h = b^2 breaks the cycle: h commutes with b, hence so does g = h a
    p = pres("a b g h", *cycle, "h^-1 b^2")
    pairs = prove_every_pair(p)
    assert pairs == eager_closure(p)
    assert {frozenset({"h", "b"}), frozenset({"g", "b"})} <= pairs


def test_cancellation_proved_through_definitional_cycle():
    # the only cancellation, b g b^-1 ... , needs b to commute with g, which
    # the cycle g = h a, h = g a^-1 proves only through h = b^2
    p = pres("a b g h", "[a, b]", "g^-1 h a", "h^-1 b^2", "b g b^-1 g^-1 a^2")
    c = certify(p, budget=Budget(corroborate=False))
    replay(c, p)
    proofs = [(s.gen, s.other) for s in c.trace
              if isinstance(s, PairFromDefinition)]
    cancels = [s.before for s in c.trace if isinstance(s, CommutationCancel)]
    assert proofs == [("h", "b"), ("g", "b")]
    assert parse_word("b g b^-1 g^-1 a^2") in cancels
