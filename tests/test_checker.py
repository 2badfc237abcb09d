"""The independent step-checker.  One direction is boring (honest
certificates replay); the point of this file is the other direction —
every kind of tampering must raise CheckFailure."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from m4kit.certify import Budget, certify
from m4kit.checker import CheckFailure, _HANDLERS, _Replay, replay
from m4kit.cli import main
from m4kit.constructions import cyclic_family, exotic_cp2_2, exotic_odd_cp2
from m4kit.presentation import ConditionalRelator, FpPresentation, MeridionalTier
from m4kit.trace import (
    ActivateConditional,
    Certificate,
    CertificateFormatError,
    CommutationCancel,
    DischargeMeridional,
    Eliminate,
    Kill,
    PairFromDefinition,
    PairFromRelator,
    ReplaceSubword,
)
from m4kit.words import (
    Word,
    commutator,
    cyclic_reduce,
    gen,
    parse_word,
    replace,
    substitute,
)


def pres(gens: str, *rels: str, **extra) -> FpPresentation:
    return FpPresentation(tuple(gens.split()),
                          tuple(parse_word(r) for r in rels), **extra)


TRIVIAL_P = pres("a b", "a b^-1", "b")
Z_P = pres("a b", "[a, b]", "a b^-2")          # a = b^2, leaves Z on b
ZN_P = pres("a b", "b a^-2", "b^-1 a^7")        # collapses to a^5
TIERED_P = pres("a b", "b",
                meridional=(MeridionalTier("g", parse_word("[a, b]")),),
                conditional=(ConditionalRelator(parse_word("a^10"),
                                                parse_word("[a, b]")),))


@pytest.fixture(scope="module")
def certs():
    return {name: certify(p) for name, p in
            [("trivial", TRIVIAL_P), ("z", Z_P), ("zn", ZN_P),
             ("tiered", TIERED_P)]}


def test_honest_certificates_replay(certs):
    for c in certs.values():
        assert c.is_definite
        replay(c)                       # no exception is the assertion
        replay(c, c.presentation)


def test_presentation_swap_rejected(certs):
    with pytest.raises(CheckFailure):
        replay(certs["trivial"], Z_P)


def test_dropped_step_rejected(certs):
    c = certs["trivial"]
    with pytest.raises(CheckFailure):
        replay(replace(c, trace=c.trace[:-1]))


def test_forged_verdict_rejected(certs):
    c = certs["z"]
    with pytest.raises(CheckFailure):
        replay(replace(c, verdict="trivial"))


def test_forged_order_rejected(certs):
    c = certs["zn"]
    assert c.order == 5
    with pytest.raises(CheckFailure):
        replay(replace(c, order=3))


def test_forged_generator_rejected(certs):
    c = certs["z"]
    with pytest.raises(CheckFailure):
        replay(replace(c, generator="a" if c.generator != "a" else "b"))


def test_z_claim_on_torsion_rejected(certs):
    c = certs["zn"]
    with pytest.raises(CheckFailure):
        replay(replace(c, verdict="infinite_cyclic", order=None))


def test_tampered_final_state_rejected(certs):
    c = certs["trivial"]
    fake_final = pres("a")
    with pytest.raises(CheckFailure):
        replay(replace(c, final=fake_final))


def test_tampered_step_rejected(certs):
    c = certs["z"]
    doctored = []
    for s in c.trace:
        if isinstance(s, Eliminate):
            # claim a different definition than the relator supports
            s = replace(s, definition=s.definition * gen("b"))
        doctored.append(s)
    assert doctored != list(c.trace), "fixture needs an Eliminate step"
    with pytest.raises(CheckFailure):
        replay(replace(c, trace=tuple(doctored)))


def test_injected_step_rejected(certs):
    c = certs["trivial"]
    # append a fabricated elimination over a generator that is long gone
    forged = c.trace + (Eliminate(gen="a", definition=parse_word("1"),
                                  via=gen("a")),)
    with pytest.raises(CheckFailure):
        replay(replace(c, trace=forged))


def test_activation_count_audited(certs):
    c = certs["tiered"]
    assert c.activated, "fixture should activate its conditional"
    with pytest.raises(CheckFailure):
        replay(replace(c, activated=()))


def test_undischarged_tier_cannot_carry_definite_verdict(certs):
    c = certs["z"]
    # graft a tier onto the input without any discharge step in the trace
    tiered_input = replace(c.presentation, meridional=(
        MeridionalTier("g", parse_word("[a, b]")),))
    with pytest.raises(CheckFailure):
        replay(replace(c, presentation=tiered_input))


def test_inconclusive_certificates_replay_without_claims():
    c = certify(pres("a b", "a^2", "b^2", "(a b)^7"))
    assert not c.is_definite
    replay(c)  # the trace itself must still be honest


# -- fields the verdict forces ----------------------------------------------

PROBE_P = pres("a b", "[a, b]", "a b^2 a^-1 b^-1")    # b = 1, leaves Z on a


@pytest.fixture(scope="module")
def probe():
    c = certify(PROBE_P)
    assert c.verdict == "infinite_cyclic"
    assert (c.h1_rank, c.h1_torsion, c.coset_index) == (1, (), 1)
    return c.to_json()


def edited(data, **fields):
    return Certificate.from_json({**data, **fields})


@pytest.mark.parametrize("fields", [
    {"target": "Z/7"},                       # a target, but no match recorded
    {"matches_target": True},                # a match, but no target
    {"coset_index": 99},
    {"h1_rank": 5},
    {"steps_used": 999},                     # the trace has fewer steps
    {"reason": "forged"},                    # a reason on a definite verdict
    {"order": 5},                            # an order on a Z verdict
])
def test_forced_field_edits_rejected(probe, fields):
    replay(edited(probe))
    with pytest.raises(CheckFailure):
        replay(edited(probe, **fields))


@pytest.mark.parametrize("fields", [
    {"target": "Z/7", "matches_target": True},
    {"target": "Z", "matches_target": False},
    {"h1_torsion": [3]},
    {"coset_index": 2},
    {"coset_subgroup": []},
    {"coset_subgroup": ["b"]},
])
def test_forced_field_combinations_rejected(probe, fields):
    with pytest.raises(CheckFailure):
        replay(edited(probe, **fields))


@pytest.mark.parametrize("target", ["zz", "", "Z/1", "Z/07", "z"])
def test_target_must_be_a_target(probe, target):
    fields = {"target": target, "matches_target": False}
    with pytest.raises(CertificateFormatError, match="unknown target"):
        edited(probe, **fields)
    forged = replace(Certificate.from_json(probe), **fields)
    with pytest.raises(CheckFailure, match="unknown target"):
        replay(forged)


def test_forced_fields_accept_every_honest_shape(probe, certs):
    replay(edited(probe, target="Z", matches_target=True))
    replay(edited(probe, target="trivial", matches_target=False))
    replay(edited(probe, coset_index=None, coset_subgroup=None))
    trivial = certs["trivial"].to_json()
    replay(edited(trivial, coset_subgroup=[]))
    with pytest.raises(CheckFailure):
        replay(edited(trivial, coset_subgroup=["a"]))
    zn = certs["zn"].to_json()
    replay(edited(zn, h1_torsion=[5]))
    with pytest.raises(CheckFailure):
        replay(edited(zn, h1_torsion=[3]))


def test_inconclusive_target_match_rechecked():
    c = certify(pres("a b", "a^2", "b^2", "(a b)^7"), target="trivial")
    assert c.matches_target is False
    replay(c)
    with pytest.raises(CheckFailure):
        replay(replace(c, matches_target=True))


def test_cli_replay_exits_fail_on_forced_field_edit(probe, tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(probe))
    assert main(["replay", str(path)]) == 0
    path.write_text(json.dumps({**probe, "h1_rank": 5}))
    assert main(["replay", str(path)]) == 1
    assert "h1 rank 5" in capsys.readouterr().err


# -- fields the trace determines --------------------------------------------

def test_inconclusive_certificate_must_give_a_reason():
    c = certify(pres("a b", "a^2", "b^2", "(a b)^7"))
    replay(c)
    with pytest.raises(CheckFailure, match="reason None"):
        replay(replace(c, reason=None))
    with pytest.raises(CheckFailure, match="steps_used"):
        replay(replace(c, steps_used=c.steps_used + 1))


@pytest.mark.parametrize("fields", [{"steps_used": 999}, {"reason": "forged"}],
                         ids=["steps_used", "reason"])
def test_cli_replay_exits_fail_on_free_field_edit(probe, tmp_path, capsys,
                                                  fields):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({**probe, **fields}))
    assert main(["replay", str(path)]) == 1
    assert str(next(iter(fields.values()))) in capsys.readouterr().err


@pytest.fixture(scope="module")
def cp2():
    c = certify(exotic_cp2_2().pi1, target="trivial")
    assert c.verdict == "trivial" and len(c.activated) == 1
    return c.to_json()


# one forged field each; the forged activation keeps the count, and the
# core that the coset enumeration runs on is built from these words
FORGERIES = {"order": -1, "generator": "zz", "activated": ["a1"]}


@pytest.mark.parametrize("field", sorted(FORGERIES))
def test_generator_order_and_activated_are_checked(cp2, field):
    replay(edited(cp2))
    with pytest.raises(CheckFailure, match=field):
        replay(edited(cp2, **{field: FORGERIES[field]}))


def test_coset_index_needs_its_subgroup(cp2):
    # the engine sets the subgroup whenever it sets the index: (1, set)
    # when corroborated, (null, set) when the budget ran out, (null, null)
    # when corroboration was off
    replay(edited(cp2, coset_index=None))
    replay(edited(cp2, coset_index=None, coset_subgroup=None))
    with pytest.raises(CheckFailure, match="null coset subgroup"):
        replay(edited(cp2, coset_subgroup=None))


@pytest.mark.parametrize("field", sorted(FORGERIES))
def test_cli_replay_exits_fail_on_forged_field(cp2, tmp_path, capsys, field):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps({**cp2, field: FORGERIES[field]}))
    assert main(["replay", str(path)]) == 1
    assert "REPLAY FAILED" in capsys.readouterr().err


# -- schema /1 -----------------------------------------------------------------

# certificates written before the kill step existed, by `m4kit certify -o`'s
# encoder: exotic_odd_cp2(5, 1) uncorroborated and exotic_cp2_2()
# corroborated, each with target "trivial"
V1 = sorted((Path(__file__).parent / "data").glob("certificate_v1_*.json"))


@pytest.mark.parametrize("path", V1, ids=lambda p: p.stem)
def test_schema_1_certificates_decode_and_replay(path, capsys):
    data = json.loads(path.read_text())
    assert data["schema"] == "m4kit.certificate/1"
    c = Certificate.from_json(data)
    assert c.verdict == "trivial" and c.matches_target is True
    replay(c)
    # a trace with no kill step encodes as it did, bar the schema
    assert c.to_json() == {**data, "schema": "m4kit.certificate/2"}
    assert main(["replay", str(path)]) == 0
    assert capsys.readouterr().out.startswith("replay ok: trivial")


def test_schema_1_certificate_with_a_kill_is_malformed(tmp_path, capsys):
    [path] = [p for p in V1 if "odd" in p.stem]
    data = json.loads(path.read_text())
    p = exotic_odd_cp2(5, 1).pi1
    ours = certify(p, target="trivial", budget=Budget(corroborate=False))
    assert any(type(s) is Kill for s in ours.trace)
    replay(Certificate.from_json(data), p)
    forged = {**ours.to_json(), "schema": data["schema"]}
    with pytest.raises(CertificateFormatError, match="'kill'"):
        Certificate.from_json(forged)
    path = tmp_path / "kill_v1.json"
    path.write_text(json.dumps(forged))
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'kill'" in err and "Traceback" not in err


# -- the occurrence index ----------------------------------------------------

def replay_states(cert):
    """Replay cert's trace step by step as replay does, yielding the
    checker's state after each step."""
    state = _Replay(cert.presentation)
    yield state
    for step in cert.trace:
        _HANDLERS[type(step)](state, step)
        yield state


def assert_index_matches(state):
    occ = {}
    for key, r in state.rels.items():
        for n in r.names():
            occ.setdefault(n, set()).add(key)
    assert {n: keys for n, keys in state.occ.items() if keys} == occ
    assert list(state.rels) == sorted(state.rels)


def reference_replay(cert):
    """Reference oracle: the terminal state of the list-based replay the
    checker ran before it indexed relators by the generators they mention.
    It applies each step's recorded effect without checking it; a step
    acts on the first relator equal to the one it names."""
    p = cert.presentation
    gens = list(p.generators)
    rels = [r for r in map(cyclic_reduce, p.relators) if r]
    cond = [(c.relator, c.key) for c in p.conditional if c.relator]
    tiers = [(t.label, t.key) for t in p.meridional]
    for s in cert.trace:
        if isinstance(s, (CommutationCancel, ReplaceSubword)):
            i = rels.index(s.before)
            rels[i:i + 1] = [s.after] if s.after else []
        elif isinstance(s, (Eliminate, Kill)):
            if isinstance(s, Eliminate):
                vias, images = [s.via], {s.gen: s.definition}
            else:       # every generator killed at once
                vias = s.relators
                images = {r.letters[0][0]: Word() for r in vias}
            for via in vias:
                del rels[rels.index(via)]

            def sub(w):
                return substitute(w, images)

            rels = [r for r in (cyclic_reduce(sub(r)) for r in rels) if r]
            cond = [(sub(rel), sub(key)) for rel, key in cond if sub(rel)]
            tiers = [(label, sub(key)) for label, key in tiers]
            for g in images:
                gens.remove(g)
        elif isinstance(s, ActivateConditional):
            rel, _ = cond.pop(next(k for k, (rel, key) in enumerate(cond)
                                   if rel == s.relator and not key))
            rels += [cyclic_reduce(rel)] if cyclic_reduce(rel) else []
        elif isinstance(s, DischargeMeridional):
            del tiers[next(k for k, (label, key) in enumerate(tiers)
                           if label == s.label and not key)]
    return FpPresentation(
        tuple(gens), tuple(rels),
        tuple(ConditionalRelator(rel, key) for rel, key in cond),
        tuple(MeridionalTier(label, key) for label, key in tiers))


def test_index_matches_the_relators_after_every_step(certs):
    for c in [*certs.values(),
              certify(pres("a b", "a^2", "b^2", "(a b)^7"))]:
        for state in replay_states(c):
            assert_index_matches(state)
        assert state.snapshot() == c.final == reference_replay(c)


R = "a b a^-1 b^2"                  # b^3 once a and b commute
DUPLICATES_P = pres("a b c", R, "c^7", R, "[a, b]")


@pytest.mark.parametrize("p, steps, kinds, first, second", [
    (DUPLICATES_P, 2, [PairFromRelator, CommutationCancel],
     ("b^3", "c^7", R, "[a, b]"), (R, "c^7", "b^3", "[a, b]")),
    (pres("g0 g1", "g1^2", "g1^-3", "g1^2"), 1, [ReplaceSubword],
     ("g1^-1", "g1^-3", "g1^2"), ("g1^2", "g1^-3", "g1^-1")),
], ids=["cancellation", "replacement"])
def test_duplicate_relator_rewrites_the_first_copy(p, steps, kinds, first,
                                                   second):
    # the budget stops the engine after one rewrite, so only one copy of the
    # duplicated relator is rewritten, and it must be the first in both
    # engine and checker
    c = certify(p, budget=Budget(max_derivation_steps=steps,
                                 corroborate=False))
    assert [type(s) for s in c.trace] == kinds
    assert c.final.relators == tuple(map(parse_word, first))
    replay(c, p)
    assert reference_replay(c) == c.final
    forged = replace(c.final, relators=tuple(map(parse_word, second)))
    with pytest.raises(CheckFailure, match="terminal state"):
        replay(replace(c, final=forged))


EMPTY = Word()


@pytest.mark.parametrize("step", [
    PairFromRelator("a", "b", EMPTY),
    PairFromDefinition("a", "b", EMPTY),
    CommutationCancel(EMPTY, EMPTY, 0, 0, 1, "a"),
    Eliminate("a", EMPTY, EMPTY),
    ReplaceSubword(EMPTY, EMPTY, parse_word("a b"), 0, False, 2, 0),
    ReplaceSubword(parse_word(R), parse_word("b^3"), EMPTY, 0, False, 1, 0),
    ActivateConditional(EMPTY),
    Eliminate("a", gen("b"), parse_word("a b^-1 c")),   # not in the state
    Eliminate("a", EMPTY, gen("z")),                    # nor is z
    CommutationCancel(parse_word("c^7 a"), gen("c"), 0, 0, 1, "c"),
], ids=lambda s: f"{type(s).__name__}")
def test_steps_naming_a_relator_outside_the_state_fail(step):
    c = certify(DUPLICATES_P, budget=Budget(corroborate=False))
    with pytest.raises(CheckFailure, match="^step 0: .*(not in the state"
                                           "|no conditional relator '1')"):
        replay(replace(c, trace=(step,) + c.trace))


# two generators with one-letter relators, killed by one step
KILL_P = pres("a b c", "a", "b^-1", "a c b c^-1 a", "c^3")


@pytest.mark.parametrize("step, message", [
    (Kill((gen("a"), parse_word("b c"))), "relator 'b c' is not one letter"),
    (Kill((gen("a"), gen("a"))), "generator 'a' is killed twice"),
    (Kill((gen("b", -1), gen("a"), gen("b"))), "generator 'b' is killed twice"),
    (Kill((gen("a"), gen("z"))), "relator 'z' is not in the state"),
    (Kill((gen("a"), gen("c"))), "relator 'c' is not in the state"),
    (Kill((gen("a"), gen("b"))), "relator 'b' is not in the state"),
    (Kill((gen("a"),)), "fewer than two relators"),
    (Kill(()), "fewer than two relators"),
], ids=["two_letters", "repeated", "repeated_inverse", "unknown_generator",
        "not_in_state", "wrong_sign", "one_relator", "empty"])
def test_malformed_kills_fail(step, message):
    c = certify(KILL_P, budget=Budget(corroborate=False))
    assert type(c.trace[0]) is Kill and c.verdict == "finite_cyclic"
    replay(c, KILL_P)
    with pytest.raises(CheckFailure, match=f"^step 0: kill: {message}"):
        replay(replace(c, trace=(step,) + c.trace[1:]))


def test_kill_is_replayed_as_one_simultaneous_map():
    # killing x and then y, reducing cyclically in between, leaves a b;
    # killing both at once leaves b a, and the checker must agree with the
    # engine on the rotation
    p = pres("a b x y", "x", "y", "a^-1 y^-1 a y^-1 b a x^2")
    c = certify(p, budget=Budget(max_derivation_steps=1, corroborate=False))
    assert c.trace == (Kill((gen("x"), gen("y"))),)
    assert c.final == pres("a b", "b a")
    replay(c, p)
    assert reference_replay(c) == c.final
    sequential = replace(c.final, relators=(parse_word("a b"),))
    with pytest.raises(CheckFailure, match="terminal state"):
        replay(replace(c, final=sequential))


@st.composite
def presentations_with_duplicates(draw):
    gens = [f"g{i}" for i in range(draw(st.integers(1, 5)))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))

    def words(min_size):
        return st.lists(letter, min_size=min_size, max_size=6).map(
            lambda letters: Word(tuple(letters)))

    pair = st.tuples(letter, letter).map(
        lambda ab: commutator(gen(*ab[0]), gen(*ab[1])))
    rels = draw(st.lists(st.one_of(words(1), pair), min_size=1, max_size=8))
    for _ in range(draw(st.integers(1, 3))):       # equal relators
        rels.insert(draw(st.integers(0, len(rels))),
                    draw(st.sampled_from(rels)))
    cond = draw(st.lists(st.tuples(words(1), words(0)), max_size=2))
    tiers = draw(st.lists(words(0), max_size=1))
    return FpPresentation(
        tuple(gens), tuple(r for r in rels if r),
        tuple(ConditionalRelator(rel, key) for rel, key in cond),
        tuple(MeridionalTier(f"t{i}", key) for i, key in enumerate(tiers)))


@settings(max_examples=200, deadline=None)
@given(presentations_with_duplicates())
def test_indexed_replay_matches_the_list_replay(p):
    c = certify(p, budget=Budget(max_derivation_steps=200, corroborate=False))
    for state in replay_states(c):
        assert_index_matches(state)
    assert state.snapshot() == reference_replay(c) == c.final
    replay(c, p)


# -- each rule, by the forged step that only it rejects -----------------------
#
# Each forgery prepends one step to an honest certificate or edits one field
# of one of its steps, and must fail at that step with its rule's message:
# without the rule, the step passes and replay fails later, or not at all.
# tests/mutate_checker.py drops the rules one at a time to show this.

REPLACE_P = pres("a b", "b^3", "a^2 b^2 a^3 b^2")     # b^2 -> b^-1, twice
XY_P = pres("x y", "x^2 y^2", "x y x^-1 y^2")        # no step applies


def prepend(step):
    return lambda trace: (step,) + trace


def edit(n, **fields):
    return lambda trace: (trace[:n] + (replace(trace[n], **fields),)
                          + trace[n + 1:])


W = parse_word


@pytest.mark.parametrize("p, forge, message", [
    (XY_P, prepend(PairFromRelator("x", "y", W("x^2 y^2"))),
     "step 0: pair_from_relator: 'x^2 y^2' is not a commutator of x^±1 "
     "and y^±1"),
    (XY_P, prepend(PairFromRelator("!!", "y", W("x^2 y^2"))),
     "step 0: pair_from_relator: bad pair (!!, y)"),
    (TRIVIAL_P, prepend(PairFromDefinition("b", "b", W("b"))),
     "step 0: pair_from_definition: bad pair (b, b)"),
    (KILL_P, prepend(PairFromDefinition("b", "a", W("a c b c^-1 a"))),
     "step 0: pair_from_definition: letter 'c' of the definition of 'b' is "
     "not known to commute with 'a'"),
    (XY_P, prepend(PairFromDefinition("x", "y", W("x^2 y^2"))),
     "step 0: pair_from_definition: relator 'x^2 y^2' does not define 'x'"),
    (Z_P, edit(1, rotation=-4),
     "step 1: commutation_cancel: positions out of range"),
    (Z_P, edit(1, i=-4, j=-2),
     "step 1: commutation_cancel: positions out of range"),
    (Z_P, edit(1, x="b"),
     "step 1: commutation_cancel: positions 0,2 do not hold b^e and b^-e"),
    (Z_P, lambda trace: (trace[1],) + trace,
     "step 0: commutation_cancel: interior letter 'b' is not known to "
     "commute with 'a'"),
    (Z_P, edit(1, after=W("b")),
     "step 1: commutation_cancel: recorded result does not match (1 != b)"),
    (pres("x y", "x y x"), prepend(Eliminate("x", W("x^-1 y^-1"),
                                             W("x y x"))),
     "step 0: eliminate: relator 'x y x' does not define 'x'"),
    (REPLACE_P, prepend(ReplaceSubword(W("b^3"), EMPTY, W("b^3"), 0, False,
                                       3, 0)),
     "step 0: replace_subword: a relator may not rewrite itself"),
    (REPLACE_P, edit(0, via_rotation=-3),
     "step 0: replace_subword: rotation out of range"),
    (REPLACE_P, edit(0, split=1),
     "step 0: replace_subword: split does not shorten"),
    (REPLACE_P, edit(0, at=-7),
     "step 0: replace_subword: occurrence out of range"),
    (REPLACE_P, edit(0, at=0),
     "step 0: replace_subword: claimed occurrence does not match"),
    (REPLACE_P, edit(1, after=W("a^2 b^-1 a^3 b^2")),
     "step 1: replace_subword: recorded result does not match"),
    (Z_P, lambda trace: trace + ("a step",),
     "step 3: unknown step kind str"),
], ids=["not_a_commutator", "pair_bad_name", "definition_bad_pair",
        "definition_letter_not_paired", "definition_not_single",
        "cancel_negative_rotation", "cancel_negative_positions",
        "cancel_wrong_letter", "cancel_before_its_pair", "cancel_after",
        "eliminate_not_single", "replace_itself", "replace_negative_rotation",
        "replace_split_does_not_shorten", "replace_negative_at",
        "replace_wrong_at", "replace_after", "not_a_step"])
def test_forged_step_fails_at_its_rule(p, forge, message):
    c = certify(p, budget=Budget(corroborate=False))
    replay(c, p)
    with pytest.raises(CheckFailure, match="^" + re.escape(message)):
        replay(replace(c, trace=forge(c.trace)), p)


# Steps that the rules implied by others (and deleted) used to reject, each
# with the message of the rule that now rejects it; a kill of an unknown
# generator is a case of test_malformed_kills_fail.
@pytest.mark.parametrize("p, step, message", [
    (TRIVIAL_P, PairFromRelator("a", "b", W("a b^-1")),
     "pair_from_relator: 'a b^-1' is not a commutator of a^±1 and b^±1"),
    (DUPLICATES_P, PairFromRelator("a", "c", W("[a, b]")),
     "pair_from_relator: 'a b a^-1 b^-1' is not a commutator of a^±1 and "
     "c^±1"),
    (TRIVIAL_P, Eliminate("z", EMPTY, W("b")),
     "eliminate: relator 'b' does not define 'z'"),
    (TRIVIAL_P, Eliminate("a", W("a"), W("a b^-1")),
     "eliminate: relator 'a b^-1' defines a = b, not a"),
    (REPLACE_P, Eliminate("b", W("b^-2"), W("b^3")),
     "eliminate: relator 'b^3' does not define 'b'"),
    (TRIVIAL_P, PairFromDefinition("z", "a", W("a b^-1")),
     "pair_from_definition: relator 'a b^-1' does not define 'z'"),
    (REPLACE_P, ReplaceSubword(W("a^2 b^2 a^3 b^2"), W("a^2 b^2 a^3 b^-1"),
                               W("b^3"), 0, False, 2, 8),
     "replace_subword: claimed occurrence does not match"),
], ids=["pair_shape", "pair_names", "eliminate_unknown",
        "eliminate_self_definition", "eliminate_self_in_power",
        "definition_unknown_gen", "replace_past_the_end"])
def test_steps_of_the_implied_rules_still_fail(p, step, message):
    c = certify(p, budget=Budget(corroborate=False))
    with pytest.raises(CheckFailure, match="^step 0: " + re.escape(message)):
        replay(replace(c, trace=(step,) + c.trace), p)


# -- robustness: one field of one step edited through JSON --------------------

# honest certificates whose traces hold every step kind
ROBUST_P = [Z_P, KILL_P, REPLACE_P, TIERED_P, exotic_cp2_2().pi1]
KINDS = ["pair_from_relator", "pair_from_definition", "commutation_cancel",
         "eliminate", "kill", "replace_subword", "activate_conditional",
         "discharge_meridional"]
NAMES = ["a", "b", "c", "x", "b1", "alpha2", "z"]
LETTER = st.tuples(st.sampled_from(NAMES), st.sampled_from(["", "^-1", "^2"]))
WORD_TEXT = st.lists(LETTER, max_size=5).map(
    lambda letters: " ".join(n + e for n, e in letters) or "1")
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@cache
def honest_json(k):
    return certify(ROBUST_P[k], budget=Budget(corroborate=False)).to_json()


@st.composite
def step_edits(draw):
    """(certificate, step, field, value): one field of one step of one of
    the honest certificates, and a value of its JSON type or any other."""
    k = draw(st.integers(0, len(ROBUST_P) - 1))
    trace = honest_json(k)["trace"]
    n = draw(st.integers(0, len(trace) - 1))
    field = draw(st.sampled_from(sorted(trace[n])))
    old = trace[n][field]
    words = sorted({v for step in trace for v in step.values()
                    if type(v) is str})
    typed = {
        bool: st.booleans(),
        int: st.integers(-12, 12) | st.integers(),
        str: (st.sampled_from(KINDS) if field == "kind" else
              st.sampled_from(words) | WORD_TEXT | st.text(max_size=6)),
        list: st.lists(st.sampled_from(words) | WORD_TEXT, max_size=4),
    }[type(old)]
    return k, n, field, draw(typed | JSON_VALUE)


@pytest.fixture(scope="module")
def robust_path(tmp_path_factory):
    return tmp_path_factory.mktemp("robust") / "cert.json"


@seed(1978)
@settings(max_examples=300, deadline=None)
@given(step_edits())
@example((0, 0, "x", "!!"))              # gen() refuses the name
@example((0, 1, "rotation", -4))         # the same letters from the end
@example((1, 0, "relators", ["a", "z"]))
def test_one_step_field_edit_ends_in_a_typed_outcome(robust_path, edit):
    k, n, field, value = edit
    data = json.loads(json.dumps(honest_json(k)))
    data["trace"][n][field] = value
    try:
        c = Certificate.from_json(data)
    except CertificateFormatError:
        code = 2
    else:
        try:
            replay(c)
            code = 0
        except CheckFailure:
            code = 1
    robust_path.write_text(json.dumps(data))
    assert main(["replay", str(robust_path)]) == code


# honest certificate JSON of three verdicts: trivial, Z/3 and inconclusive
@cache
def verdict_json(k):
    return certify((exotic_cp2_2().pi1, cyclic_family(3).pi1,
                    pres("a b", "a^2", "b^2", "(a b)^7"))[k]).to_json()


def paths(data, at=()):
    """The path of every value below a JSON object or list, as key tuples."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        yield at + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, at + (key,))


@st.composite
def certificate_edits(draw):
    """One of the honest certificates as JSON, with one to three values
    deleted, replaced by any JSON value, or wrapped in a list or object."""
    data = json.loads(json.dumps(verdict_json(draw(st.integers(0, 2)))))
    for _ in range(draw(st.integers(1, 3))):
        *at, key = draw(st.sampled_from(list(paths(data))))
        parent = data
        for k in at:
            parent = parent[k]
        edit = draw(st.sampled_from(["delete", "replace", "list", "object"]))
        if edit == "delete":
            del parent[key]
        elif edit == "replace":
            parent[key] = draw(JSON_VALUE)
        elif edit == "list":
            parent[key] = [parent[key]]
        else:
            parent[key] = {draw(st.text(max_size=4)): parent[key]}
    return data


@seed(2024)
@settings(max_examples=300, deadline=None)
@given(certificate_edits())
def test_edited_certificate_json_replays_to_its_exit_code(robust_path, data):
    # the CLI exits 2 exactly when the decoder refuses the JSON, and else
    # as the checker decides; it never ends in a traceback
    try:
        c = Certificate.from_json(data)
    except CertificateFormatError:
        code = 2
    else:
        try:
            replay(c)
            code = 0
        except CheckFailure:
            code = 1
    robust_path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["replay", str(robust_path)]) == code
    assert "Traceback" not in err.getvalue()
