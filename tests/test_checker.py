"""The independent step-checker.  One direction is boring (honest
certificates replay); the point of this file is the other direction —
every kind of tampering must raise CheckFailure."""

import json
from dataclasses import replace

import pytest

from m4kit.certify import Certificate, certify
from m4kit.checker import CheckFailure, replay
from m4kit.cli import main
from m4kit.presentation import ConditionalRelator, FpPresentation, MeridionalTier
from m4kit.trace import Eliminate
from m4kit.words import gen, parse_word


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
