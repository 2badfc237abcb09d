"""Value semantics of the package's record types, against an oracle: for
each class, a dataclass twin declared here with the fields, defaults and
compare flags the class had as a dataclass."""

import copy
import dataclasses
import inspect
import pickle
from typing import Any

import pytest

from m4kit.abelian import AbelianGroup, SmithForm, smith_normal_form
from m4kit.blocks import EmbeddedSurface, MarkedManifold, SurgeryDatum, t2xg2, t4
from m4kit.certify import Budget, BudgetError, certify
from m4kit.coset import CosetCount, Exceeded
from m4kit.geography import FreedmanModel, GeoPoint, Realization
from m4kit.manifest import (
    CheckOutcome,
    Definition,
    Expectation,
    Manifest,
    RunResult,
)
from m4kit.presentation import (
    ConditionalRelator,
    FpPresentation,
    MeridionalTier,
    PresentationError,
)
from m4kit.trace import (
    ActivateConditional,
    Certificate,
    CommutationCancel,
    DischargeMeridional,
    Eliminate,
    Kill,
    PairFromDefinition,
    PairFromRelator,
    ReplaceSubword,
)
from m4kit.words import Record, Word, gen, parse_word, replace


# class -> its fields as the dataclass declared them: "name",
# ("name", default) or ("name", default, compare)
FIELDS = {
    Word: [("letters", ())],
    MeridionalTier: ["label", "key"],
    ConditionalRelator: ["relator", "key"],
    FpPresentation: [("generators", ()), ("relators", ()),
                     ("conditional", ()), ("meridional", ())],
    SurgeryDatum: ["name", "curve", "pushoff", "torus_generators", "relator",
                   "unsurgered"],
    EmbeddedSurface: ["name", "genus", "self_intersection",
                      "generator_images", "modulo_meridian", "meridian",
                      "complement_pi1"],
    MarkedManifold: ["name", "euler", "signature", "parity", "symplectic",
                     "minimal", "pi1", ("surfaces", ()), ("sites", ())],
    Budget: [("max_cosets", 1_000_000), ("max_derivation_steps", 10_000),
             ("corroborate", True)],
    Exceeded: ["max_cosets"],
    CosetCount: ["index", "total_defined"],
    SmithForm: ["d", "row_ops", "col_ops"],
    AbelianGroup: ["rank", ("torsion", ())],
    GeoPoint: ["chi", "c1sq"],
    FreedmanModel: ["b2_plus", "b2_minus"],
    Realization: ["point", "manifold", "site_name", "closed_certificate",
                  "complement_certificate", "meridian_dies", "torus_surjects"],
    PairFromRelator: ["x", "y", "relator"],
    PairFromDefinition: ["gen", "other", "relator"],
    CommutationCancel: ["before", "after", "rotation", "i", "j", "x"],
    Eliminate: ["gen", "definition", "via"],
    Kill: ["relators"],
    ReplaceSubword: ["before", "after", "via", "via_rotation", "via_inverted",
                     "split", "at"],
    ActivateConditional: ["relator"],
    DischargeMeridional: ["label"],
    Certificate: ["verdict", "generator", "order", "reason", "presentation",
                  "final", "trace", "activated", "h1_rank", "h1_torsion",
                  "coset_index", "coset_subgroup", "steps_used", "target",
                  "matches_target"],
    Definition: ["kind", "name", "ctor", "args", ("line", 0, False)],
    Expectation: ["name", "checks", ("line", 0, False)],
    Manifest: ["items"],
    CheckOutcome: ["manifold", "key", "expected", "actual", "passed"],
    RunResult: ["manifolds", "outcomes", "certificates"],
}


def _twin(cls):
    fields = []
    for spec in FIELDS[cls]:
        name, default, compare = (spec, dataclasses.MISSING, True) \
            if isinstance(spec, str) else (spec + (True,))[:3]
        fields.append((name, Any,
                       dataclasses.field(default=default, compare=compare)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: _twin(cls) for cls in FIELDS}


def twin_of(obj):
    return TWINS[type(obj)](*(getattr(obj, f) for f in obj.__slots__))


def _samples():
    """Two or more instances of every class, some equal, some not."""
    w, v = parse_word("a b^-1"), parse_word("[a, b]")
    p = FpPresentation(("a", "b"), (w, v))
    steps = [PairFromRelator("a", "b", v), PairFromDefinition("a", "b", v),
             PairFromDefinition("a", "b", v), PairFromDefinition("b", "a", v),
             CommutationCancel(v, w, 0, 1, 2, "a"), Eliminate("a", w, v),
             Eliminate("a", w, v), Eliminate("a", v, w),
             Kill((gen("a"), gen("b", -1))), Kill((gen("a"), gen("b", -1))),
             Kill((gen("b", -1), gen("a"))), Kill((gen("a"),)),
             ReplaceSubword(v, w, v, 1, True, 2, 0),
             ActivateConditional(v), ActivateConditional(w),
             DischargeMeridional("g"), DischargeMeridional("g")]
    cert = certify(FpPresentation(("a", "b"), (gen("a"), gen("b"))),
                   target="trivial")
    M = t2xg2(1, 1)
    return [
        Word(w.letters), Word(w.letters), Word(), w * gen("b"),
        MeridionalTier("g", v), MeridionalTier("g", v),
        MeridionalTier("h", v),
        ConditionalRelator(w, v), ConditionalRelator(v, w),
        p, FpPresentation(("a", "b"), (w, v)), FpPresentation(),
        *M.sites[:2], M.surfaces[0], M, t2xg2(1, 1), t4(),
        Budget(), Budget(5, 7, False), Budget(5, 7, False),
        Exceeded(10), Exceeded(10), CosetCount(3, 5), CosetCount(5, 3),
        smith_normal_form([[2, 0], [0, 3]]),
        smith_normal_form([[2, 0], [0, 3]]),
        AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0, (2,)),
        GeoPoint(1, 2), GeoPoint(1, 2), GeoPoint(2, 1),
        FreedmanModel(1, 2), FreedmanModel(2, 1),
        Realization(GeoPoint(1, 2), M, "a1'xc'", cert, cert, True, False),
        Realization(GeoPoint(1, 2), M, "a1'xc'", cert, cert, True, True),
        *steps, cert, replace(cert, steps_used=cert.steps_used + 1),
        Definition("block", "b", "T4", (), 1),
        Definition("block", "b", "T4", (), 7),
        Definition("block", "c", "T4", ()),
        Expectation("b", (("e", ("int", 0)),), 2),
        Expectation("b", (("e", ("int", 0)),), 3),
        Manifest((Definition("block", "b", "T4", (), 1),)),
        Manifest((Definition("block", "b", "T4", (), 9),)),
        Manifest(()),
        CheckOutcome("b", "e", 0, 0, True),
        CheckOutcome("b", "pi1", "Z", "inconclusive (stalled)", None),
        RunResult({}, [], {}), RunResult({}, [], {}),
        RunResult({"b": M}, [], {}),
    ]


SAMPLES = _samples()


def _record_classes(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _record_classes(sub)


def test_every_record_class_has_samples_and_a_twin():
    assert {type(s) for s in SAMPLES} == set(FIELDS)
    assert set(FIELDS) == set(_record_classes(Record)) - {Record}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_constructor_matches_the_twin(cls):
    # the same parameters, in the same order, with the same defaults
    ours = inspect.signature(cls).parameters
    theirs = inspect.signature(TWINS[cls]).parameters
    assert list(ours) == list(theirs) == list(cls.__slots__)
    for name, param in theirs.items():
        assert ours[name].default == param.default


@pytest.mark.parametrize("obj", SAMPLES, ids=lambda s: type(s).__name__)
def test_repr_hash_and_immutability_match_the_twin(obj):
    twin = twin_of(obj)
    if "__repr__" not in vars(type(obj)):
        assert repr(obj) == repr(twin)
    assert (type(obj).__hash__ is None) == (type(twin).__hash__ is None)
    try:
        expected = hash(twin)
    except TypeError:                      # a field holds a list or a dict
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == expected
    assert not hasattr(obj, "__dict__")
    field = obj.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    assert copy.copy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_equality_matches_the_twin():
    # within a class, across classes (two steps with equal fields are not
    # equal), and whatever the uncompared line numbers
    twins = [twin_of(s) for s in SAMPLES]
    for a, ta in zip(SAMPLES, twins):
        for b, tb in zip(SAMPLES, twins):
            assert (a == b) == (ta == tb), (a, b)
            assert (a != b) == (ta != tb), (a, b)
            # the fields of these two hold lists or dicts, which no hash takes
            if a == b and type(a) not in (SmithForm, RunResult):
                assert hash(a) == hash(b)
    assert PairFromRelator("a", "b", Word()) != \
        PairFromDefinition("a", "b", Word())
    assert Definition("block", "b", "T4", (), 1) == \
        Definition("block", "b", "T4", (), 2)


def test_replace_runs_the_checks_again():
    p = FpPresentation(("a", "b"), (parse_word("a b"),))
    assert replace(p, relators=()) == FpPresentation(("a", "b"))
    with pytest.raises(PresentationError, match="unknown generators"):
        replace(p, relators=(parse_word("a z"),))
    with pytest.raises(BudgetError):
        replace(Budget(), max_cosets=None)
    with pytest.raises(TypeError):
        replace(p, nonsense=1)
    assert replace(Word(), letters=(("a", 1), ("a", -1))) == Word()


def test_the_default_budget_ignores_the_environment(monkeypatch):
    # a budget depends only on its arguments, so report bytes cannot drift
    # with the shell that runs the command
    monkeypatch.setenv("M4KIT_BUDGET_COSETS", "5")
    assert Budget() == Budget(1_000_000)
    with pytest.raises(BudgetError):
        Budget(max_cosets=None)
