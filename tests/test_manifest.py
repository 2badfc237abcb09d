"""The manifest DSL and the command-line pipeline: grammar, canonical form,
evaluation, deterministic reports, and process exit codes."""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from m4kit import constructions, manifest, surgery
from m4kit.blocks import CATALOG
from m4kit.certify import certify
from m4kit.cli import main
from m4kit.manifest import (
    Definition,
    Expectation,
    Manifest,
    ManifestError,
    format_manifest,
    parse_manifest,
    report_json,
    run_manifest,
)
from m4kit.presentation import parse_presentation
from m4kit.trace import Certificate

GOOD = """\
# a twisted product and a blown-up torus, glued
block left = T2xG2(1, 1)
block right = BT4(q=1, r=1)          # trailing comment
sum x = fiber_sum(left, "Sigma2", right, "SigmaBar2")
surgery y = torus_surgery(left, "a2'xc'", 2)
blowup z = blow_up(y, n=2)
expect z: e=2, sigma=-2, parity="odd"
expect x: e=5, sigma=-1, symplectic=true
"""


# -- grammar -------------------------------------------------------------------

def test_parse_identifies_every_item():
    m = parse_manifest(GOOD)
    kinds = [type(i).__name__ for i in m.items]
    assert kinds == ["Definition"] * 5 + ["Expectation"] * 2
    defs = {i.name: i for i in m.items if isinstance(i, Definition)}
    assert defs["left"].ctor == "T2xG2"
    assert defs["x"].kind == "sum"
    assert defs["z"].args == (("base", ("ref", "y")), ("n", ("int", 2)))


MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


@pytest.mark.parametrize("text", [pytest.param(GOOD, id="GOOD")] + [
    pytest.param(path.read_text(encoding="utf-8"), id=path.name)
    for path in sorted(MANIFESTS.glob("*.m4"))])
def test_format_parse_fixpoint(text):
    m = parse_manifest(text)
    out = format_manifest(m)
    assert parse_manifest(out) == m
    assert format_manifest(parse_manifest(out)) == out


def test_canonicalize_fills_defaults_and_keywords():
    # the parser binds positional arguments to their keywords, fills in
    # defaults and leaves out an omitted prefix
    d, s = parse_manifest(
        "block b = BT4(1, 1)\n"
        'sum s = fiber_sum(b, "SigmaBar2", b, "SigmaBar2")\n').items
    assert d.args == (("q", ("int", 1)), ("r", ("int", 1)),
                      ("m", ("int", 1)), ("eps1", ("int", 1)),
                      ("eps3", ("int", -1)))
    assert [k for k, _ in s.args] == ["left", "left_surface", "right",
                                      "right_surface"]


def test_canonicalize_is_idempotent():
    # a parsed manifest is canonical: printing and parsing it again
    # changes nothing, however its arguments were written
    m = parse_manifest(GOOD)
    assert all(k is not None for d in m.items if isinstance(d, Definition)
               for k, _ in d.args)
    assert parse_manifest(format_manifest(m)) == m


def test_strings_may_contain_comment_chars_and_escapes():
    text = 'block b = T4()\nexpect b: parity="even"\n'
    m = parse_manifest(text)
    assert m.items[1].checks == (("parity", ("str", "even")),)
    quoted = parse_manifest(r'''block b = T4()
expect b: parity="ev\"en#x"
''')
    assert quoted.items[1].checks[0][1] == ("str", 'ev"en#x')


@pytest.mark.parametrize("bad, fragment", [
    ("block b = Nope()", "Nope"),
    ("block b = T4(", "line ended"),
    ("wibble b = T4()", "wibble"),
    ("block b = T4()\nblock b = T4()", "duplicate"),
    ("surgery s = torus_surgery(ghost, \"x\", 1)", "ghost"),
    ("block b = T4()\nexpect c: e=0", "c"),
    ("block b = T4()\nexpect b: flavor=3", "flavor"),
    ('block b = T4()\nexpect b: pi1="Z/1"', "pi1"),
    ("block b = T2xG2(1)", "q"),                      # missing required arg
    ('block b = T2xG2(1, "x")', "int"),               # wrong type
    ("block b = T4() extra", "extra"),
])
def test_parse_errors_carry_context(bad, fragment):
    with pytest.raises(ManifestError) as err:
        run_manifest(parse_manifest(bad))
    assert fragment.lower() in str(err.value).lower()


def test_error_line_numbers():
    with pytest.raises(ManifestError) as err:
        parse_manifest("block a = T4()\n\nblock a = T4()\n")
    assert err.value.line == 3


# -- evaluation ------------------------------------------------------------------

def test_run_manifest_builds_and_checks():
    result = run_manifest(parse_manifest(GOOD))
    assert set(result.manifolds) == {"left", "right", "x", "y", "z"}
    assert result.manifolds["z"].euler == 2
    assert len(result.outcomes) == 6
    assert all(o.passed for o in result.outcomes)


def test_run_manifest_reports_failures_without_raising():
    result = run_manifest(parse_manifest("block b = T4()\nexpect b: e=5\n"))
    (o,) = result.outcomes
    assert (o.expected, o.actual, o.passed) == (5, 0, False)


def test_run_manifest_leaves_inconclusive_checks_undetermined():
    # pi1(T4) = Z^4: the engine stalls, which is inconclusive, not false;
    # every check read off that certificate is undetermined, the rest hold
    # or are refuted as usual, and the report's "pass" stays a boolean
    m = parse_manifest('block b = T4()\nexpect b: e=999, pi1="trivial", '
                       'gen="alpha1", model="S4", sigma=0\n')
    result = run_manifest(m)
    assert [(o.key, o.passed) for o in result.outcomes] == [
        ("e", False), ("pi1", None), ("gen", None), ("model", None),
        ("sigma", True)]
    rep = report_json(m, result)
    assert [c["pass"] for c in rep["checks"]] == [False, False, False,
                                                   False, True]
    assert rep["summary"] == {"checks": 5, "passed": 1, "failed": 4}


def test_run_manifest_certifies_and_replays():
    text = ('block l = T2xG2(1, 1)\nblock r = BT4(1, 1)\n'
            'sum x = fiber_sum(l, "Sigma2", r, "SigmaBar2")\n'
            'expect x: pi1="trivial", model="CP2 # 2CP2bar"\n')
    result = run_manifest(parse_manifest(text))
    assert all(o.passed for o in result.outcomes)
    cert = result.certificates["x"]
    assert cert.verdict == "trivial"


# -- reports ----------------------------------------------------------------------

def test_report_schema_and_shape():
    m = parse_manifest(GOOD)
    rep = report_json(m, run_manifest(m))
    assert rep["schema"] == "m4kit.report/1"
    assert {d["name"] for d in rep["definitions"]} == \
        {"left", "right", "x", "y", "z"}
    assert rep["summary"] == {"checks": 6, "passed": 6, "failed": 0}


def test_report_is_deterministic_in_process():
    m = parse_manifest(GOOD)
    a = json.dumps(report_json(m, run_manifest(m)), sort_keys=True)
    b = json.dumps(report_json(m, run_manifest(m)), sort_keys=True)
    assert a == b


def test_report_is_deterministic_across_interpreters(tmp_path):
    # hash randomization must not leak into reports (trace emission order
    # once depended on frozenset iteration; this is the regression gate)
    src = tmp_path / "r.m4"
    src.write_text('block l = T2xG2(1, 1)\nblock r = BT4(1, 1)\n'
                   'sum x = fiber_sum(l, "Sigma2", r, "SigmaBar2")\n'
                   'expect x: pi1="trivial"\n')
    outs = []
    for seed in ("1", "4242"):
        out = tmp_path / f"rep{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "m4kit.cli", "build", str(src),
             "-o", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# SHA-256 of each shipped manifest's report, exactly as `m4kit build -o` writes
# it.  Any change to verdicts, traces, certificate or report bytes shows here;
# a deliberate format or trace change updates the digests (last: schema /2,
# whose kill step takes every ready kill at once and shortened the traces).
REPORT_SHA256 = {
    "blocks.m4": "f9101c3261989762ef844ed1f131c101abba4d52da2d13ee843536a464365d2a",
    "cyclic_family.m4": "efdd7bbad348c2b4689d4f4c4a346551dc2db25dce32692f18d47abe9f77320c",
    "exotic_cp2_2.m4": "91f36a04b66b3e8beb7c16cb2cc731f5a1f402610e116cdb840b5f298e1ca5dd",
    "exotic_cp2_4.m4": "56e8576a39e57be45476929c2f05d474823c7c93c85ed6949e4e10a324d518e1",
    "exotic_cp2_6.m4": "ee15c3ca752647f2501d343547502425e393c8c02c8d162388ee3e8f0765d272",
    "exotic_odd_cp2.m4": "aff35de9f3adae0de0069ab43479320a9ddfd285aeffc182824e1be45e108712",
    "finite_cyclic.m4": "2387889a99f268d92ed13eee96095326bdd74ad49275a2aa8bbfe78b4b2d179f",
    "geography_1_5.m4": "579cfb74cc68b40a256c02618558b0bedb1d03267075f63537e860b48e5ebe5c",
    "geography_1_7.m4": "3e446d102c93208b19606f41ce159d0968f958c5d0d95289188429e82d59203e",
    "geography_2_11.m4": "647e1329d10612c20b1d827b3def622e5a0a1d3b556bcf937495f22b145337dd",
    "geography_2_13.m4": "fb5f8ac16de20c6bd2ba8764f12400eba74b7fd66a6362b9694d995d24d64002",
    "geography_2_15.m4": "8dabfa01b941365f84512e58d38e28760b72a354f3c044dd06881437b38454e5",
    "geography_2_9.m4": "db6c1de80bcac83607be6c6850206f143367b5ce8e039ab0134372225a6d6673",
    "surgery_routes.m4": "aa2f4fe49dda9fc92082deefa96016d83f771df6f0b93e61da9f147600a67691",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_shipped_manifest_report_bytes(name):
    path = Path(__file__).resolve().parent.parent / "manifests" / name
    m = parse_manifest(path.read_text(encoding="utf-8"))
    text = json.dumps(report_json(m, run_manifest(m)), indent=2,
                      sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]


# -- exit codes --------------------------------------------------------------------

def write(tmp_path, text):
    p = tmp_path / "m.m4"
    p.write_text(text)
    return str(p)


def test_exit_ok(tmp_path, capsys):
    path = write(tmp_path, "block b = T4()\nexpect b: e=0, sigma=0\n")
    assert main(["build", path]) == 0
    assert "2/2 checks passed" in capsys.readouterr().out


def test_exit_failure(tmp_path, capsys):
    path = write(tmp_path, "block b = T4()\nexpect b: e=5\n")
    assert main(["build", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_exit_usage_on_parse_error(tmp_path, capsys):
    path = write(tmp_path, "block b = Frobnicate()\n")
    assert main(["build", path]) == 2
    assert main(["build", str(tmp_path / "missing.m4")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["build", "certify", "fmt"])
@pytest.mark.parametrize("call", [
    "T2xG2(1)", 'T2xG2(1, "x")', "T2xG2(p=1, q=1, z=2)", "T2xG2(p=1, 1)",
], ids=["missing", "wrong_type", "unknown_keyword",
        "positional_after_keyword"])
def test_exit_usage_on_bad_arguments(tmp_path, capsys, command, call):
    path = write(tmp_path, f"block b = {call}\n")
    argv = [command, path] + (["b"] if command == "certify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "manifest error: line 1: T2xG2: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "certify"])
@pytest.mark.parametrize("text", [
    "block b = G2xGn(n=1000000000, m=1)",
    "block b = G2xGn(n=50000, m=1)",
    "block b = G2xGn(n=2, m=1000000000)",
    "block b = T2xG2(p=1000000000, q=1)",
    "block b = BT4(q=1, r=1000000001, m=1000000000)",
    "block t = T4()\n"
    "surgery b = torus_surgery(t, site=\"alpha2'xalpha3'\", k=1000000001)",
], ids=["huge_n", "large_n", "huge_m", "huge_block_k", "huge_block_m",
        "huge_surgery_k"])
def test_exit_usage_on_oversized_block(tmp_path, capsys, command, text):
    # each size is checked against MAX_LETTERS before a word is built, so
    # a one-line manifest cannot ask for a billion letters; large_n has no
    # word near the cap, but its 1.1 M relator letters pass it
    path = write(tmp_path, text + "\n")
    argv = [command, path] + (["b"] if command == "certify" else [])
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "more than 1,000,000 letters" in err
    assert "manifest error: line" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["build", "certify", "replay", "fmt"])
@pytest.mark.parametrize("unreadable", ["directory", "missing", "not_utf8"])
def test_exit_usage_on_unreadable_input(tmp_path, capsys, command, unreadable):
    path = tmp_path / unreadable
    if unreadable == "directory":
        path.mkdir()
    elif unreadable == "not_utf8":
        path.write_bytes(b"block b\xff = T4()\n")
    argv = [command, str(path)] + (["b"] if command == "certify" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert str(path) in err


# (1, 6) has no recipe; (100000000, 799999999) has one, whose G2xGn block
# would pass the letter cap
@pytest.mark.parametrize("chi, c1sq", [("1", "6"), ("100000000", "799999999")])
def test_exit_usage_on_bad_geography_pair(capsys, chi, c1sq):
    assert main(["geography", chi, c1sq]) == 2
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_exit_usage_on_bad_coset_budget(tmp_path, capsys, count):
    path = write(tmp_path, "block b = T4()\nexpect b: e=0\n")
    assert main(["build", path, "--max-cosets", count]) == 2
    assert "budget error" in capsys.readouterr().err


def test_report_bytes_ignore_the_environment(tmp_path, capsys, monkeypatch):
    # the coset budget is the flag's, whatever the shell exports
    path = MANIFESTS / "exotic_cp2_2.m4"
    monkeypatch.delenv("M4KIT_BUDGET_COSETS", raising=False)
    outs = []
    for name in ("unset", "set"):
        out = tmp_path / f"{name}.json"
        assert main(["build", str(path), "-o", str(out)]) == 0
        outs.append(out.read_bytes())
        monkeypatch.setenv("M4KIT_BUDGET_COSETS", "5")
    assert outs[0] == outs[1]
    capsys.readouterr()


def test_exit_budget_on_inconclusive(tmp_path, capsys):
    path = write(tmp_path, 'block b = T4()\nexpect b: pi1="trivial"\n')
    assert main(["build", path]) == 3
    assert main(["certify", path, "b"]) == 3
    capsys.readouterr()


T4 = "block t = T4()\n"             # pi1 = Z^4 stalls the engine
TRIVIAL_X = ('block l = T2xG2(1, 1)\nblock r = BT4(1, 1)\n'
             'sum x = fiber_sum(l, "Sigma2", r, "SigmaBar2")\n')


# One rule maps the checks of build, certify and geography to the exit code:
# 1 if any check is refuted, else 3 if any is undetermined, else 0.  Each row
# is (arguments, manifest text, exit code, fields of the -o JSON that the
# run writes); {m} stands for the manifest's path.
@pytest.mark.parametrize("argv, text, code, fields", [
    # every check holds
    (["build", "{m}"], T4 + "expect t: e=0, sigma=0\n", 0,
     {"summary": {"checks": 2, "passed": 2, "failed": 0}}),
    # refuted only
    (["build", "{m}"], T4 + "expect t: e=5, sigma=0\n", 1,
     {"summary": {"checks": 2, "passed": 1, "failed": 1}}),
    # undetermined only
    (["build", "{m}"], T4 + 'expect t: pi1="trivial"\n', 3,
     {"summary": {"checks": 1, "passed": 0, "failed": 1}}),
    # refuted plus undetermined is refuted
    (["build", "{m}"], T4 + 'expect t: e=999, pi1="Z"\n', 1,
     {"summary": {"checks": 2, "passed": 0, "failed": 2}}),
    # gen reads the same inconclusive certificate as pi1
    (["build", "{m}"], T4 + 'expect t: pi1="Z", gen="alpha1"\n', 3,
     {"summary": {"checks": 2, "passed": 0, "failed": 2}}),
    (["certify", "{m}", "x", "--target", "trivial"], TRIVIAL_X, 0,
     {"verdict": "trivial", "matches_target": True}),
    (["certify", "{m}", "x", "--target", "Z"], TRIVIAL_X, 1,
     {"verdict": "trivial", "matches_target": False}),
    (["certify", "{m}", "t", "--target", "Z"], T4, 3,
     {"verdict": "inconclusive", "matches_target": False}),
    # the torus enumeration needs 83 cosets: undetermined, not refuted
    (["geography", "1", "7", "--max-cosets", "50"], "", 3,
     {"meridian_dies": True, "torus_surjects": None}),
], ids=["holds", "refuted", "undetermined", "refuted+undetermined",
        "undetermined-gen", "certify-holds", "certify-mismatch",
        "certify-inconclusive", "geography-out-of-cosets"])
def test_exit_code_follows_the_check_outcomes(tmp_path, capsys, argv, text,
                                              code, fields):
    path, out = write(tmp_path, text), tmp_path / "out.json"
    assert main([a.format(m=path) for a in argv] + ["-o", str(out)]) == code
    data = json.loads(out.read_text())
    assert {k: data[k] for k in fields} == fields
    capsys.readouterr()


def test_certify_replay_round_trip(tmp_path, capsys):
    path = write(tmp_path,
                 'block l = T2xG2(1, 1)\nblock r = BT4(1, 1)\n'
                 'sum x = fiber_sum(l, "Sigma2", r, "SigmaBar2")\n')
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", path, "x", "--target", "trivial",
                 "-o", cert_path]) == 0
    assert main(["replay", cert_path, "--manifest", path, "--name", "x"]) == 0
    # doctor the verdict: replay must fail loudly
    data = json.loads(Path(cert_path).read_text())
    data["verdict"] = "infinite_cyclic"
    data["generator"] = "c"
    Path(cert_path).write_text(json.dumps(data))
    assert main(["replay", cert_path]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, missing", [("--manifest", "--name"),
                                           ("--name", "--manifest")])
def test_replay_flags_come_in_pairs(tmp_path, capsys, flag, missing):
    # either flag alone is a usage error, not a replay against no input
    path = write(tmp_path, "block b = T4()\n")
    cert_path = str(tmp_path / "cert.json")
    assert main(["certify", path, "b", "-o", cert_path]) == 3
    value = path if flag == "--manifest" else "b"
    assert main(["replay", cert_path, flag, value]) == 2
    assert f"{flag} requires {missing}" in capsys.readouterr().err


def test_bad_block_parameter_exits_usage_under_optimize(tmp_path):
    # the parameter checks are exceptions, not asserts: -O changes nothing
    path = write(tmp_path, "block z = BT4(q=1, r=1, m=1, eps1=5)\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "m4kit.cli", "build", path],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "eps1=5" in proc.stderr


def test_multi_digit_cyclic_targets(tmp_path, capsys):
    path = write(tmp_path, 'block z = BT4(q=1, r=1, m=1)\n'
                 'block y10 = T2xG2(p=10, q=1)\n'
                 'sum g10 = fiber_sum(y10, "Sigma2", z, "SigmaBar2")\n'
                 'expect g10: pi1="Z/10", gen="c"\n'
                 'block y21 = T2xG2(p=21, q=1)\n'
                 'sum g21 = fiber_sum(y21, "Sigma2", z, "SigmaBar2")\n'
                 'expect g21: pi1="Z/21"\n')
    assert main(["build", path]) == 0
    assert main(["certify", path, "g21", "--target", "Z/21"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("target", ["bogus", "Z/x", "Z/1"])
def test_exit_usage_on_bad_target(tmp_path, capsys, target):
    path = write(tmp_path, f'block b = T4()\nexpect b: pi1="{target}"\n')
    assert main(["build", path]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["certify", path, "b", "--target", target])
    assert exc.value.code == 2
    capsys.readouterr()


def _mangle_schema(cert):
    cert["schema"] = "m4kit.certificate/9"


def _mangle_kind(cert):
    cert["trace"][1]["kind"] = "teleport"


def _mangle_missing_field(cert):
    del cert["trace"][1]["j"]


def _mangle_rotation(cert):
    cert["trace"][1]["rotation"] = "0"


def _mangle_distinguished(cert):
    cert["presentation"] += "\ndistinguished: mu = a"


def _mangle_deep_nesting(cert):
    cert["presentation"] += "\nrelator: " + "(" * 3000 + "a" + ")" * 3000


def _mangle_huge_power(cert):
    cert["presentation"] += "\nrelator: a^100000000000"


def _mangle_repeated_generators(cert):
    cert["presentation"] += "\ngenerators: c"


def _mangle_target(cert):
    cert["target"], cert["matches_target"] = "zz", False


def _mangle_verdict(cert):
    # decodes field by field; only the verdict rule of from_json refuses it,
    # and without that rule replay reports tampering (exit 1)
    cert["verdict"] = "bogus"


def _mangle_item(key, item):
    def mangle(cert):
        cert[key] = [item]
    return mangle


def _mangle_to_object(key):
    def mangle(cert):
        cert[key] = {}
    return mangle


MANGLES = [
    pytest.param(m, id=m.__name__) for m in (
        _mangle_schema, _mangle_kind, _mangle_missing_field, _mangle_rotation,
        _mangle_distinguished, _mangle_deep_nesting, _mangle_huge_power,
        _mangle_repeated_generators, _mangle_target, _mangle_verdict)
] + [
    # every certificate field decodes from its own JSON type only
    pytest.param(_mangle_to_object(f), id=f"{f}={{}}")
    for f in Certificate.__slots__
] + [
    pytest.param(_mangle_item(key, item), id=f"{key}[0]={item!r}")
    for key, item in (("h1_torsion", "1"), ("coset_subgroup", 1),
                      ("activated", 1))
]


@pytest.mark.parametrize("mangle", MANGLES)
def test_exit_usage_on_malformed_certificate(tmp_path, capsys, mangle):
    p = parse_presentation("generators: a, b\nrelator: [a, b]\n"
                           "relator: a b^2 a^-1 b^-1")
    cert = certify(p).to_json()
    assert cert["trace"][1]["kind"] == "commutation_cancel"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["replay", str(path)]) == 0
    mangle(cert)
    path.write_text(json.dumps(cert))
    assert main(["replay", str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def test_exit_usage_on_deeply_nested_certificate_json(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text("[" * 100_000)
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed certificate" in err and "Traceback" not in err


def test_fmt_writes_canonical_fixpoint(tmp_path, capsys):
    path = write(tmp_path, "block b   =  BT4( 1,1 )\n")
    assert main(["fmt", path, "-w"]) == 0
    first = Path(path).read_text()
    assert "BT4(q=1, r=1, m=1, eps1=1, eps3=-1)" in first
    assert main(["fmt", path, "-w"]) == 0
    assert Path(path).read_text() == first
    capsys.readouterr()


# fmt -w refuses a manifest with a comment, which the canonical form would
# drop: it writes nothing, names the line and exits 1
@pytest.mark.parametrize("text, line", [
    ("# the blocks\nblock b = BT4(1, 1)\n", 1),
    ("block b = BT4(1, 1)\nblock c = T4()   # no twists\n", 2),
])
def test_fmt_write_keeps_a_manifest_with_a_comment(tmp_path, capsys, text,
                                                   line):
    path = write(tmp_path, text)
    assert main(["fmt", path, "-w"]) == 1
    assert Path(path).read_text() == text
    captured = capsys.readouterr()
    assert f"line {line} of {path} holds a comment" in captured.err
    assert "rewrote" not in captured.out
    # without -w the canonical form is printed as before
    assert main(["fmt", path]) == 0
    assert capsys.readouterr().out.startswith(
        "block b = BT4(q=1, r=1, m=1, eps1=1, eps3=-1)\n")


def test_fmt_write_rewrites_a_hash_inside_a_string(tmp_path, capsys):
    path = write(tmp_path,
                 'block b = BT4(1, 1)\nexpect b: model="CP2 # 2CP2bar"\n')
    assert main(["fmt", path, "-w"]) == 0
    assert Path(path).read_text() == (
        "block b = BT4(q=1, r=1, m=1, eps1=1, eps3=-1)\n"
        'expect b: model="CP2 # 2CP2bar"\n')
    capsys.readouterr()


def test_geography_report(tmp_path, capsys):
    out = str(tmp_path / "geo.json")
    assert main(["geography", "1", "7", "-o", out]) == 0
    rep = json.loads(Path(out).read_text())
    assert rep["schema"] == "m4kit.geography/1"
    capsys.readouterr()


def test_catalog_prints(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in ("T2xG2", "G2xGn", "BT4", "BBT4", "T4b2", "T4", "T2xS2b4"):
        assert name in out


OPERATIONS = ("torus_surgery", "blow_up", "fiber_sum")


COMPOSITES = ("exotic_cp2_2", "exotic_odd_cp2", "cyclic_family",
              "exotic_cp2_4", "exotic_cp2_6", "finite_cyclic_example")


def test_catalog_calls_match_the_signatures(capsys):
    # each block and operation call that `m4kit catalog` prints is the
    # function's own parameter list, so a manifest can use those keywords
    # (and, as the manifest binds them, any of them positionally)
    assert main(["catalog"]) == 0
    printed = dict(re.findall(r"\b(\w+)\(([^()]*)\)", capsys.readouterr().out))
    functions = {**CATALOG, **{op: vars(surgery)[op] for op in OPERATIONS}}
    for name, fn in functions.items():
        params = inspect.signature(fn).parameters.values()
        expected = ", ".join(
            p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in params)
        assert printed[name] == expected, name
    # each composite is a python call: its signature, keyword-only marker
    # included, without the annotations
    assert set(COMPOSITES) == {
        name for name, fn in vars(constructions).items()
        if inspect.isfunction(fn) and fn.__module__ == constructions.__name__}
    for name in COMPOSITES:
        sig = inspect.signature(vars(constructions)[name])
        bare = sig.replace(return_annotation=sig.empty, parameters=[
            p.replace(annotation=p.empty) for p in sig.parameters.values()])
        assert printed[name] == str(bare)[1:-1], name


# the argument schemas of the manifest language, transcribed by hand:
# (parameter, value tag, required, default)
SCHEMAS = {
    "T2xG2": (("p", "int", True, None), ("q", "int", True, None)),
    "G2xGn": (("n", "int", True, None), ("m", "int", True, None)),
    "BT4": (("q", "int", True, None), ("r", "int", True, None),
            ("m", "int", False, 1), ("eps1", "int", False, 1),
            ("eps3", "int", False, -1)),
    "BBT4": (("q", "int", True, None), ("r", "int", True, None)),
    "T4b2": (),
    "T4": (),
    "T2xS2b4": (),
    "torus_surgery": (("base", "ref", True, None), ("site", "str", True, None),
                      ("k", "int", True, None), ("m", "int", False, 1)),
    "blow_up": (("base", "ref", True, None), ("n", "int", False, 1)),
    "fiber_sum": (("left", "ref", True, None),
                  ("left_surface", "str", True, None),
                  ("right", "ref", True, None),
                  ("right_surface", "str", True, None),
                  ("prefix", "str", False, None)),
}


def test_schemas_read_from_signatures_pin_the_language():
    functions = {**CATALOG, **{op: vars(manifest)[op] for op in OPERATIONS}}
    assert {name: manifest._schema(fn) for name, fn in functions.items()} \
        == SCHEMAS
