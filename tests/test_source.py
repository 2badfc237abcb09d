"""Source-level rules of the package."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import m4kit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "m4kit"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_check_rests_on_assert(path):
    # python -O strips assert statements; every check must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source):
    """The lines of `source` that name one of os's ways to read the
    process environment, as an attribute or an imported name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READS)
            or (isinstance(node, ast.ImportFrom)
                and {a.name for a in node.names} & ENVIRONMENT_READS)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a result depends only on the arguments of the call that makes it, so
    # the same command writes the same bytes whatever the shell exports
    lines = environment_reads(path.read_text(encoding="utf-8"))
    assert lines == [], f"{path.name}: environment read on lines {lines}"


def test_the_environment_rule_sees_each_way_to_read_it():
    for source in ("import os\nos.environ.get('X')",
                   "from os import environ", "from os import getenv as g",
                   "import os as o\no.getenv('X')"):
        assert environment_reads(source) == [source.count("\n") + 1], source
    # a mention in text, or a name of the module's own, reads nothing
    assert environment_reads('"os.environ"\nenviron = {}') == []


def imports_of(path):
    """Map each package module that `path` imports from to the names it
    takes (an empty set for a whole-module import)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.setdefault(alias.name.removeprefix("m4kit."), set())
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("m4kit.")
            if node.level and not node.module:      # from . import coset
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(module, set()).update(
                    alias.name for alias in node.names)
    return found


def package_modules_reached(name):
    """The package modules that module `name` imports, directly or through
    the modules it imports."""
    seen, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in seen and (PACKAGE / f"{module}.py").exists():
            seen.add(module)
            todo.extend(imports_of(PACKAGE / f"{module}.py"))
    return seen - {name}


def test_checker_stays_independent_of_the_engine():
    # the checker re-derives everything by word algebra from the format it
    # reads, so no engine, H1 or coset module may sit under it
    assert package_modules_reached("checker") <= {"words", "presentation",
                                                  "trace"}
    # the rule sees a module that is reached only through another
    assert {"certify", "abelian", "coset"} <= package_modules_reached("cli")


def test_the_engine_leaves_json_to_the_certificate_format():
    json_helpers = {"json_field", "step_to_json", "step_from_json",
                    "format_presentation", "parse_presentation"}
    imported = imports_of(PACKAGE / "certify.py")
    assert not set().union(*imported.values()) & json_helpers


BENCH = PACKAGE.parent.parent / "bench"


def test_names_the_benchmark_looks_up_exist():
    # bench/spans.py wraps each LAYERS function through vars(module)[name] and
    # bench/run.py calls m4.<name>; a deleted name breaks the benchmark only
    spans = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in spans.body
                  if isinstance(node, ast.AnnAssign)
                  and getattr(node.target, "id", None) == "LAYERS")
    missing = [f"{module}.{name}"
               for module, names in layers.values()
               for name in names
               if not callable(vars(importlib.import_module(module)).get(name))]
    run = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    missing += [f"m4kit.{node.attr}" for node in ast.walk(run)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "m4"
                and not hasattr(m4kit, node.attr)]
    assert layers
    assert missing == []


def test_certificate_keys_the_benchmark_reads_exist():
    # bench/run.py reads certificate JSON by key, as `data[...]` (in
    # _check_certificate and the family check); a renamed key breaks the
    # benchmark only
    run = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    keys = {node.slice.value for node in ast.walk(run)
            if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == "data"
            and isinstance(node.slice, ast.Constant)}
    assert {"verdict", "reason", "order", "h1_rank", "h1_torsion",
            "coset_index", "matches_target"} <= keys
    p = m4kit.exotic_odd_cp2(5, 1).pi1
    for cert in (m4kit.certify(p, target="trivial",
                               budget=m4kit.Budget(corroborate=False)),
                 m4kit.certify(m4kit.exotic_cp2_2().pi1, target="trivial")):
        data = cert.to_json()
        assert data["schema"] == "m4kit.certificate/2"
        assert any(step["kind"] == "kill" for step in data["trace"])
        assert keys <= data.keys()


def replay_reached_outside_the_check(source):
    """Whether the elimination `_smith` reaches `_replay` other than through
    `_check_smith`: following the names that each module-level function
    mentions, its nested operations included, with `_check_smith` cut."""
    tree = ast.parse(source)
    mentions = {node.name: {n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name)}
                for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_replay" in mentions["_check_smith"]
    assert "_check_smith" in mentions["_smith"]
    seen, todo = set(), ["_smith"]
    while todo:
        name = todo.pop()
        if name in seen or name == "_check_smith":
            continue
        seen.add(name)
        todo.extend(mentions.get(name, ()))
    return "_replay" in seen


def test_the_smith_witness_stays_independent_of_the_elimination():
    # the elimination updates its matrix in place and only logs operations;
    # the witness check replays the log with its own code, so a fault in
    # the elimination's arithmetic shows up as U M V != D
    source = (PACKAGE / "abelian.py").read_text(encoding="utf-8")
    assert not replay_reached_outside_the_check(source)
    # the rule catches an operation that calls the replay, directly or
    # through a helper
    tree = ast.parse(source)
    smith = next(node for node in tree.body
                 if getattr(node, "name", None) == "_smith")
    add_row = next(node for node in smith.body
                   if getattr(node, "name", None) == "add_row")
    add_row.body.append(ast.parse('_replay(a, row_ops[-1:], "row")').body[0])
    assert replay_reached_outside_the_check(ast.unparse(tree))
    add_row.body[-1] = ast.parse("helper()").body[0]
    tree.body.append(ast.parse('def helper():\n    _replay([], [], "row")'
                               ).body[0])
    assert replay_reached_outside_the_check(ast.unparse(tree))


def unchecked_builders(source, cls):
    """The functions of `source` that make a `cls` with `object.__new__`,
    which skips its constructor: for a Word the reduction, for an
    FpPresentation the validation."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "object.__new__"
                    and [ast.unparse(a) for a in call.args] == [cls]
                    for call in ast.walk(node))]


def assert_private(module, cls):
    """`module` has one function that builds a `cls` unchecked, a private
    one, and no other module of the package names it or has its own."""
    builders = unchecked_builders(
        (PACKAGE / module).read_text(encoding="utf-8"), cls)
    assert len(builders) == 1 and builders[0].startswith("_")
    users = [path.name for path in sorted(PACKAGE.glob("*.py"))
             if path.name != module
             and (builders[0] in path.read_text(encoding="utf-8")
                  or unchecked_builders(path.read_text(encoding="utf-8"),
                                        cls))]
    assert users == []


def test_every_word_is_built_by_the_reducing_constructor():
    # a Word built with object.__new__ skips the reduction and is correct
    # only if its caller reduced the letters; a missed cancellation there
    # would be shared by the engine and the checker, so replay could not
    # see it
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if unchecked_builders(path.read_text(encoding="utf-8"), "Word")
            ] == []


def test_the_unchecked_presentation_builder_stays_private():
    # an FpPresentation built without validation is correct only when its
    # words are already valid over its generators, which presentation.py's
    # transforms alone ensure
    assert_private("presentation.py", "FpPresentation")


IMPORT_GUARD = """
import builtins, importlib, sys
importlib.import_module("m4kit")
importlib.import_module("m4kit.cli")
for name in [n for n in sys.modules if n == "m4kit" or n.startswith("m4kit.")]:
    del sys.modules[name]
calls = []
for fn in ("exec", "eval"):
    def counting(source, *args, _original=getattr(builtins, fn), **kwargs):
        if isinstance(source, (str, bytes)):
            calls.append(source)
        return _original(source, *args, **kwargs)
    setattr(builtins, fn, counting)
importlib.import_module("m4kit")
importlib.import_module("m4kit.cli")
print(len(calls))
"""


def test_importing_the_package_runs_no_source_text():
    # a fresh import (each benchmark set-up makes one) compiles the
    # package's own files and nothing more: no class, such as a dataclass,
    # has methods generated from text by exec or eval.  The first import
    # loads the standard library, some of which evals its own source.
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "dataclasses" in imports_of(path)] == []
