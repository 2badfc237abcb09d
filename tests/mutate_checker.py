"""Mutation check of a certificate module: every rule must be needed.

For each `if` in the module whose body calls `_fail` or raises, this
script replaces the `if`'s test with False (one rule dropped) and runs the
given test files against that mutant.  A mutant that passes the tests
survives: its rule either has no test that fails without it, or is implied
by another rule and should be deleted.  The method is mutation analysis
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).

With --returns, the mutants are the rules that return a value instead:
each return of a function listed in WRONG_RETURNS for the module is
swapped, one mutant at a time, for the wrong value of the same type given
there.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutate_checker.py [--returns] [MODULE [TEST_FILE ...]]

MODULE and the test files are paths relative to the checkout; they default
to src/m4kit/checker.py and tests/test_checker.py.  The decoder of the
certificate format, and the verdict rules it shares with the engine, are
checked with

    python tests/mutate_checker.py src/m4kit/trace.py \
        tests/test_checker.py tests/test_manifest.py
    python tests/mutate_checker.py --returns src/m4kit/trace.py \
        tests/test_checker.py tests/test_manifest.py

It works in a temporary copy of the checkout, since tests/conftest.py puts
the checkout's own src/ first on the path, and writes nothing here.  It
prints one line per mutant and exits 1 if any survives (or if the
unmutated tests fail), naming each survivor by its line in the module;
a survivor listed in SURVIVORS, with its reason, is reported but allowed.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module -> (function, which of its returns in source order, a wrong value
# of the returned type, what the mutant gets wrong)
WRONG_RETURNS = {
    "src/m4kit/trace.py": [
        ("target_of", 0, '"trivial"', "Z and Z/n verdicts meet trivial"),
        ("target_of", 0, "None", "no verdict meets a target"),
        ("h1_of", 0, "(0, ())", "Z/n loses its torsion"),
        ("h1_of", 1, "(1, ())", "the trivial group gets rank 1"),
        ("h1_of", 1, "(0, ())", "Z gets rank 0"),
        ("coset_subgroup_of", 0, "()", "a cyclic verdict's subgroup is 1"),
        ("coset_subgroup_of", 0, '("a",)', "the subgroup is always <a>"),
        ("parse_target", 0, '"Z"', "every target reads as Z"),
    ],
}

# (module, line, replacement) -> why that mutant may survive
SURVIVORS: dict[tuple[str, int, str], str] = {}


def rules(source: str) -> list[ast.If]:
    """Every `if` whose body calls _fail or raises, in source order."""
    def fails(node: ast.AST) -> bool:
        return isinstance(node, ast.Raise) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_fail")

    return sorted((node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.If)
                   and any(fails(n) for stmt in node.body
                           for n in ast.walk(stmt))),
                  key=lambda node: node.lineno)


def wrong_returns(source: str, module: str
                  ) -> list[tuple[ast.expr, str, str]]:
    """(returned expression, wrong value, what it gets wrong) for each
    entry of WRONG_RETURNS[module]."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found = []
    for name, which, wrong, why in WRONG_RETURNS[module]:
        returns = sorted((node for node in ast.walk(functions[name])
                          if isinstance(node, ast.Return)),
                         key=lambda node: node.lineno)
        found.append((returns[which].value, wrong, f"{name}: {why}"))
    return found


def mutant(source: str, node: ast.expr, text: str) -> str:
    """source with the node replaced by text; newlines inside the
    parentheses keep every line where it was."""
    lines = source.splitlines(keepends=True)
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][:node.col_offset]
    tail = lines[last][node.end_col_offset:]
    body = "(" + text + "\n" * (last - first) + ")"
    return "".join(lines[:first] + [head + body + tail] + lines[last + 1:])


def tests_pass(copy: Path, tests: list[Path]) -> bool:
    # -B: a mutant of the same size written in the same second must not
    # be read back from a stale bytecode cache
    cmd = [sys.executable, "-B", "-m", "pytest", "-q", "-x",
           "-p", "no:cacheprovider", *map(str, tests)]
    run = subprocess.run(cmd, cwd=copy, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main(argv: list[str]) -> int:
    returns = argv[:1] == ["--returns"]
    argv = argv[returns:]
    module = Path(argv[0] if argv else "src/m4kit/checker.py")
    tests = [Path(t) for t in argv[1:]] or [Path("tests/test_checker.py")]
    source = (ROOT / module).read_text()
    if returns:
        found = wrong_returns(source, module.as_posix())
    else:
        found = [(rule.test, "False", "rule dropped")
                 for rule in rules(source)]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if not tests_pass(copy, tests):
            print(f"{' '.join(map(str, tests))} fails on the unmutated "
                  f"{module}")
            return 1
        survivors = []
        for node, text, why in found:
            changed = mutant(source, node, text)
            ast.parse(changed)       # a mutant that does not parse is no kill
            (copy / module).write_text(changed)
            survived = tests_pass(copy, tests)
            print(f"{module}:{node.lineno}: {why}: "
                  f"{'SURVIVED' if survived else 'killed'}", flush=True)
            allowed = SURVIVORS.get((module.as_posix(), node.lineno, text))
            if survived and allowed:
                print(f"  listed survivor: {allowed}")
            elif survived:
                survivors.append(node.lineno)
    print(f"{len(found)} mutants, {len(survivors)} unlisted survivors")
    if survivors:
        print(f"survivors (lines of {module.name}):",
              ", ".join(map(str, survivors)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
