"""Mutation check of a certificate module: every rule must be needed.

For each `if` in the module whose body calls `_fail` or raises, this
script replaces the `if`'s test with False (one rule dropped) and runs the
given test files against that mutant.  A mutant that passes the tests
survives: its rule either has no test that fails without it, or is implied
by another rule and should be deleted.  The method is mutation analysis
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978).

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutate_checker.py [MODULE [TEST_FILE ...]]

MODULE and the test files are paths relative to the checkout; they default
to src/m4kit/checker.py and tests/test_checker.py.  The decoder of the
certificate format is checked with

    python tests/mutate_checker.py src/m4kit/trace.py \
        tests/test_checker.py tests/test_manifest.py

It works in a temporary copy of the checkout, since tests/conftest.py puts
the checkout's own src/ first on the path, and writes nothing here.  It
prints one line per mutant and exits 1 if any survives (or if the
unmutated tests fail), naming each survivor by its line in the module.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def mutant(source: str, rule: ast.If) -> str:
    """source with the rule's test replaced by False; newlines inside the
    parentheses keep every line where it was."""
    lines = source.splitlines(keepends=True)
    test = rule.test
    first, last = test.lineno - 1, test.end_lineno - 1
    head = lines[first][:test.col_offset]
    tail = lines[last][test.end_col_offset:]
    body = "(False" + "\n" * (last - first) + ")"
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
    module = Path(argv[0] if argv else "src/m4kit/checker.py")
    tests = [Path(t) for t in argv[1:]] or [Path("tests/test_checker.py")]
    source = (ROOT / module).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        if not tests_pass(copy, tests):
            print(f"{' '.join(map(str, tests))} fails on the unmutated "
                  f"{module}")
            return 1
        survivors = []
        found = rules(source)
        for rule in found:
            (copy / module).write_text(mutant(source, rule))
            survived = tests_pass(copy, tests)
            print(f"{module}:{rule.lineno}: "
                  f"{'SURVIVED' if survived else 'killed'}", flush=True)
            if survived:
                survivors.append(rule.lineno)
    print(f"{len(found)} mutants, {len(survivors)} survived")
    if survivors:
        print(f"survivors (lines of {module.name}):",
              ", ".join(map(str, survivors)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
