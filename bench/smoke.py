"""Fast smoke check of the benchmark harness on tiny seeded inputs.

    python3 bench/smoke.py

Runs every workload with ``--tiny`` for one second, untraced and traced
(twice, same seed), then once more from a copy that holds only the
benchmark files.  Checks that:

* every metric BENCHMARK.json declares is emitted, with its unit, and no
  other;
* every output check passes (fail_ratio is 0) and the result is correct;
* the per-layer counters repeat exactly between the two traced runs;
* ``--workload all`` merges the workloads' results;
* without the m4kit sources the benchmark exits non-zero and prints no
  result.

Exits 0 when all hold; prints each failure and exits 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
COUNTERS = {name for name, _ in spans.COUNTERS} | {"manifest.report_bytes"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seed", str(SEED),
         "--seconds", "1", "--tiny", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False)


def _result(proc: subprocess.CompletedProcess, what: str,
            errors: list[str]) -> dict | None:
    if proc.returncode != 0:
        errors.append(f"{what}: exit {proc.returncode}: {proc.stderr}")
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{what}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}: "
                      f"{proc.stderr}")
    return result


def _check_metrics(result: dict, declared: list[dict], what: str,
                   errors: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{what}: metrics/units {got} != declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{what}: {name} value {m['value']!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        print("BENCHMARK.json workloads differ from run.WORKLOADS")
        return 1
    errors: list[str] = []
    for name in run.WORKLOADS:
        plain = _result(_run("--workload", name, "--trace", "0"),
                        f"{name} trace 0", errors)
        if plain is not None:
            _check_metrics(plain, spec["end_to_end"], f"{name} trace 0", errors)
        traced = [_result(_run("--workload", name, "--trace", "1"),
                          f"{name} trace 1", errors) for _ in range(2)]
        if None in traced:
            continue
        _check_metrics(traced[0], spec["per_layer"], f"{name} trace 1", errors)
        first, second = ({k: v["value"] for k, v in t["metrics"].items()
                          if k in COUNTERS} for t in traced)
        if first != second:
            errors.append(f"{name}: counters differ between traced runs: "
                          f"{first} vs {second}")

    merged = _result(_run("--workload", "all", "--trace", "0"), "all", errors)
    if merged is not None:
        _check_metrics(merged, [{"name": f"{w}.{m['name']}", "unit": m["unit"]}
                                for w in run.WORKLOADS
                                for m in spec["end_to_end"]], "all", errors)

    with tempfile.TemporaryDirectory(prefix=".bench-smoke-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "manifests", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare copy: exit {proc.returncode}, "
                          f"stdout {proc.stdout!r}")

    for e in errors:
        print(f"FAIL {e}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
