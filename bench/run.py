"""m4kit benchmark: time to a replayed verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any copy holding ``src/`` and
``manifests/``).  Standard library only.  ``--workload all`` (the default)
runs every workload in its own child process, one after another.

Workloads, and why each is here:

* ``odd_sweep``: ``exotic_odd_cp2(n, m)`` on a diagonal of n = 2..10,
  m = 1..3 ending at the largest member (10, 3); each item is build ->
  ``certify(target="trivial")`` -> ``replay`` -> ``freedman_model``.  Coset
  enumeration is over 90% of the time and tables pass the 4096-row
  compaction point, so coset work shows here and engine work barely does.
* ``engine_scale``: ``exotic_odd_cp2(n, 1)`` for n = 20, 30, 40 with
  corroboration off, then ``replay``.  Engine and H1 grow about n^2 and
  the coset layer is never called, so a coset change must not move it.
* ``manifests``: in-process ``m4kit build -o`` over every
  ``manifests/*.m4``.  Every layer runs at small sizes, parse and report
  included, and the coset layer sees many short enumerations.

The seed picks the pushoff signs (eps1, eps3) of each family member and
the item order; all four sign choices certify trivial.  Every item's output
is checked (verdict, replay, H1, coset index, model, exit code, report
checks); a miss counts as a failed item.  A SHA-256 over the certificate
JSON is printed for information; it must repeat across the passes of a run.

A run repeats rounds for ``--seconds``: two set-ups (fresh import of m4kit
plus input generation), then one pass over the items.  With ``--trace 0``
it prints the end-to-end metrics, medians over the rounds:

* ``wall_s``: one pass; ``largest_item_s``: the largest item, (10, 3),
  n = 40 or ``exotic_odd_cp2.m4``; ``setup_s``: one set-up.  These three
  are calibrated (see ``_calibrate``); the uncalibrated medians are
  printed above the result.
* ``peak_rss_mb``: peak resident memory of the process.
* ``ok_ratio``: items that passed every check over items attempted
  (1 - fail_ratio; fail_ratio itself is printed, and is 0 when all pass).

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics of ``spans.py`` (uncalibrated seconds and exact counters,
which must repeat across traced passes), ``manifest.report_bytes``, and
``trace.wall_s`` / ``trace.overhead_s`` (traced pass, and the median of
traced minus the untraced pass before it).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MANIFESTS = ROOT / "manifests"
BUDGET_ENV = "M4KIT_BUDGET_COSETS"     # unset, so Budget's 1,000,000 applies

SETUPS_PER_PASS = 2    # import + input generation runs before each pass
CAL_NOMINAL_S = 0.010  # calibrated seconds: as if _calibrate() took this long
MIN_PASSES = 3         # untraced runs measure at least this many passes
MIN_TRACED = 2         # traced runs compare counters across at least two

END_TO_END = (("wall_s", "s"), ("largest_item_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))
PER_LAYER = (spans.TIMINGS + spans.COUNTERS
             + (("manifest.report_bytes", "bytes"),
                ("trace.wall_s", "s"), ("trace.overhead_s", "s")))

# the verdict's forced abelianization: (rank, torsion)
_H1 = {"trivial": (0, []), "infinite_cyclic": (1, [])}


def _check_certificate(data: dict[str, Any], corroborated: bool) -> list[str]:
    """What is wrong with a certificate's JSON, independent of stored bytes."""
    verdict = data["verdict"]
    if verdict == "inconclusive":
        return [f"inconclusive: {data['reason']}"]
    want = _H1.get(verdict, (0, [data["order"]]))
    problems = []
    if (data["h1_rank"], data["h1_torsion"]) != want:
        problems.append(f"h1 {data['h1_rank']} {data['h1_torsion']} "
                        f"disagrees with {verdict}")
    expected_index = 1 if corroborated else None
    if data["coset_index"] != expected_index:
        problems.append(f"coset index {data['coset_index']}, "
                        f"expected {expected_index}")
    return problems


class FamilyWorkload:
    """exotic_odd_cp2 members: build, certify trivial, replay (and, when
    corroborating, the Freedman model)."""

    def __init__(self, sizes: tuple[tuple[int, int], ...], corroborate: bool):
        self.sizes = sizes              # (n, m); the last one is the largest
        self.corroborate = corroborate

    def items(self, rng: random.Random) -> list[tuple[int, int, int, int]]:
        items = [(n, m, rng.choice((1, -1)), rng.choice((1, -1)))
                 for n, m in self.sizes]
        rng.shuffle(items)
        return items

    def is_largest(self, item: tuple[int, int, int, int]) -> bool:
        return item[:2] == self.sizes[-1]

    def run(self, m4: Any, item: tuple[int, int, int, int]) -> Any:
        n, m, eps1, eps3 = item
        M = m4.exotic_odd_cp2(n, m, eps1=eps1, eps3=eps3)
        budget = None if self.corroborate else m4.Budget(corroborate=False)
        cert = m4.certify(M.pi1, target="trivial", budget=budget)
        m4.replay(cert, M.pi1)
        model = m4.freedman_model(M, cert) if self.corroborate else None
        return M, cert, model

    def check(self, m4: Any, item: tuple[int, int, int, int], raw: Any
              ) -> tuple[list[str], bytes, int]:
        n = item[0]
        M, cert, model = raw
        data = cert.to_json()
        problems = _check_certificate(data, self.corroborate)
        if data["verdict"] != "trivial" or data["matches_target"] is not True:
            problems.append(f"verdict {data['verdict']}, expected trivial")
        if (M.euler, M.signature) != (4 * n + 1, -1):
            problems.append(f"(e, sigma) = ({M.euler}, {M.signature})")
        if self.corroborate and model != m4.FreedmanModel(2 * n - 1, 2 * n):
            problems.append(f"model {model}")
        return problems, json.dumps(data, sort_keys=True).encode(), 0


class ManifestWorkload:
    """In-process ``m4kit build -o REPORT MANIFEST`` with stdout captured."""

    def __init__(self, names: tuple[str, ...] | None, largest: str,
                 out_dir: Path):
        self.names = names              # None: every manifests/*.m4
        self.largest = largest
        self.out_dir = out_dir

    def items(self, rng: random.Random) -> list[Path]:
        paths = (sorted(MANIFESTS.glob("*.m4")) if self.names is None
                 else [MANIFESTS / n for n in self.names])
        rng.shuffle(paths)
        return paths

    def is_largest(self, item: Path) -> bool:
        return item.name == self.largest

    def run(self, m4: Any, item: Path) -> Any:
        out = self.out_dir / (item.stem + ".json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = sys.modules["m4kit.cli"].main(["build", "-o", str(out),
                                                  str(item)])
        return code, out

    def check(self, m4: Any, item: Path, raw: Any
              ) -> tuple[list[str], bytes, int]:
        code, out = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        blob = out.read_bytes()
        out.unlink()
        report = json.loads(blob)
        summary = report["summary"]
        if summary["failed"] or summary["passed"] != summary["checks"]:
            problems.append(f"{summary['failed']} of {summary['checks']} "
                            "checks failed")
        certs = report["certificates"]
        for name in sorted(certs):
            problems += [f"{name}: {p}"
                         for p in _check_certificate(certs[name], True)]
        return problems, json.dumps(certs, sort_keys=True).encode(), len(blob)


def make_workload(name: str, tiny: bool, out_dir: Path) -> Any:
    if name == "odd_sweep":
        sizes = (((2, 1), (3, 2)) if tiny else
                 ((2, 1), (4, 2), (6, 3), (8, 1), (10, 3)))
        return FamilyWorkload(sizes, corroborate=True)
    if name == "engine_scale":
        return FamilyWorkload(((4, 1), (6, 1)) if tiny else
                              ((20, 1), (30, 1), (40, 1)), corroborate=False)
    names = (("blocks.m4", "finite_cyclic.m4", "exotic_odd_cp2.m4") if tiny
             else None)
    return ManifestWorkload(names, "exotic_odd_cp2.m4", out_dir)


WORKLOADS = ("odd_sweep", "engine_scale", "manifests")


def _fresh_import() -> Any:
    """Import m4kit (and its CLI) from src/, discarding any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "m4kit" or n.startswith("m4kit.")]:
        del sys.modules[name]
    m4 = importlib.import_module("m4kit")
    importlib.import_module("m4kit.cli")
    return m4


def _calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: small-int arithmetic,
    tuple keys in a dict, and big-int products and quotients, the
    operations m4kit's layers spend their time in.

    On a shared host the speed of such code drifts (measured on a 2-vCPU
    VM: up to 1.8x, in phases of 10-60 s), far longer than a run can
    average out.  So the
    loop runs between every two items and set-ups, and the end-to-end times
    are reported calibrated: ``seconds * CAL_NOMINAL_S / median(loop
    seconds of the same round)``, the time it would take where the loop
    takes CAL_NOMINAL_S.
    """
    t0 = time.perf_counter()
    seen: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(8_000):
        key = (i & 63, i & 15)
        acc += seen.get(key, 0) + len(key + (i, -1))
        seen[key] = acc & 255
    for i in range(40_000):
        acc += i * 3 % 7
    a, b, c = 3 ** 120, 7 ** 100, 1
    for i in range(6_000):
        c = (a * b + c) // (b + i + 1)
    return time.perf_counter() - t0


def _setup(wl: Any, seed: int) -> tuple[Any, list, float]:
    """Import m4kit and generate the inputs: (package, items, seconds)."""
    t0 = time.perf_counter()
    m4 = _fresh_import()
    items = wl.items(random.Random(seed))
    return m4, items, time.perf_counter() - t0


def _timed_pass(m4: Any, wl: Any, items: list, cal: list[float]
                ) -> tuple[float, float, list]:
    """Run every item once, appending a calibration after each to `cal`.
    Returns (pass seconds, largest item's seconds, raw outputs); an item
    that raises is recorded as its exception.  A pass's time is the sum of
    its items' times, so the calibration loops are not part of it."""
    raws: list[Any] = []
    wall = largest = 0.0
    for item in items:
        t0 = time.perf_counter()
        try:
            raw = wl.run(m4, item)
        except Exception as exc:       # a failed item, not a failed benchmark
            raw = exc
        dt = time.perf_counter() - t0
        cal.append(_calibrate())
        raws.append(raw)
        wall += dt
        if wl.is_largest(item):
            largest = dt
    return wall, largest, raws


def _check_pass(m4: Any, wl: Any, items: list, raws: list
                ) -> tuple[int, str, int]:
    """(failed items, SHA-256 of the certificate JSON, report bytes)."""
    failed = total_bytes = 0
    digest = hashlib.sha256()
    for item, raw in sorted(zip(items, raws), key=lambda p: str(p[0])):
        if isinstance(raw, Exception):
            problems, blob, size = [f"raised {raw!r}"], b"", 0
        else:
            try:
                problems, blob, size = wl.check(m4, item, raw)
            except Exception as exc:   # unreadable output is a miss too
                problems, blob, size = [f"output check raised {exc!r}"], b"", 0
        digest.update(blob)
        total_bytes += size
        if problems:
            failed += 1
            print(f"FAIL {item}: {'; '.join(problems)}", file=sys.stderr)
    return failed, digest.hexdigest(), total_bytes


def run_workload(args: argparse.Namespace) -> int:
    os.environ.pop(BUDGET_ENV, None)
    if not (SRC / "m4kit" / "__init__.py").is_file() or not MANIFESTS.is_dir():
        print(f"bench: no m4kit sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with tempfile.TemporaryDirectory(prefix=".bench-out-", dir=ROOT) as tmp:
        wl = make_workload(args.workload, args.tiny, Path(tmp))
        m4, items, _ = _setup(wl, args.seed)
        if Path(m4.__file__).resolve().parent != SRC / "m4kit":
            print(f"bench: imported m4kit from {m4.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2

        # (seconds, calibrated seconds) samples
        walls: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
        largest: list[tuple[float, float]] = []
        setups: list[tuple[float, float]] = []
        loops: list[float] = []            # every calibration loop's seconds
        timings: list[dict[str, float]] = []
        counters: list[dict[str, float]] = []
        digests = set()
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            # one round: set-ups, then a pass, calibrated together; set-ups
            # spread over the run see the same machine load as the passes
            cal = [_calibrate()]
            setup_times = []
            for _ in range(SETUPS_PER_PASS):
                m4, items, seconds = _setup(wl, args.seed)
                setup_times.append(seconds)
                cal.append(_calibrate())
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            tracer = spans.Tracer()
            with spans.installed(tracer) if traced else contextlib.nullcontext():
                wall, big, raws = _timed_pass(m4, wl, items, cal)
            scale = CAL_NOMINAL_S / statistics.median(cal)
            loops += cal
            setups += [(t, t * scale) for t in setup_times]
            n_failed, digest, report_bytes = _check_pass(m4, wl, items, raws)
            attempted += len(items)
            failed += n_failed
            digests.add(digest)
            walls[traced].append((wall, wall * scale))
            if traced:
                t, c = spans.layer_metrics(tracer.spans)
                c["manifest.report_bytes"] = report_bytes
                timings.append(t)
                counters.append(c)
            else:
                largest.append((big, big * scale))
            enough = (len(walls[True]) >= MIN_TRACED if args.trace
                      else len(walls[False]) >= MIN_PASSES)
            if enough and time.perf_counter() + wall > deadline:
                break

    correct = failed == 0 and len(digests) == 1
    if len(digests) > 1:
        print(f"bench: certificate bytes differ between passes: {digests}",
              file=sys.stderr)
    if any(c != counters[0] for c in counters):
        correct = False
        print("bench: per-layer counters differ between traced passes",
              file=sys.stderr)

    def median(samples: list[tuple[float, float]], calibrated: bool) -> float:
        return statistics.median(s[calibrated] for s in samples)

    if args.trace:
        # per-layer times are as measured: spans are not calibrated
        traced_wall = median(walls[True], False)
        values = {name: statistics.median(t[name] for t in timings)
                  for name, _ in spans.TIMINGS}
        values.update(counters[0])
        values["trace.wall_s"] = traced_wall
        # traced minus untraced pass, paired with the pass just before it so
        # that both ran under the same machine load
        values["trace.overhead_s"] = statistics.median(
            t[0] - u[0] for u, t in zip(walls[False], walls[True]))
        declared = PER_LAYER
    else:
        values = {
            "wall_s": median(walls[False], True),
            "largest_item_s": median(largest, True),
            "setup_s": median(setups, True),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        declared = END_TO_END

    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "passes": len(walls[False]) + len(walls[True]),
           "nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0],
           "max_cosets": m4.Budget().max_cosets,
           BUDGET_ENV: os.environ.get(BUDGET_ENV)}
    print("env " + json.dumps(env))
    print(f"certificate_sha256 {sorted(digests)[0]}")
    print(f"fail_ratio {failed / attempted} ratio")
    print("uncalibrated_s " + json.dumps({
        "wall": median(walls[False], False),
        "largest_item": median(largest, False) if largest else None,
        "setup": median(setups, False),
        "calibration_loop": statistics.median(loops)}))
    metrics = {}
    for name, unit in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process; the last line merges them,
    naming each metric <workload>.<metric>."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                               check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="two or three small items per workload (smoke check)")
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
