"""Toy-size self-test of the benchmark (runs in well under a minute).

    python3 perfbench/selftest.py

Runs every workload at its smallest size (``run.py --toy``), untraced
and traced, and checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  reports;
* every named metric appears in the last output line, with its unit;
* every operation was correct (``error_rate`` 0, ``ok_ratio`` 1);
* traced spans nest inside their parents with non-negative self times.

Exits non-zero on the first problem.  The file name does not match
``test_*.py`` on purpose: pytest does not collect it into tier-1.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != metrics:
            fail(f"BENCHMARK.json {key} differs from run.py")


def check_run(workload: str, trace: int) -> None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=170)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: "
             f"{proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: error rate not 0: {result}")
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(expected))}"
             " missing or extra, or units differ")
    if not trace:
        if result["metrics"]["ok_ratio"]["value"] != 1:
            fail(f"{workload}: ok_ratio below 1")
        return
    spans = tracing.load_spans(
        str(HERE / "_traces" / f"{workload}-seed7.jsonl"))
    if not spans:
        fail(f"{workload}: traced run recorded no spans")
    problems = tracing.check_nesting(spans)
    if problems:
        fail(f"{workload}: " + "; ".join(problems[:5]))


def main() -> int:
    check_spec()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace)
            print(f"selftest: ok {workload} trace={trace}")
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
