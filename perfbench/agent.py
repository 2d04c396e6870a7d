"""Child-process side of the benchmark: one fresh interpreter per task.

``run.py`` starts this file with the checkout's ``src`` on
``PYTHONPATH`` and a run-private ``REPRO_NATIVE_CACHE``.  Every mode
first does its set-up (imports, kernel build, circuit build and
compile), then prints ``READY``; the parent times spawn-to-``READY`` as
set-up.  Results come back as one ``RESULT <json>`` line.  The design
loop also returns the host-speed probes it took (see ``hostspeed``),
the first right after ``READY``, and each timing's probe index.

Modes::

    agent.py sweep  WIDTH [--trace FILE]
    agent.py design WIDTH SEED EDITS FAULT_EVERY POOL STORE [--trace FILE]
    agent.py cli    --trace FILE -- <repro CLI arguments>

``POOL`` is a comma-separated list of gate output nets whose AND2/OR2
swap the parent selected as fault sites.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import inputs  # noqa: E402  (benchmark-owned input generators)


def _emit(tag: str, payload: Dict[str, Any]) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(path: Optional[str]):
    if path is None:
        return None
    import tracing

    return tracing.install(tracing.Tracer())


def report_dict(result) -> Dict[str, Any]:
    """A sweep report as compared for correctness (``elapsed_s`` dropped)."""
    out = result.to_dict()
    out.pop("elapsed_s", None)
    return out


# ----------------------------------------------------------------------
def sweep(width: int, trace_path: Optional[str]) -> int:
    tracer = _tracer(trace_path)  # before the imports bind wrapped names
    from repro import build_two_sort, compile_circuit
    from repro.backends import get_backend, resolve_backend_name
    from repro.graycode import all_valid_strings
    from repro.verify.parallel import verify_two_sort_sharded

    backend = resolve_backend_name("auto")
    circuit = build_two_sort(width)
    compile_circuit(circuit, get_backend(backend))
    all_valid_strings(width)
    _emit("READY", {})
    if tracer is not None:
        tracer.op = 1
    t0 = perf_counter()
    result = verify_two_sort_sharded(
        circuit, width, jobs=1, backend="auto"
    )
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.dump(trace_path)
    _emit("RESULT", {
        "op_s": elapsed,
        "checked": result.checked,
        "ok": result.ok,
        "peak_rss_mb": _peak_rss_mb(),
    })
    return 0


# ----------------------------------------------------------------------
def design(
    width: int, seed: int, n_edits: int, fault_every: int, pool: List[str], store_path: str,
    trace_path: Optional[str],
) -> int:
    """A designer's edit-and-re-verify loop on one fresh SQLite store."""
    tracer = _tracer(trace_path)  # before the imports bind wrapped names
    from repro import build_two_sort, compile_circuit
    from repro.backends import get_backend, resolve_backend_name
    from repro.store import open_store
    from repro.verify.parallel import verify_two_sort_sharded

    backend = resolve_backend_name("auto")
    base = build_two_sort(width)
    compile_circuit(base, get_backend(backend))
    edits = inputs.edit_plan(seed, len(base.outputs), pool, fault_every)
    speed = hostspeed.Scaler()
    with open_store(f"sqlite:{store_path}") as store:
        _emit("READY", {})
        cold_probe = speed.tick(force=True)
        if tracer is not None:
            tracer.op = 1
        t0 = perf_counter()
        cold = verify_two_sort_sharded(
            base, width, jobs=1, backend="auto", store=store
        )
        cold_s = perf_counter() - t0
        done: List[Dict[str, Any]] = []
        reports = [report_dict(cold)]
        applied = []
        for k, edit in zip(range(n_edits), edits):
            edited = inputs.apply_edit(base, edit, k)
            probe = speed.tick()
            if tracer is not None:
                tracer.op = k + 2
            t0 = perf_counter()
            result = verify_two_sort_sharded(
                edited, width, jobs=1, backend="auto", store=store
            )
            dt = perf_counter() - t0
            done.append({"kind": edit[0], "op_s": dt, "probe": probe})
            reports.append(report_dict(result))
            applied.append((edit, k))
    speed.tick(force=True)
    if tracer is not None:
        tracer.on = False
        tracer.dump(trace_path)
    peak = _peak_rss_mb()
    # Correctness, outside every timed region: each report must equal a
    # store-less sweep of the same netlist on the bigint backend.
    circuits = [base] + [inputs.apply_edit(base, e, k) for e, k in applied]
    ok = [
        report == report_dict(verify_two_sort_sharded(
            c, width, jobs=1, backend="bigint"))
        for c, report in zip(circuits, reports)
    ]
    for entry, good, report in zip(done, ok[1:], reports[1:]):
        entry["ok"] = good
        entry["failures"] = report["failure_count"]
    _emit("RESULT", {
        "cold_s": cold_s,
        "cold_probe": cold_probe,
        "probes": speed.probes,
        "cold_ok": ok[0] and reports[0]["ok"],
        "edits": done,
        "peak_rss_mb": peak,
    })
    return 0


# ----------------------------------------------------------------------
def cli(trace_path: str, argv: List[str]) -> int:
    """Run the repro CLI in this process with the tracer installed."""
    tracer = _tracer(trace_path)
    tracer.op = 1
    from repro.__main__ import main

    try:
        code = main(argv)
    finally:
        tracer.dump(trace_path)
    sys.stdout.flush()
    return code


def main(argv: List[str]) -> int:
    mode, args = argv[0], argv[1:]
    trace_path = None
    if "--trace" in args:
        i = args.index("--trace")
        trace_path = args[i + 1]
        args = args[:i] + args[i + 2:]
    if mode == "sweep":
        return sweep(int(args[0]), trace_path)
    if mode == "design":
        width, seed, n_edits, fault_every, pool, store = args[:6]
        return design(
            int(width), int(seed), int(n_edits), int(fault_every), [p for p in pool.split(",") if p], store,
            trace_path,
        )
    if mode == "cli":
        return cli(trace_path, args[args.index("--") + 1:])
    print(f"unknown agent mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
