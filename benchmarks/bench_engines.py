#!/usr/bin/env python
"""Scalar vs bit-parallel engine throughput; writes ``BENCH_engines.json``.

Measures the two workloads the compiled two-plane engine
(:mod:`repro.circuits.compiled`) was built for and records the speedup
trajectory so regressions are visible across PRs:

1. **Exhaustive two-sort verification** -- all ``|S^B_rg|^2`` valid
   pairs through the paper's ``2-sort(B)`` netlist.

   * scalar: the reference one-trit-per-net interpreter
     (:func:`repro.circuits.evaluate.evaluate_interpreted`) per pair,
     each output compared against the Table 2 order spec.  The full
     domain takes ~a minute at B = 8, so the scalar side is timed on a
     deterministic sample of pairs and its full-domain time is
     extrapolated from the measured per-pair rate (reported as such).
   * compiled: :func:`repro.verify.exhaustive.verify_two_sort_circuit`,
     which runs the *entire* domain in plane space -- measured for
     real, no extrapolation.

2. **Sorting-network simulation** -- a seeded measurement workload
   through the 10-channel size-optimal network: per-vector gate-level
   engine (``sort_words(engine="circuit")``) vs the batched compiled
   path on ``Word`` values (``sort_words_batch``), plus the string
   entry point it wraps (``sort_strings_batch``, the service's path) on
   the same workload as word strings, and the milliseconds one served
   256-vector sort request spends in ``SortRequest.run``.

Throughput is reported in **gate-visits per second** (gates x vectors /
time), the metric that is invariant to circuit size.

The ``cli_startup`` block records the wall clock a user sees: medians
of a bare interpreter, ``import repro.__main__`` and
``python -m repro verify --width 8``, each a fresh subprocess.

Usage::

    PYTHONPATH=src python benchmarks/bench_engines.py            # full (B=8)
    PYTHONPATH=src python benchmarks/bench_engines.py --quick    # CI smoke (B=5)

The JSON artifact lands at the repository root (``BENCH_engines.json``)
unless ``--output`` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.circuits.compiled import compile_circuit  # noqa: E402
from repro.circuits.evaluate import evaluate_interpreted  # noqa: E402
from repro.core.two_sort import build_two_sort  # noqa: E402
from repro.graycode.ops import two_sort_order  # noqa: E402
from repro.graycode.valid import all_valid_strings  # noqa: E402
from repro.networks.simulate import (  # noqa: E402
    sort_strings_batch,
    sort_words,
    sort_words_batch,
)
from repro.networks.topologies import SORT10_SIZE, best_known  # noqa: E402
from repro.service.jobs import SortRequest  # noqa: E402
from repro.ternary.word import Word  # noqa: E402
from repro.verify.exhaustive import verify_two_sort_circuit  # noqa: E402
from repro.verify.parallel import verify_two_sort_sharded  # noqa: E402
from repro.verify.random_valid import measurement_sweep  # noqa: E402


def bench_exhaustive_verification(width: int, scalar_sample: int) -> dict:
    """Scalar (sampled + extrapolated) vs compiled (full domain)."""
    circuit = build_two_sort(width)
    gates = circuit.gate_count()
    strings = all_valid_strings(width)
    total_pairs = len(strings) ** 2

    # Deterministic sample: stride through the pair domain.
    sample = min(scalar_sample, total_pairs)
    stride = max(1, total_pairs // sample)
    indices = range(0, total_pairs, stride)
    inputs_of = circuit.inputs
    t0 = time.perf_counter()
    checked = 0
    for idx in indices:
        g = strings[idx // len(strings)]
        h = strings[idx % len(strings)]
        values = evaluate_interpreted(
            circuit, dict(zip(inputs_of, list(g) + list(h)))
        )
        out = Word([values[n] for n in circuit.outputs])
        want = two_sort_order(g, h)
        assert (out[:width], out[width:]) == want, (g, h)
        checked += 1
    scalar_time = time.perf_counter() - t0
    scalar_rate = checked / scalar_time
    scalar_full_time = total_pairs / scalar_rate

    # Compiled: the real thing, full domain, warm compile cache excluded
    # from the first timing by compiling up front.
    compile_circuit(circuit)
    t0 = time.perf_counter()
    result = verify_two_sort_circuit(circuit, width)
    compiled_time = time.perf_counter() - t0
    assert result.ok and result.checked == total_pairs, result.summary()

    return {
        "width": width,
        "gates": gates,
        "pairs": total_pairs,
        "scalar": {
            "pairs_measured": checked,
            "sampled": checked < total_pairs,
            "time_s": round(scalar_time, 4),
            "full_domain_time_s_extrapolated": round(scalar_full_time, 2),
            "pairs_per_s": round(scalar_rate, 1),
            "gate_visits_per_s": round(scalar_rate * gates, 1),
        },
        "compiled": {
            "pairs_measured": total_pairs,
            "sampled": False,
            "time_s": round(compiled_time, 4),
            "pairs_per_s": round(total_pairs / compiled_time, 1),
            "gate_visits_per_s": round(total_pairs / compiled_time * gates, 1),
        },
        "speedup": round(scalar_full_time / compiled_time, 1),
    }


def _interleaved_medians(
    runs: dict, rounds: int, every: dict | None = None
) -> dict:
    """Median seconds of each of ``runs``' callables over ``rounds``
    rounds of one call each, the first caller alternating between
    rounds, so drift in host speed lands on every row alike.  A name
    in ``every`` runs only in every ``every[name]``-th round, starting
    with the first."""
    names = list(runs)
    every = every or {}
    times = {name: [] for name in names}
    for i in range(rounds):
        for name in names[:: 1 if i % 2 == 0 else -1]:
            if i % every.get(name, 1):
                continue
            t0 = time.perf_counter()
            runs[name]()
            times[name].append(time.perf_counter() - t0)
    return {name: statistics.median(t) for name, t in times.items()}


#: Timed runs of the network-simulation scalar side (~1 s each at full
#: size), spread evenly over the rounds of the batch rows.
SCALAR_REPEATS = 5


def bench_network_simulation(width: int, vectors: int, requests: int) -> dict:
    """Per-vector gate-level engine vs the batched compiled path.

    The ``compiled`` (:func:`sort_words_batch`) and ``strings``
    (:func:`sort_strings_batch`) rows are the median of ``requests``
    interleaved runs of the whole workload, after an untimed run each
    whose output is checked.  The ``scalar`` row (``sort_words`` with
    the gate-level engine, one vector at a time, on the first eighth of
    the workload) is the median of :data:`SCALAR_REPEATS` runs spread
    evenly over the same rounds, after its own checked run, so
    ``speedup`` divides two medians taken side by side.  The ``served_request`` row
    times what one ``serve-sort`` job runs: :meth:`SortRequest.run
    <repro.service.jobs.SortRequest.run>` of a fresh request, validation
    included, on 256
    seeded vectors of 10 channels of 16-bit words (~30 % ``M``), as the
    median over ``requests`` runs.
    """
    network = SORT10_SIZE
    workload = measurement_sweep(
        width, network.channels, vectors, meta_rate=0.3, seed=2018
    )
    comparators = network.size
    gates = build_two_sort(width).gate_count() * comparators

    # Warm both caches (netlist + compiled program) outside the timers.
    # The "circuit" engine is the scalar reference interpreter.
    sort_words(network, workload[0], engine="circuit")
    sort_words_batch(network, workload[:1])

    scalar_vectors = workload[: max(4, vectors // 8)]

    def scalar():
        return [
            sort_words(network, v, engine="circuit") for v in scalar_vectors
        ]

    scalar_out = scalar()
    batch_out = sort_words_batch(network, workload)
    assert batch_out[: len(scalar_out)] == scalar_out
    # The same workload as word strings, the form service requests carry.
    strings = [[str(w) for w in v] for v in workload]
    strings_out = sort_strings_batch(network, strings)
    assert strings_out == [[str(w) for w in row] for row in batch_out]

    scalar_every = max(1, requests // SCALAR_REPEATS)
    sort_times = _interleaved_medians(
        {
            "scalar": scalar,
            "compiled": lambda: sort_words_batch(network, workload),
            "strings": lambda: sort_strings_batch(network, strings),
        },
        requests,
        every={"scalar": scalar_every},
    )
    scalar_time = sort_times["scalar"]
    scalar_rate = len(scalar_vectors) / scalar_time
    compiled_time = sort_times["compiled"]
    compiled_rate = len(workload) / compiled_time
    strings_time = sort_times["strings"]
    strings_rate = len(workload) / strings_time

    served_vectors = tuple(
        tuple(str(w) for w in v)
        for v in measurement_sweep(16, 10, 256, meta_rate=0.3, seed=2018)
    )
    served_request = SortRequest(vectors=served_vectors)
    # One untimed, checked run warms the compile cache.
    served_rows = served_request.run()
    assert served_rows == sort_strings_batch(
        best_known(10), served_vectors, engine="rank"
    )
    # A fresh request per run: a request checks its shape once, and a
    # served job's request is new every time.
    served_time = _interleaved_medians(
        {"served": lambda: SortRequest(vectors=served_vectors).run()}, requests
    )["served"]
    served = {
        "vectors": len(served_vectors),
        "channels": 10,
        "width": 16,
        "requests": requests,
        "ms_per_request": round(served_time * 1e3, 3),
    }

    return {
        "width": width,
        "network": network.name,
        "comparators": comparators,
        "vectors": len(workload),
        "scalar": {
            "vectors_measured": len(scalar_vectors),
            "repeats": -(-requests // scalar_every),
            "time_s": round(scalar_time, 4),
            "vectors_per_s": round(scalar_rate, 1),
            "gate_visits_per_s": round(scalar_rate * gates, 1),
        },
        "compiled": {
            "vectors_measured": len(workload),
            "repeats": requests,
            "time_s": round(compiled_time, 4),
            "vectors_per_s": round(compiled_rate, 1),
            "gate_visits_per_s": round(compiled_rate * gates, 1),
        },
        "strings": {
            "vectors_measured": len(workload),
            "repeats": requests,
            "time_s": round(strings_time, 4),
            "vectors_per_s": round(strings_rate, 1),
            "gate_visits_per_s": round(strings_rate * gates, 1),
            "speedup_vs_scalar": round(strings_rate / scalar_rate, 1),
        },
        "served_request": served,
        "speedup": round(compiled_rate / scalar_rate, 1),
    }


def bench_native_backend(
    width: int, large_width: int = 0, repeats: int = 3
) -> dict:
    """One-call C kernel vs big-int planes on the exhaustive sweep.

    The acceptance metric for the native backend: best-of-``repeats``
    single-core wall clock of the identical sharded serial sweep under
    ``bigint`` and ``native``, with the reports asserted byte-identical.
    ``speedup_vs_bigint`` is gated by ``main`` (>=10x full, >=5x quick
    -- both at B=8; the native sweep is milliseconds, so quick mode
    affords the real width).  When ``large_width`` is set (full mode),
    a second row demonstrates the raised exhaustive cap at B=12: the
    bigint side runs once (it alone takes tens of seconds there), the
    native side, ~0.1 s, best-of-``repeats`` like the first row.
    No sweep caches its input planes between runs (native generates the
    pair product inside the kernel, bigint packs it per shard), so every
    repeat is cold; only the compiled program is reused.

    Each width also records the ISA flags the kernel was built with and
    the program's shape: compiled ops and slots (one per net), and the
    ops (fused ones among them) and rows of the compact pair-shard
    program the kernel runs.

    On hosts where the kernel cannot build, the section records the
    fallback reason and no timings; the gate is skipped (the fallback
    path's behavior is covered by the equivalence tests, not by perf).
    """
    from repro.backends import get_backend, resolve_backend_name
    from repro.backends._kernel import isa_flags, load_failure_reason
    from repro.backends.native import _FUSED, _lower_pair_shard
    from repro.verify.exhaustive import _two_sort_select_pairs

    native = get_backend("native")
    built = bool(getattr(native, "built", False))
    section = {
        "width": width,
        "built": built,
        "variant": getattr(native, "variant", None),
        "auto_resolves_to": resolve_backend_name("auto"),
    }
    if not built:
        section["fallback_reason"] = load_failure_reason()
        return section
    section["isa_flags"] = isa_flags()

    def shape(w: int) -> dict:
        program = compile_circuit(build_two_sort(w), "native")
        outs, ins = program.output_slots, program.input_slots
        pairs = _two_sort_select_pairs(w)
        cmp = [(outs[o], ins[a], ins[b]) for o, a, b in pairs]
        prog, _, _, rows = _lower_pair_shard(program, cmp)
        return {
            "ops": len(program.ops),
            "slots": program.n_slots,
            "lowered_ops": len(prog) // 5,
            "lowered_fused_ops": sum(1 for w in prog[::5] if w & _FUSED),
            "lowered_rows": rows,
        }

    def run(w: int, backend: str, reps: int):
        circuit = build_two_sort(w)
        compile_circuit(circuit, get_backend(backend))
        total = len(all_valid_strings(w)) ** 2
        best, report = None, None
        for _ in range(reps):
            t0 = time.perf_counter()
            result = verify_two_sort_sharded(
                circuit, w, jobs=1, executor="serial", backend=backend
            )
            elapsed = time.perf_counter() - t0
            assert result.ok and result.checked == total, result.summary()
            best = elapsed if best is None else min(best, elapsed)
            report = result.to_json()
        return best, report, total

    b_time, b_report, pairs = run(width, "bigint", repeats)
    n_time, n_report, _ = run(width, "native", repeats)
    section.update(
        {
            "pairs": pairs,
            "bigint_time_s": round(b_time, 4),
            "native_time_s": round(n_time, 4),
            "native_pairs_per_s": round(pairs / n_time, 1),
            "speedup_vs_bigint": round(b_time / n_time, 2),
            "reports_identical": b_report == n_report,
            "program": shape(width),
        }
    )

    if large_width:
        b_time, b_report, pairs = run(large_width, "bigint", 1)
        n_time, n_report, _ = run(large_width, "native", repeats)
        section["large"] = {
            "width": large_width,
            "pairs": pairs,
            "bigint_time_s": round(b_time, 4),
            "native_time_s": round(n_time, 4),
            "native_pairs_per_s": round(pairs / n_time, 1),
            "speedup_vs_bigint": round(b_time / n_time, 2),
            "reports_identical": b_report == n_report,
            "program": shape(large_width),
        }

    return section


def _fixed_shard_size(width: int, jobs: int, word: int = 8) -> int:
    """Lanes for about four g-row ranges per worker, at most 2^14 and
    rounded up to ``word`` lanes.

    A sweep's default plan is as many whole g-rows as fit its backend's
    lane budget, whatever ``jobs``; the sections below that time a
    fixed split of the domain pass this size explicitly instead, so
    the ratios they record keep measuring the plans they always did.
    """
    S = (1 << (width + 1)) - 1
    size = min(1 << 14, max(S, -(-S * S // (4 * jobs))))
    return -(-size // word) * word


def bench_parallel_verification(width: int, jobs_list) -> dict:
    """Worker-count scaling of the sharded exhaustive sweep.

    Every row -- the serial baseline included -- runs the *same* shard
    set (one shard size, computed for the largest worker count), so the
    curve isolates pool/parallelism effects from shard-size effects.
    Each entry asserts bit-identical verification counts.  Speedups are
    honest wall-clock ratios -- on a single-core host the pool overhead
    makes them <= 1, which is exactly what the recorded ``cpu_count``
    explains.
    """
    import os

    circuit = build_two_sort(width)
    compile_circuit(circuit)  # warm the program cache outside the timers
    total_pairs = len(all_valid_strings(width)) ** 2
    shard_size = _fixed_shard_size(width, max(jobs_list))

    t0 = time.perf_counter()
    baseline = verify_two_sort_sharded(
        circuit, width, jobs=1, shard_size=shard_size, executor="serial"
    )
    serial_time = time.perf_counter() - t0
    assert baseline.ok and baseline.checked == total_pairs

    workers = []
    for jobs in jobs_list:
        t0 = time.perf_counter()
        result = verify_two_sort_sharded(
            circuit, width, jobs=jobs, shard_size=shard_size,
            executor="process",
        )
        elapsed = time.perf_counter() - t0
        assert result.ok and result.checked == baseline.checked
        workers.append(
            {
                "jobs": jobs,
                "checked": result.checked,
                "time_s": round(elapsed, 4),
                "speedup_vs_serial": round(serial_time / elapsed, 2),
            }
        )

    return {
        "width": width,
        "pairs": total_pairs,
        "cpu_count": os.cpu_count(),
        "shard_size": shard_size,
        "serial_time_s": round(serial_time, 4),
        "workers": workers,
    }


def bench_distributed_verification(width: int, workers_list) -> dict:
    """Throughput of the socket work-queue executor on localhost.

    Runs the exhaustive sweep through a real :class:`ShardCoordinator`
    (ephemeral port) with N in-process worker agents attached -- the
    full wire protocol (lease, heartbeat, pickle transport, in-order
    merge), minus actual network distance.  Counts are asserted
    bit-identical to the serial baseline for every worker count; on a
    single-core host the numbers show protocol overhead, not speedup,
    which the recorded ``cpu_count`` explains (the execution itself is
    the same engine the ``parallel_verification`` section measures).
    """
    import os
    import threading

    from repro.distributed import ShardCoordinator, ShardWorker, use_coordinator

    circuit = build_two_sort(width)
    compile_circuit(circuit)
    total_pairs = len(all_valid_strings(width)) ** 2
    shard_size = _fixed_shard_size(width, max(workers_list))

    t0 = time.perf_counter()
    baseline = verify_two_sort_sharded(
        circuit, width, jobs=1, shard_size=shard_size, executor="serial"
    )
    serial_time = time.perf_counter() - t0
    assert baseline.ok and baseline.checked == total_pairs

    rows = []
    for workers in workers_list:
        coordinator = ShardCoordinator(host="127.0.0.1", port=0).start()
        stop = threading.Event()
        agents = [
            ShardWorker("127.0.0.1", coordinator.port, name=f"bench{i}")
            for i in range(workers)
        ]
        threads = [
            threading.Thread(target=a.run, args=(stop,), daemon=True)
            for a in agents
        ]
        for t in threads:
            t.start()
        try:
            with use_coordinator(coordinator):
                t0 = time.perf_counter()
                result = verify_two_sort_sharded(
                    circuit, width, shard_size=shard_size,
                    executor="distributed",
                )
                elapsed = time.perf_counter() - t0
        finally:
            stop.set()
            stats = coordinator.stats()
            coordinator.close()
            for t in threads:
                t.join(timeout=10)
        assert result.ok and result.checked == baseline.checked
        shards = stats["batches"][-1]["tasks"] if stats["batches"] else 0
        rows.append(
            {
                "workers": workers,
                "checked": result.checked,
                "shards": shards,
                "time_s": round(elapsed, 4),
                "shards_per_s": round(shards / elapsed, 1) if elapsed else None,
                "speedup_vs_serial": round(serial_time / elapsed, 2),
            }
        )

    return {
        "width": width,
        "pairs": total_pairs,
        "cpu_count": os.cpu_count(),
        "shard_size": shard_size,
        "serial_time_s": round(serial_time, 4),
        "transport": "json-lines TCP work queue (localhost)",
        "workers": rows,
    }


def bench_fault_tolerance(width: int, repeats: int = 5) -> dict:
    """Cost of durability and the payoff of shard-range leases.

    * ``checkpoint``: the identical serial sweep bare, journaling every
      shard through a :class:`~repro.store.JournalStore` (fsync per
      record), and then resumed from the finished journal.  Bare and
      journaled are each best-of-``repeats``, every journaled repeat
      into a fresh journal: a millisecond sweep read once swings with
      the host.  The resume executes zero shards -- its wall clock is
      pure journal replay plus merge -- and must still produce a
      bit-identical report.
    * ``range_leases``: the distributed sweep against a coordinator
      capped at one shard per lease RPC vs the default adaptive range
      (``max_range=32``).  The RPC counts show the amortization; the
      wall clocks show what it buys even on a localhost wire.
    """
    import os
    import tempfile
    import threading

    from repro.distributed import ShardCoordinator, ShardWorker, use_coordinator
    from repro.store import JournalStore

    circuit = build_two_sort(width)
    compile_circuit(circuit)
    total_pairs = len(all_valid_strings(width)) ** 2
    shard_size = _fixed_shard_size(width, 4)

    def sweep(cache=None):
        t0 = time.perf_counter()
        result = verify_two_sort_sharded(
            circuit, width, jobs=1, shard_size=shard_size,
            executor="serial", cache=cache,
        )
        return result, time.perf_counter() - t0

    bare_time = None
    for _ in range(repeats):
        baseline, elapsed = sweep()
        bare_time = elapsed if bare_time is None else min(bare_time, elapsed)
    assert baseline.ok and baseline.checked == total_pairs

    with tempfile.TemporaryDirectory() as tmp:
        journal_time = None
        for r in range(repeats):
            journal_path = os.path.join(tmp, f"bench{r}.jsonl")
            with JournalStore(journal_path) as journal:
                checkpointed, elapsed = sweep(journal)
                shards = len(journal)
            journal_time = (
                elapsed if journal_time is None else min(journal_time, elapsed)
            )
            assert checkpointed.to_json() == baseline.to_json()

        with JournalStore(journal_path) as journal:
            resumed, resume_time = sweep(journal)
            resume_hits = journal.hits
        assert resumed.to_json() == baseline.to_json()
        assert resume_hits == shards, (resume_hits, shards)

    checkpoint = {
        "shards": shards,
        "repeats": repeats,
        "bare_time_s": round(bare_time, 4),
        "journaled_time_s": round(journal_time, 4),
        "journal_overhead_x": round(journal_time / bare_time, 2),
        "resume_time_s": round(resume_time, 4),
        "resume_shards_recomputed": shards - resume_hits,
    }

    rows = []
    for max_range in (1, 32):
        coordinator = ShardCoordinator(
            host="127.0.0.1", port=0, max_range=max_range
        ).start()
        stop = threading.Event()
        agent = ShardWorker("127.0.0.1", coordinator.port, name="bench-ft")
        thread = threading.Thread(target=agent.run, args=(stop,), daemon=True)
        thread.start()
        try:
            with use_coordinator(coordinator):
                t0 = time.perf_counter()
                result = verify_two_sort_sharded(
                    circuit, width, shard_size=shard_size,
                    executor="distributed",
                )
                elapsed = time.perf_counter() - t0
        finally:
            stop.set()
            stats = coordinator.stats()
            coordinator.close()
            thread.join(timeout=10)
        assert result.ok and result.checked == baseline.checked
        rows.append(
            {
                "max_range": max_range,
                "shards": stats["tasks_leased_total"],
                "lease_rpcs": stats["lease_rpcs_total"],
                "time_s": round(elapsed, 4),
            }
        )
    amortization = (
        round(rows[0]["lease_rpcs"] / rows[1]["lease_rpcs"], 1)
        if rows[1]["lease_rpcs"]
        else None
    )

    return {
        "width": width,
        "pairs": total_pairs,
        "shard_size": shard_size,
        "checkpoint": checkpoint,
        "range_leases": {
            "rows": rows,
            "rpc_amortization_x": amortization,
        },
    }


def bench_verification_store(width: int, repeats: int = 3) -> dict:
    """Region-mode store sweeps against a bare sweep, per plane backend.

    Every timing is best-of-``repeats``; each repeat opens a fresh
    WAL-sqlite store and runs, serially:

    * ``bare``: the plain sweep with no store;
    * ``cold``: the same sweep against the empty store -- every region
      value computed and written (``overhead_x`` = cold / bare, the
      cost of region granularity);
    * ``warm``: again against the now-full store.  It must execute
      **zero** ranges (``puts == 0``) and still produce a bit-identical
      report -- its wall clock is pure lookup plus merge;
    * ``incremental``: a freshly spliced double-INV on one output
      (functionally identity, structurally a new netlist) against the
      warm store.  Only the edited cone re-executes, one range at a
      time; everything else is a region hit.

    The top-level row is ``bigint`` (the reference, and the historical
    row); ``native`` -- what the CLI's ``auto`` resolves to -- sits
    beside it when the kernel built.  ``journal_cold`` is the bigint
    cold sweep through the JSON-lines backend, so the sqlite-vs-journal
    write cost is on the record.
    """
    import os
    import tempfile

    from repro.backends import get_backend
    from repro.circuits.gates import INV
    from repro.store import open_store

    total_pairs = len(all_valid_strings(width)) ** 2
    regions = 2 * width

    def splice(circuit, k):
        """A functionally-identity edit confined to output cone 3."""
        edited = circuit.copy()
        root = edited.outputs[3]
        n1 = edited.add_gate(INV, [root], output=f"__bench_inv{k}a")
        n2 = edited.add_gate(INV, [n1], output=f"__bench_inv{k}b")
        edited.replace_output(3, n2)
        return edited

    def row(backend: str) -> dict:
        circuit = build_two_sort(width)
        compile_circuit(circuit, get_backend(backend))
        # The native rows were recorded with sizes rounded to 64 lanes.
        shard_size = _fixed_shard_size(
            width, 4, 64 if backend == "native" else 8
        )

        def sweep(target, store=None):
            before = dict(store.counters()) if store is not None else {}
            t0 = time.perf_counter()
            result = verify_two_sort_sharded(
                target, width, jobs=1, shard_size=shard_size,
                executor="serial", backend=backend, store=store,
            )
            elapsed = time.perf_counter() - t0
            assert result.ok and result.checked == total_pairs
            io = {}
            if store is not None:
                after = store.counters()
                io = {k: after[k] - before[k] for k in ("hits", "misses", "puts")}
            return result, elapsed, io

        best = {}

        def keep(name, elapsed, io):
            if name not in best or elapsed < best[name][0]:
                best[name] = (elapsed, io)

        baseline = None
        with tempfile.TemporaryDirectory() as tmp:
            for r in range(repeats):
                baseline, elapsed, _io = sweep(circuit)
                keep("bare", elapsed, {})
                path = os.path.join(tmp, f"bench-{backend}-{r}.db")
                with open_store(path) as store:
                    cold, elapsed, io = sweep(circuit, store)
                    assert cold.to_json() == baseline.to_json()
                    keep("cold", elapsed, io)
                    warm, elapsed, io = sweep(circuit, store)
                    assert warm.to_json() == baseline.to_json()
                    keep("warm", elapsed, io)
                    inc, elapsed, io = sweep(splice(circuit, r), store)
                    keep("inc", elapsed, io)
                    runs = store.runs()
                digests = [run.result_digest for run in runs]
                assert digests[0] == digests[1] == digests[2], digests
            journal = None
            if backend == "bigint":
                with open_store(os.path.join(tmp, "bench.jsonl")) as j:
                    jcold, jcold_time, jcold_io = sweep(circuit, j)
                    assert jcold.to_json() == baseline.to_json()
                journal = {
                    "backend": "journal",
                    "time_s": round(jcold_time, 4),
                    "puts": jcold_io["puts"],
                    "vs_sqlite_cold_x": round(jcold_time / best["cold"][0], 2),
                }

        bare_time = best["bare"][0]
        (cold_time, cold_io), (warm_time, warm_io), (inc_time, inc_io) = (
            best["cold"], best["warm"], best["inc"]
        )
        out = {
            "shard_size": shard_size,
            "repeats": repeats,
            "bare_time_s": round(bare_time, 4),
            "cold": {
                "backend": "sqlite",
                "time_s": round(cold_time, 4),
                "puts": cold_io["puts"],
                "overhead_x": round(cold_time / bare_time, 2),
            },
            "warm": {
                "backend": "sqlite",
                "time_s": round(warm_time, 4),
                "hits": warm_io["hits"],
                "puts": warm_io["puts"],
                "speedup_vs_cold": round(cold_time / warm_time, 1)
                if warm_time
                else None,
            },
            "incremental_one_gate_edit": {
                "edited_region": 3,
                "time_s": round(inc_time, 4),
                "puts": inc_io["puts"],
                "vs_cold_puts_x": round(cold_io["puts"] / inc_io["puts"], 1)
                if inc_io["puts"]
                else None,
                "overhead_x": round(inc_time / bare_time, 2),
            },
            "audited_runs": len(runs),
            "cold_warm_digests_match": digests[0] == digests[1],
        }
        if journal is not None:
            out["journal_cold"] = journal
        return out

    section = {
        "width": width,
        "pairs": total_pairs,
        "regions": regions,
        "backend": "bigint",
    }
    section.update(row("bigint"))
    native = get_backend("native")
    if getattr(native, "built", False):
        section["native"] = dict(row("native"), backend="native")
    return section


def bench_cli_startup(runs: int) -> dict:
    """What a user waits for: interpreter start, CLI import, ``verify``.

    Each round spawns ``python -c pass``, ``python -c "import
    repro.__main__"`` and ``python -m repro verify --width 8`` once, in
    that order, so a host-speed swing hits all three alike; the block
    reports the medians over ``runs`` rounds after one untimed round
    (whose ``verify`` may build the native kernel).  ``modules_after_import``
    is ``len(sys.modules)`` after the import, beside the bare count.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    commands = {
        "bare_python_s": [sys.executable, "-c", "pass"],
        "import_cli_s": [sys.executable, "-c", "import repro.__main__"],
        "verify_b8_s": [
            sys.executable, "-m", "repro", "verify", "--width", "8"
        ],
    }

    def spawn(argv) -> str:
        return subprocess.run(
            argv, env=env, check=True, capture_output=True, text=True
        ).stdout

    warmup = {name: spawn(argv) for name, argv in commands.items()}
    assert warmup["verify_b8_s"].strip().endswith("checked: OK"), warmup
    times = {name: [] for name in commands}
    for _ in range(runs):
        for name, argv in commands.items():
            t0 = time.perf_counter()
            spawn(argv)
            times[name].append(time.perf_counter() - t0)
    bare_modules, modules = map(int, spawn([
        sys.executable, "-c",
        "import sys; n = len(sys.modules); import repro.__main__; "
        "print(n, len(sys.modules))",
    ]).split())
    medians = {name: statistics.median(t) for name, t in times.items()}
    return {
        "runs": runs,
        **{name: round(m, 4) for name, m in medians.items()},
        "modules_bare": bare_modules,
        "modules_after_import": modules,
        "verify_over_bare": round(
            medians["verify_b8_s"] / medians["bare_python_s"], 2
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small widths / workloads (CI smoke run)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engines.json",
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)

    if args.quick:
        verify_width, scalar_sample = 5, 500
        net_width, net_vectors, net_requests = 5, 32, 10
        parallel_width, parallel_jobs = 6, [1, 2]
        native_width, native_large, native_gate = 8, 0, 5.0
        distributed_width, distributed_workers = 6, [1, 2]
        fault_width = 6
        store_width = 6
        startup_runs = 5
    else:
        verify_width, scalar_sample = 8, 4000
        net_width, net_vectors, net_requests = 8, 1024, 40
        parallel_width, parallel_jobs = 9, [1, 2, 4]
        native_width, native_large, native_gate = 8, 12, 10.0
        distributed_width, distributed_workers = 8, [1, 2, 4]
        fault_width = 8
        store_width = 8
        startup_runs = 15

    print(f"== exhaustive 2-sort verification (B={verify_width}) ==")
    exhaustive = bench_exhaustive_verification(verify_width, scalar_sample)
    print(
        f"  scalar:   {exhaustive['scalar']['pairs_per_s']:>12,.0f} pairs/s "
        f"({exhaustive['scalar']['gate_visits_per_s']:,.0f} gate-visits/s)"
    )
    print(
        f"  compiled: {exhaustive['compiled']['pairs_per_s']:>12,.0f} pairs/s "
        f"({exhaustive['compiled']['gate_visits_per_s']:,.0f} gate-visits/s)"
    )
    print(f"  speedup:  {exhaustive['speedup']:,.1f}x")

    print(f"== sorting-network simulation (B={net_width}, 10 channels) ==")
    network = bench_network_simulation(net_width, net_vectors, net_requests)
    print(f"  scalar:   {network['scalar']['vectors_per_s']:>12,.1f} vectors/s")
    print(f"  compiled: {network['compiled']['vectors_per_s']:>12,.1f} vectors/s")
    print(f"  strings:  {network['strings']['vectors_per_s']:>12,.1f} vectors/s")
    print(f"  speedup:  {network['speedup']:,.1f}x")
    served = network["served_request"]
    print(
        f"  served request (256 x 10 x 16-bit, validation included): "
        f"{served['ms_per_request']:.2f} ms"
    )

    print(f"== native backend (B={native_width}) ==")
    native = bench_native_backend(native_width, large_width=native_large)
    if native["built"]:
        isa = " ".join(native["isa_flags"]) or "(plain)"
        print(f"  kernel ISA flags: {isa}")
        for row in [native, native.get("large")]:
            if row:
                pr = row["program"]
                print(
                    f"  B={row['width']} program: {pr['ops']} ops / "
                    f"{pr['slots']} slots -> {pr['lowered_ops']} ops / "
                    f"{pr['lowered_rows']} rows per pair shard"
                )
        print(
            f"  bigint:   {native['bigint_time_s']:>8.4f}s   "
            f"native: {native['native_time_s']:>8.4f}s   "
            f"speedup {native['speedup_vs_bigint']:.2f}x  "
            f"(reports identical: {native['reports_identical']})"
        )
        if "large" in native:
            lg = native["large"]
            print(
                f"  B={lg['width']}: bigint {lg['bigint_time_s']:.2f}s, "
                f"native {lg['native_time_s']:.2f}s "
                f"({lg['speedup_vs_bigint']:.2f}x, {lg['pairs']:,} pairs)"
            )
    else:
        print(f"  not built: {native.get('fallback_reason')}")

    print(f"== sharded parallel verification (B={parallel_width}) ==")
    parallel = bench_parallel_verification(parallel_width, parallel_jobs)
    print(
        f"  serial:   {parallel['serial_time_s']:>8.4f}s "
        f"({parallel['pairs']:,} pairs, {parallel['cpu_count']} cores)"
    )
    for entry in parallel["workers"]:
        print(
            f"  jobs={entry['jobs']}:   {entry['time_s']:>8.4f}s "
            f"({entry['speedup_vs_serial']:,.2f}x vs serial)"
        )

    print(f"== distributed work-queue verification (B={distributed_width}) ==")
    distributed = bench_distributed_verification(
        distributed_width, distributed_workers
    )
    print(
        f"  serial:      {distributed['serial_time_s']:>8.4f}s "
        f"({distributed['pairs']:,} pairs, {distributed['cpu_count']} cores)"
    )
    for entry in distributed["workers"]:
        print(
            f"  workers={entry['workers']}: {entry['time_s']:>8.4f}s "
            f"({entry['shards']} shards, "
            f"{entry['speedup_vs_serial']:,.2f}x vs serial)"
        )

    print(f"== fault tolerance (B={fault_width}) ==")
    fault = bench_fault_tolerance(fault_width)
    cp = fault["checkpoint"]
    print(
        f"  checkpoint:  bare {cp['bare_time_s']:.4f}s, journaled "
        f"{cp['journaled_time_s']:.4f}s ({cp['journal_overhead_x']:.2f}x), "
        f"resume {cp['resume_time_s']:.4f}s "
        f"({cp['resume_shards_recomputed']} shards recomputed)"
    )
    for row in fault["range_leases"]["rows"]:
        print(
            f"  max_range={row['max_range']:<3d} {row['lease_rpcs']:>4d} "
            f"lease RPCs for {row['shards']} shards in {row['time_s']:.4f}s"
        )
    print(
        "  rpc amortization: "
        f"{fault['range_leases']['rpc_amortization_x']}x"
    )

    print(f"== verification store (B={store_width}) ==")
    store = bench_verification_store(store_width)
    store_rows = [store] + ([store["native"]] if "native" in store else [])
    for srow in store_rows:
        inc = srow["incremental_one_gate_edit"]
        print(
            f"  {srow['backend']}: bare {srow['bare_time_s']:.4f}s, "
            f"cold {srow['cold']['time_s']:.4f}s "
            f"({srow['cold']['puts']} puts, "
            f"{srow['cold']['overhead_x']:.2f}x bare), "
            f"warm {srow['warm']['time_s']:.4f}s "
            f"({srow['warm']['hits']} hits, {srow['warm']['puts']} puts), "
            f"one-gate edit {inc['time_s']:.4f}s ({inc['puts']} puts, "
            f"{inc['vs_cold_puts_x']}x fewer than cold)"
        )
    print(
        f"  cold (journal): {store['journal_cold']['time_s']:>8.4f}s "
        f"({store['journal_cold']['vs_sqlite_cold_x']}x sqlite cold)"
    )

    print(f"== CLI start-up ({startup_runs} interleaved runs) ==")
    startup = bench_cli_startup(startup_runs)
    print(
        f"  bare python {startup['bare_python_s'] * 1e3:.1f} ms, "
        f"import repro.__main__ {startup['import_cli_s'] * 1e3:.1f} ms "
        f"({startup['modules_after_import']} modules, bare "
        f"{startup['modules_bare']}), verify -B 8 "
        f"{startup['verify_b8_s'] * 1e3:.1f} ms "
        f"({startup['verify_over_bare']}x bare)"
    )

    payload = {
        "benchmark": "scalar interpreter vs compiled two-plane engine",
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "exhaustive_verification": exhaustive,
        "network_simulation": network,
        "native_backend": native,
        "parallel_verification": parallel,
        "distributed_verification": distributed,
        "fault_tolerance": fault,
        "verification_store": store,
        "cli_startup": startup,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if exhaustive["speedup"] < 20:
        print("FAIL: compiled engine is less than 20x the scalar interpreter")
        return 1
    if native["built"]:
        if not native["reports_identical"] or not native.get(
            "large", {"reports_identical": True}
        )["reports_identical"]:
            print("FAIL: native and bigint verification reports differ")
            return 1
        if native["speedup_vs_bigint"] < native_gate:
            print(
                f"FAIL: native backend is only "
                f"{native['speedup_vs_bigint']}x bigint at B={native_width} "
                f"(acceptance bound: {native_gate}x single-core)"
            )
            return 1
    for srow in store_rows:
        if srow["warm"]["puts"] != 0:
            print(
                f"FAIL: warm {srow['backend']} store run executed "
                f"{srow['warm']['puts']} shards "
                "(acceptance bound: 0 -- a warm run must be pure lookup)"
            )
            return 1
        inc_puts = srow["incremental_one_gate_edit"]["puts"]
        if inc_puts * 5 > srow["cold"]["puts"]:
            print(
                f"FAIL: one-gate edit re-executed {inc_puts} of "
                f"{srow['cold']['puts']} cold {srow['backend']} shards "
                "(acceptance bound: at least 5x fewer than cold)"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
