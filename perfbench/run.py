"""The repository benchmark: four user workloads, one result line each.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each driven from this one process as a closed loop with one
client; the work runs in fresh child interpreters):

* ``cli-verify-b8`` -- ``python -m repro verify -B 8`` as a subprocess,
  one invocation at a time.  Startup and imports dominate.
* ``sweep-b13`` -- one exhaustive serial sweep of 2-sort(13) (268,402,689
  pairs) per fresh interpreter.  Input-plane packing and the C kernel
  dominate.
* ``design-loop-b7`` -- a cold region-mode sweep of 2-sort(7) into a
  fresh SQLite store, then seeded single-gate edits re-verified against
  that store: double-inverter splices that keep the design correct and,
  every ``FAULT_EVERY``-th edit, an AND2/OR2 swap that breaks it.
* ``serve-sort-10x16`` -- a ``repro serve`` process with one job slot; the
  client submits seeded ``SortRequest``s of 256 vectors of 10 channels of
  16-bit Gray-code words (~30 % metastable) and waits for each result.
  Each server takes ``SERVE_REQUESTS`` requests; fresh servers follow
  until the run's time is used.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(``END_TO_END``); with ``--trace 1`` it carries the per-layer metrics
(``PER_LAYER``) of a fixed set of traced operations, plus the tracing
overhead measured against the same operations untraced.  Lines before it
are a human-readable report, including the workload-specific names
(``cli_wall_s.p50``, ``edit_fail_s.p50`` ...) each generic metric stands
for on this workload.

Every timing is scaled to a reference host speed by host-speed probes
taken between operations (see ``hostspeed``); the report lines also give
the raw wall-time medians.

Every run builds into a run-private directory under ``perfbench/_work``
(kernel caches, stores, temp files) and removes it at the end; traces are
kept in ``perfbench/_traces``.  ``~/.cache`` is never touched.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: No run may exceed this many seconds of wall time.
DEADLINE_S = 170.0

#: Fixed per workload: the "tail" percentile, chosen as the highest
#: percentile that keeps at least ten samples beyond it at the run length
#: of 25 s in ``BENCHMARK.json`` (the report prints the sample count and
#: how many lie beyond; sweep-b13 takes ~5 samples, so its tail is p50).
TAIL_PCT = {
    "cli-verify-b8": 70,
    "sweep-b13": 50,
    "design-loop-b7": 95,
    "serve-sort-10x16": 75,
}

#: Full and toy (self-test) sizes of every workload.
SIZES = {
    "full": {"cli_width": 8, "sweep_width": 13, "design_width": 7,
             "channels": 10, "word_width": 16, "batch": 256},
    "toy": {"cli_width": 3, "sweep_width": 3, "design_width": 3,
            "channels": 4, "word_width": 4, "batch": 8},
}

#: Edits per design round.  Every round starts on a fresh store and makes
#: the same number of edits, so each covers the same stretch of the
#: store's growth (SQLite's WAL cycle makes edit latency bimodal over it).
DESIGN_EDITS = 200
FAULT_EVERY = 50
#: Requests per server.  Every server handles the same number, so its
#: peak RSS does not depend on how fast the host is.
SERVE_REQUESTS = 12
#: Every COLD_EVERY-th CLI invocation starts from an empty kernel cache
#: and is a set-up sample, not an operation.
COLD_EVERY = 5

#: Fixed operation counts of the traced run and of its untraced
#: reference; the design loop's traced round makes exactly one fault.
TRACE_OPS = {
    "cli-verify-b8": 3,
    "sweep-b13": 1,
    "design-loop-b7": FAULT_EVERY,
    "serve-sort-10x16": 10,
}

END_TO_END = [
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("model_gates", "count"),
    ("model_depth", "count"),
    ("op_latency_s.p50", "s"),
    ("op_latency_s.tail", "s"),
    ("throughput_per_s", "1/s"),
]

#: What the generic end-to-end names mean on each workload.
ALIASES = {
    "cli-verify-b8": {"op_latency_s": "cli_wall_s",
                      "throughput_per_s": "pairs checked per CLI second"},
    "sweep-b13": {"op_latency_s": "sweep_call_s",
                  "throughput_per_s": "sweep_pairs_per_s"},
    "design-loop-b7": {"op_latency_s": "edit_ok_s",
                       "throughput_per_s": "edits re-verified per s, faults included"},
    "serve-sort-10x16": {"op_latency_s": "sort_rtt_s",
                         "throughput_per_s": "sort_vectors_per_s"},
}

PER_LAYER = [
    ("cli.import_s", "s"), ("cli.modules_imported", "count"),
    ("cli.numpy_imported", "count"), ("cli.bare_python_s", "s"),
    ("core.build_s", "s"), ("graycode.valid_strings_s", "s"),
    ("backends.kernel_build_s", "s"), ("backends.pack_s", "s"),
    ("backends.pack_calls", "count"), ("backends.run_s", "s"),
    ("backends.run_calls", "count"), ("backends.lanes", "count"),
    ("backends.iter_set_lanes_s", "s"),
    ("circuits.compile_s", "s"), ("circuits.compile_calls", "count"),
    ("circuits.content_hash_s", "s"), ("circuits.region_hashes_s", "s"),
    ("circuits.extract_cone_s", "s"), ("circuits.tritvec_pack_s", "s"),
    ("circuits.tritvec_unpack_s", "s"), ("circuits.run_tritvecs_s", "s"),
    ("verify.shards", "count"), ("verify.shard_s", "s"),
    ("verify.region_shard_s", "s"), ("verify.decode_s", "s"),
    ("verify.lanes_decoded", "count"), ("verify.decode_useful_ratio", "ratio"),
    ("verify.reverified_ratio", "ratio"), ("verify.merge_s", "s"),
    ("store.gets", "count"), ("store.get_s", "s"),
    ("store.hit_ratio", "ratio"), ("store.puts", "count"),
    ("store.put_s", "s"), ("store.claim_s", "s"), ("store.record_run_s", "s"),
    ("service.submit_s", "s"), ("service.wait_s", "s"),
    ("service.job_s", "s"), ("service.overhead_s", "s"),
    ("service.request_bytes", "bytes"), ("service.response_bytes", "bytes"),
    ("networks.sort_batch_s", "s"), ("networks.shards_per_request", "count"),
    ("trace.spans", "count"), ("trace.overhead_op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.overhead_setup_s", "s"),
]


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an operation failure)."""


Timing = Tuple[float, int]  # (wall seconds, index of the probe before it)


@dataclass
class Outcome:
    """Everything one workload measured.

    Timings are kept raw with the probe taken before them, and scaled to
    the reference host speed by ``speed`` when the run is summarised.
    """

    speed: hostspeed.Scaler = field(default_factory=hostspeed.Scaler)
    setup: List[Timing] = field(default_factory=list)
    ops: List[Timing] = field(default_factory=list)
    items: float = 0.0          # work units done in the ``busy`` timings
    busy: List[Timing] = field(default_factory=list)  # default: ``ops``
    attempted: int = 0
    failed: int = 0
    rss_mb: List[float] = field(default_factory=list)
    info: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def scaled(self, timings: List[Timing]) -> List[float]:
        return [self.speed.scale(wall, i) for wall, i in timings]

    def check(self, good: bool, what: str) -> None:
        self.attempted += 1
        if not good:
            self.failed += 1
            print(f"perfbench: wrong output: {what}", file=sys.stderr)

    def rss(self, mb: float) -> None:
        """The peak RSS of one process that did the work."""
        self.rss_mb.append(mb)


class Context:
    """Paths, budget and child processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        self.start = perf_counter()
        self.work_start = self.start
        self.pool: Optional[List[str]] = None  # design-loop fault sites
        self.work = HERE / "_work" / f"run-{os.getpid()}"
        self.tmp = self.work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.procs: List[subprocess.Popen] = []
        self._n = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._n += 1
        path = self.work / f"{prefix}-{self._n}"
        path.mkdir()
        return path

    def env(self, cache: Path) -> Dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_NATIVE_CACHE"] = str(cache)
        env["TMPDIR"] = str(self.tmp)
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def begin(self) -> None:
        """Mark the end of the build: the measured window starts here."""
        self.work_start = perf_counter()

    def elapsed(self) -> float:
        return perf_counter() - self.work_start

    def remaining(self) -> float:
        left = DEADLINE_S - (perf_counter() - self.start)
        if left <= 5:
            raise BenchError("run exceeded its time limit")
        return left

    def popen(self, argv: List[str], env: Dict[str, str], **kw) -> subprocess.Popen:
        proc = subprocess.Popen(argv, env=env, cwd=str(ROOT), **kw)
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            try:
                proc.wait(timeout=10)
            except (subprocess.TimeoutExpired, ChildProcessError):
                pass
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Process helpers
# ----------------------------------------------------------------------
def timed_spawn(ctx: Context, argv: List[str], env: Dict[str, str]):
    """Run a child to completion; returns (wall_s, exit code, stdout, rss_mb).

    Timed from spawn to reap.  Output goes to files, not pipes, so the
    child is reaped with ``wait4`` and its peak RSS read from that
    child's own resource usage.
    """
    out_path = ctx.tmp / "child.out"
    with open(out_path, "wb") as out, open(ctx.tmp / "child.err", "wb") as err:
        t0 = perf_counter()
        proc = ctx.popen(argv, env, stdout=out, stderr=err)
        timer = threading.Timer(ctx.remaining(), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    return wall, proc.returncode, text, usage.ru_maxrss / 1024.0


def agent_argv(mode: str, *args: Any) -> List[str]:
    return [sys.executable, str(HERE / "agent.py"), mode, *map(str, args)]


def run_agent(ctx: Context, argv: List[str], env: Dict[str, str]):
    """Start an agent; returns (setup_s, RESULT payload)."""
    t0 = perf_counter()
    with open(ctx.tmp / "agent.err", "wb") as err:
        proc = ctx.popen(argv, env, stdout=subprocess.PIPE, stderr=err,
                         text=True)
    timer = threading.Timer(ctx.remaining(), proc.kill)
    timer.start()
    try:
        setup = result = None
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                setup = perf_counter() - t0
            elif tag == "RESULT":
                result = json.loads(payload)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code != 0 or setup is None or result is None:
        err = (ctx.tmp / "agent.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"agent {argv[2]} exited {code}: {err}")
    return setup, result


def spans_from(path: Path, op_offset: int) -> List[Dict[str, Any]]:
    """Spans of one child, with ids made unique across children."""
    spans = tracing.load_spans(str(path))
    base = op_offset * 10_000_000
    for s in spans:
        s["id"] += base
        if s["parent"]:
            s["parent"] += base
    return spans


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def cli_verify(ctx: Context, traced: bool, fixed_ops: Optional[int]) -> Outcome:
    width = ctx.size["cli_width"]
    pairs = ((1 << (width + 1)) - 1) ** 2
    expect = f"2-sort({width}) vs closure spec: {pairs} cases checked: OK"
    out = Outcome()
    invocations = itertools.count(1)

    def invoke(cache: Path):
        args = ["verify", "-B", str(width)]
        argv = [sys.executable, "-m", "repro", *args]
        if traced:
            n = next(invocations)
            trace_file = ctx.tmp / f"cli-{n}.jsonl"
            argv = agent_argv("cli", "--trace", trace_file, "--", *args)
        wall, code, text, rss = timed_spawn(ctx, argv, ctx.env(cache))
        out.check(code == 0 and text.strip() == expect,
                  f"verify -B {width} exited {code}: {text.strip()[:200]}")
        if traced:
            out.spans += spans_from(trace_file, n)
        return wall, rss

    for k in itertools.count():
        if fixed_ops is not None:
            if len(out.ops) >= fixed_ops:
                break
        elif out.ops and ctx.elapsed() >= ctx.seconds:
            break
        probe = out.speed.tick()
        if k % COLD_EVERY == 0:
            # Set-up: an invocation into an empty kernel cache builds the
            # kernel, as a user's first run on a host does.
            cache = ctx.fresh_dir("kcache")
            wall, _rss = invoke(cache)
            out.setup.append((wall, probe))
        else:
            wall, rss = invoke(cache)
            out.ops.append((wall, probe))
            out.rss(rss)
            out.items += pairs
        ctx.remaining()
    out.speed.tick(force=True)
    if traced:
        out.info.update(cli_probes(ctx, cache))
    return out


def cli_probes(ctx: Context, cache: Path) -> Dict[str, float]:
    """Import cost of the CLI module and the bare-interpreter floor."""
    probe = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import repro.__main__\n"
        "print(time.perf_counter() - t, len(sys.modules),"
        " int('numpy' in sys.modules))\n"
    )
    imports, bare = [], []
    for _ in range(5):
        wall, code, text, _rss = timed_spawn(
            ctx, [sys.executable, "-c", probe], ctx.env(cache))
        if code != 0:
            raise BenchError(f"import probe failed: {text}")
        seconds, modules, numpy_in = text.split()
        imports.append(float(seconds))
        wall, code, _text, _rss = timed_spawn(
            ctx, [sys.executable, "-c", "pass"], ctx.env(cache))
        bare.append(wall)
    return {
        "cli.import_s": statistics.median(imports),
        "cli.modules_imported": int(modules),
        "cli.numpy_imported": int(numpy_in),
        "cli.bare_python_s": statistics.median(bare),
    }


def sweep(ctx: Context, traced: bool, fixed_ops: Optional[int]) -> Outcome:
    width = ctx.size["sweep_width"]
    pairs = ((1 << (width + 1)) - 1) ** 2
    out = Outcome()
    last = 0.0
    while True:
        if fixed_ops is not None:
            if len(out.ops) >= fixed_ops:
                break
        elif out.ops and ctx.elapsed() + last > ctx.seconds:
            break
        t0 = perf_counter()
        probe = out.speed.tick(force=True)
        trace_file = ctx.tmp / f"sweep-{len(out.ops)}.jsonl" if traced else None
        extra = ["--trace", trace_file] if traced else []
        setup, res = run_agent(
            ctx, agent_argv("sweep", width, *extra),
            ctx.env(ctx.fresh_dir("kcache")))
        out.check(res["checked"] == pairs and res["ok"],
                  f"sweep B={width}: checked {res['checked']}, ok {res['ok']}")
        out.setup.append((setup, probe))
        out.ops.append((res["op_s"], probe))
        out.items += res["checked"]
        out.rss(res["peak_rss_mb"])
        if trace_file is not None:
            out.spans += spans_from(trace_file, len(out.ops))
        last = perf_counter() - t0
    out.speed.tick(force=True)
    return out


def design_loop(ctx: Context, traced: bool, fixed_ops: Optional[int]) -> Outcome:
    from repro import build_two_sort

    width = ctx.size["design_width"]
    if ctx.pool is None:
        ctx.pool = inputs.fault_pool(build_two_sort(width), width)
    pool = ctx.pool
    out = Outcome()
    clean, fail, cold = [], [], []
    last = 0.0
    for r in itertools.count():
        if fixed_ops is not None:
            if r:
                break
        elif r >= 3 and ctx.elapsed() + last > ctx.seconds:
            break
        t0 = perf_counter()
        probe = out.speed.tick(force=True)
        trace_file = ctx.tmp / f"design-{r}.jsonl" if traced else None
        extra = ["--trace", trace_file] if traced else []
        store = ctx.fresh_dir("store") / "results.db"
        setup, res = run_agent(
            ctx,
            agent_argv("design", width, ctx.seed * 1000 + r,
                       fixed_ops or DESIGN_EDITS, FAULT_EVERY, ",".join(pool),
                       store, *extra),
            ctx.env(ctx.fresh_dir("kcache")))
        # The agent's first probe follows READY, so it closes the set-up.
        offset = out.speed.extend(res["probes"])
        out.setup.append((setup, probe))
        out.check(res["cold_ok"], f"cold sweep of 2-sort({width})")
        cold.append((res["cold_s"], offset + res["cold_probe"]))
        for e in res["edits"]:
            # A clean edit must report OK and a fault must report failures;
            # either way the report must equal the bigint reference.
            expected = (e["failures"] == 0) == (e["kind"] == "clean")
            out.check(e["ok"] and expected,
                      f"{e['kind']} edit: {e['failures']} failures, "
                      f"matches bigint: {e['ok']}")
            (clean if e["kind"] == "clean" else fail).append(
                (e["op_s"], offset + e["probe"]))
        out.rss(res["peak_rss_mb"])
        if trace_file is not None:
            out.spans += spans_from(trace_file, r + 1)
        last = perf_counter() - t0
    out.ops = clean
    out.items = len(clean) + len(fail)
    out.busy = clean + fail
    out.info.update({
        "cold_sweep_s": (statistics.median(out.scaled(cold)), "s",
                         f"median of {len(cold)}"),
        "edit_fail_s.p50": (
            statistics.median(out.scaled(fail)) if fail else float("nan"), "s",
            f"median of {len(fail)} faults drawn from {len(pool)} sites"),
        "edits": (len(clean) + len(fail), "count", "clean + faulty"),
    })
    return out


def serve_sort(ctx: Context, traced: bool, fixed_ops: Optional[int]) -> Outcome:
    from repro.graycode import rank
    from repro.service import ServiceClient, SortRequest
    from repro.ternary.word import Word

    size = ctx.size
    out = Outcome()
    ranks: Dict[str, int] = {}

    def key(s: str) -> int:
        r = ranks.get(s)
        if r is None:
            r = ranks[s] = rank(Word(s))
        return r

    seq = [0]
    rtt_total = [0.0]

    def request(client, tracer=None) -> float:
        seq[0] += 1
        vectors = inputs.sort_vectors(
            ctx.seed * 100_000 + seq[0], size["batch"],
            size["channels"], size["word_width"])
        req = SortRequest(vectors=tuple(tuple(v) for v in vectors))
        if tracer is not None:
            tracer.op = seq[0]
        t0 = perf_counter()
        job = client.submit(req)
        res = client.wait_for(job)
        rtt = perf_counter() - t0
        rtt_total[0] += rtt
        got = (res.get("result") or {}).get("vectors")
        out.check(res.get("state") == "done" and got == [
            sorted(v, key=key) for v in vectors], f"sort request {seq[0]}")
        return rtt

    # The --trace 1 run hosts the server in this process for both of its
    # halves, so traced minus untraced is the cost of tracing alone.
    in_process = fixed_ops is not None
    for r in itertools.count():
        if in_process:
            if r:
                break
        elif r and ctx.elapsed() >= ctx.seconds:
            break
        cache = ctx.fresh_dir("kcache")
        probe = out.speed.tick(force=True)
        t0 = perf_counter()
        server = (InProcessServer(cache, traced) if in_process
                  else ServerProcess(ctx, cache))
        tracer = server.tracer
        client = ServiceClient(port=server.port).connect()
        try:
            request(client, tracer)  # warm-up: part of set-up
            out.setup.append((perf_counter() - t0, probe))
            for _ in range(fixed_ops or SERVE_REQUESTS):
                probe = out.speed.tick()
                out.ops.append((request(client, tracer), probe))
                out.items += size["batch"]
                ctx.remaining()
        finally:
            client.close()
            out.rss(server.close())
        if tracer is not None:
            out.spans += tracing.as_dicts(tracer.spans)
    out.speed.tick(force=True)
    out.info["rtt_total_s"] = (rtt_total[0], "s", "all requests, warm-ups included")
    return out


class ServerProcess:
    """``python -m repro serve`` on an ephemeral localhost port."""

    def __init__(self, ctx: Context, cache: Path):
        with open(ctx.tmp / "serve.err", "wb") as err:
            self.proc = ctx.popen(
                [sys.executable, "-m", "repro", "serve", "--host",
                 "127.0.0.1", "--port", "0", "--jobs", "1"],
                ctx.env(cache), stdout=subprocess.PIPE, stderr=err, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.close()
            raise BenchError(f"serve did not start: {line!r}")
        self.port = int(match.group(1))
        self.tracer = None

    def close(self) -> float:
        """Stop the server; returns its peak RSS in MB."""
        peak = 0.0
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return peak


class InProcessServer:
    """The service hosted in this process (``--trace 1`` runs only).

    Hosting it here lets the tracer see ``SortRequest.run`` inside the
    server, which a separate server process would hide.  The untraced
    half of the run installs no tracer.
    """

    def __init__(self, cache: Path, traced: bool):
        os.environ["REPRO_NATIVE_CACHE"] = str(cache)
        self.tracer = tracing.install(tracing.Tracer()) if traced else None
        from repro.service import JobManager, ReproServer

        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

        async def start():
            return await ReproServer(
                JobManager(jobs=1), host="127.0.0.1", port=0).start()

        self.server = asyncio.run_coroutine_threadsafe(start(), self.loop).result()
        self.port = self.server.port

    def close(self) -> float:
        if self.tracer is not None:
            self.tracer.on = False
        asyncio.run_coroutine_threadsafe(
            self.server.aclose(), self.loop).result(timeout=30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS: Dict[str, Callable[[Context, bool, Optional[int]], Outcome]] = {
    "cli-verify-b8": cli_verify,
    "sweep-b13": sweep,
    "design-loop-b7": design_loop,
    "serve-sort-10x16": serve_sort,
}


# ----------------------------------------------------------------------
# Build, environment, model
# ----------------------------------------------------------------------
def build_and_stamp(ctx: Context) -> Dict[str, Any]:
    """Byte-compile the sources, build the kernel once, stamp the host."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True, cwd=str(ROOT), stdout=subprocess.DEVNULL,
        timeout=ctx.remaining())
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "backends", "--json"],
        capture_output=True, text=True, cwd=str(ROOT),
        env=ctx.env(ctx.fresh_dir("kcache")), timeout=ctx.remaining())
    if proc.returncode != 0:
        raise BenchError(f"repro backends failed: {proc.stderr[-500:]}")
    registry = json.loads(proc.stdout)
    native = next((b for b in registry["backends"] if b["name"] == "native"), {})
    built = registry["auto"] == "native" and native.get("variant") == "built"
    cc = os.environ.get("CC") or next(
        (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    cc_id = "none"
    if cc and shutil.which(cc):
        first = subprocess.run([cc, "--version"], capture_output=True,
                               text=True).stdout.splitlines()
        cc_id = f"{cc}: {first[0] if first else '?'}"
    try:
        from importlib.metadata import version
        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - any metadata failure means "absent"
        numpy_version = "absent"
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "compiler": cc_id,
        "numpy": numpy_version,
        "auto_backend": registry["auto"],
        "native": native.get("detail"),
        "native_built": built,
        "comparable_class": "native-kernel" if built else "bigint-fallback",
    }
    if not built:
        print("perfbench: WARNING native kernel did not build; this run is "
              "not comparable with runs where it did", file=sys.stderr)
    return env


def model_size(ctx: Context) -> Dict[str, int]:
    """Gate count and logic depth of the unedited circuit of the workload."""
    from repro import build_sorting_circuit, build_two_sort, logic_depth
    from repro.networks.topologies import best_known

    size = ctx.size
    if ctx.workload == "serve-sort-10x16":
        circuit = build_sorting_circuit(
            best_known(size["channels"]), size["word_width"])
    else:
        key = {"cli-verify-b8": "cli_width", "sweep-b13": "sweep_width",
               "design-loop-b7": "design_width"}[ctx.workload]
        circuit = build_two_sort(size[key])
    return {"model_gates": circuit.gate_count(),
            "model_depth": logic_depth(circuit)}


# ----------------------------------------------------------------------
# Statistics and report
# ----------------------------------------------------------------------
def percentile(values: List[float], pct: float) -> float:
    """Linearly interpolated percentile (p50 is the median)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(ctx: Context, out: Outcome, model: Dict[str, int]) -> Dict[str, float]:
    if not out.ops or not out.setup:
        raise BenchError("workload recorded no operations")
    ops = out.scaled(out.ops)
    return {
        "setup_s": statistics.median(out.scaled(out.setup)),
        "ok_ratio": (out.attempted - out.failed) / out.attempted,
        "peak_rss_mb": statistics.median(out.rss_mb),
        "model_gates": model["model_gates"],
        "model_depth": model["model_depth"],
        "op_latency_s.p50": statistics.median(ops),
        "op_latency_s.tail": percentile(ops, TAIL_PCT[ctx.workload]),
        "throughput_per_s": out.items / sum(out.scaled(out.busy or out.ops)),
    }


def report(ctx: Context, out: Outcome, metrics: Dict[str, float],
           env: Dict[str, Any]) -> None:
    name = ctx.workload
    pct = TAIL_PCT[name]
    n = len(out.ops)
    beyond = sum(v > metrics["op_latency_s.tail"] for v in out.scaled(out.ops))
    print(f"perfbench {name} seed={ctx.seed} seconds={ctx.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    aliases = ALIASES[name]
    units = dict(END_TO_END)
    for metric, value in metrics.items():
        base = metric.split(".")[0]
        alias = aliases.get(base)
        label = metric if alias is None else f"{metric} ({alias}{metric[len(base):]})"
        note = ""
        if metric == "op_latency_s.tail":
            note = f"  [p{pct}, n={n}, {beyond} beyond]"
        elif metric == "setup_s":
            note = f"  [median of {len(out.setup)}]"
        elif metric == "peak_rss_mb":
            note = f"  [median of {len(out.rss_mb)} processes' peaks]"
        print(f"  {label:<44} {value:.6g} {units.get(metric, '')}{note}")
    print(f"  {'error_rate':<44} {out.failed / out.attempted:.6g} ratio"
          f"  [{out.failed} of {out.attempted} operations]")
    for key, (value, unit, note) in out.info.items():
        print(f"  {key:<44} {value:.6g} {unit}  [{note}]")
    walls = {"setup": out.setup, "op_latency p50": out.ops}
    for key, timings in walls.items():
        value = statistics.median(wall for wall, _i in timings)
        print(f"  {'unscaled wall ' + key:<44} {value:.6g} s")
    print(f"  {'host-speed probe':<44} {statistics.median(out.speed.probes):.6g} s"
          f"  [median of {len(out.speed.probes)}; reference "
          f"{hostspeed.REFERENCE_S:g} s]")


def per_layer(ctx: Context, traced: Outcome, plain: Outcome) -> Dict[str, float]:
    values: Dict[str, float] = {name: 0 for name, _unit in PER_LAYER}
    values.update(tracing.layer_metrics(traced.spans))
    values.update({k: v for k, v in traced.info.items() if k.startswith("cli.")})
    if ctx.workload == "serve-sort-10x16":
        values["service.overhead_s"] = (
            traced.info["rtt_total_s"][0] - values["service.job_s"])
    t50 = statistics.median(traced.scaled(traced.ops))
    p50 = statistics.median(plain.scaled(plain.ops))
    values["trace.overhead_op_s"] = t50 - p50
    values["trace.overhead_ratio"] = t50 / p50 - 1
    values["trace.overhead_setup_s"] = (
        statistics.median(traced.scaled(traced.setup))
        - statistics.median(plain.scaled(plain.setup)))
    return values


def write_trace(ctx: Context, spans: List[Dict[str, Any]]) -> Path:
    out_dir = HERE / "_traces"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{ctx.workload}-seed{ctx.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    return path


def run(args: argparse.Namespace) -> Dict[str, Any]:
    ctx = Context(args.workload, args.seed, args.seconds,
                  "toy" if args.toy else "full")
    try:
        os.environ["TMPDIR"] = str(ctx.tmp)
        os.environ["REPRO_NATIVE_CACHE"] = str(ctx.fresh_dir("kcache"))
        sys.path.insert(0, str(SRC))
        env = build_and_stamp(ctx)
        model = model_size(ctx)
        ctx.begin()
        body = WORKLOADS[ctx.workload]
        if not args.trace:
            out = body(ctx, False, None)
            metrics = end_to_end(ctx, out, model)
            report(ctx, out, metrics, env)
            units = dict(END_TO_END)
        else:
            n = 1 if args.toy else TRACE_OPS[ctx.workload]
            plain = body(ctx, False, n)
            out = body(ctx, True, n)
            problems = tracing.check_nesting(out.spans)
            if problems:
                raise BenchError("bad span nesting: " + "; ".join(problems[:5]))
            out.attempted += plain.attempted
            out.failed += plain.failed
            metrics = per_layer(ctx, out, plain)
            path = write_trace(ctx, out.spans)
            units = dict(PER_LAYER)
            print(f"perfbench {ctx.workload} traced: {len(out.ops)} ops, "
                  f"spans in {path.relative_to(ROOT)}")
            print("env " + json.dumps(env, sort_keys=True))
            for metric, value in metrics.items():
                print(f"  {metric:<36} {value:.6g} {units[metric]}")
    finally:
        ctx.close()
    return {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="smallest sizes (the self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
