"""Command-line interface: ``python -m repro <command>``.

Commands
--------
table7              regenerate Table 7 (2-sort costs, measured vs published)
table8              regenerate Table 8 (sorting-network costs)
verify --width B    exhaustively verify 2-sort(B) against the closure spec
       --jobs N     shard the sweep across N worker processes (0 = cores)
       --shard-size pair-lanes per shard (default: as many whole
                    g-rows as fit the backend's lane budget)
       --executor   execution strategy: serial/process/distributed
                    (default: process when --jobs > 1 and the plan
                    has more than one range, else serial)
       --listen A   (with --executor distributed) coordinator address,
                    PORT or HOST:PORT (bare port binds all interfaces)
       --backend    plane backend: auto (default -- native when its C
                    kernel builds on this host, else bigint), bigint,
                    or native
       --checkpoint durable shard journal: created if missing, resumed
                    if present (completed shards are never re-run)
       --resume P   resume strictly from an existing journal (exit 2
                    if it does not exist)
       --store S    unified result store (memory[:N] / journal:PATH /
                    sqlite:PATH / bare path): results are keyed per
                    output-cone region, so edits re-verify
                    incrementally; each completed sweep is audited
       --json       machine-readable result (counts, failures, timing,
                    and the store's hit/miss/put counters)
export --width B    dump 2-sort(B) as structural Verilog (stdout)
backends            list registered plane backends, their variant on
                    this host (e.g. whether the native C kernel built,
                    and why not if it fell back), and what the
                    ``auto`` alias resolves to
     --json         machine-readable registry
sort g h [...]      sort valid strings with the paper's circuit
     --engine       2-sort engine (fsm default; compiled = batch path)
     --json         machine-readable sorted output
serve               run the async job service (JSON lines over TCP)
     --port/--host  bind address (default 127.0.0.1:7421)
     --jobs         max concurrently *running* jobs
     --listen A     also run a shard coordinator ([HOST:]PORT), so
                    submitted verify jobs may use executor "distributed"
     --store S      server-wide store for jobs that name none (keyed
                    per whole-circuit shard, unlike verify --store)
worker              attach a shard worker to a running coordinator; it
                    runs one shard at a time, so a host contributes N
                    cores by running N workers
     --connect H:P  coordinator address
     --retry-max    consecutive failed connects tolerated before giving
                    up (default 10; 0 = fail fast) -- startup order is
                    free: workers may start before the coordinator
     --backoff-base seed of the jittered exponential reconnect delay
submit verify|sort  submit a job to a running service, stream progress
                    (stderr) and print the result exactly like the
                    direct command would
status JOB_ID       one job's state/progress as JSON
cancel JOB_ID       request cooperative cancellation
store log           print the audit trail of a result store
      --store S     store spec (as for verify --store)
      --limit N     newest N records only
      --json        one JSON object per line

``verify`` and ``sort`` are thin clients of the same typed request
dataclasses (:mod:`repro.service.jobs`) the service executes, so a
served job and a direct CLI run are the same code path.

Each command imports what it runs, so ``verify`` never loads asyncio,
the service server and client, the store or the socket layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time


def _cmd_table7(_args) -> int:
    from .analysis.compare import table7_rows

    for row in table7_rows():
        print(row.format())
    return 0


def _cmd_table8(_args) -> int:
    from .analysis.compare import table8_rows

    for row in table8_rows():
        print(row.format())
    return 0


def _check_positive_args(args) -> int:
    """Reject non-positive sharding arguments up front (exit code 2).

    Without this, a negative ``--jobs`` silently degraded to one worker
    (``max(1, jobs)`` deep in the pool planner) and ``--shard-size 0``
    died in shard planning with an opaque traceback.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 0:
        print(
            f"error: --jobs must be >= 0 (0 = one worker per core), "
            f"got {jobs}",
            file=sys.stderr,
        )
        return 2
    shard_size = getattr(args, "shard_size", None)
    if shard_size is not None and shard_size <= 0:
        print(
            f"error: --shard-size must be a positive lane count, "
            f"got {shard_size}",
            file=sys.stderr,
        )
        return 2
    return 0


def _check_executor_args(args) -> int:
    """Validate --executor/--listen up front (exit code 2 on misuse).

    The executor registry was CLI-unreachable before this flag existed
    (``--jobs`` hard-implied ``process``); validating against
    :func:`available_executors` here keeps the error a one-line usage
    message instead of a traceback from deep inside ``run_sharded``.
    """
    from .verify.parallel import available_executors

    executor = getattr(args, "executor", None)
    if executor is not None and executor not in available_executors():
        print(
            f"error: unknown executor {executor!r}; "
            f"available: {', '.join(available_executors())}",
            file=sys.stderr,
        )
        return 2
    listen = getattr(args, "listen", None)
    if listen is not None and executor != "distributed":
        print(
            "error: --listen starts a shard coordinator, which only "
            "--executor distributed uses",
            file=sys.stderr,
        )
        return 2
    if executor == "distributed" and hasattr(args, "listen") and listen is None:
        print(
            "error: --executor distributed needs --listen PORT (the "
            "coordinator address workers connect to; 0 = ephemeral)",
            file=sys.stderr,
        )
        return 2
    return 0


def _check_checkpoint_args(args, *, local: bool = True) -> int:
    """Validate --checkpoint/--resume (exit code 2 on misuse).

    ``--checkpoint`` is create-or-resume; ``--resume`` insists the
    journal already exists, so a typo'd path fails loudly instead of
    silently starting the sweep from scratch under a fresh file.  With
    ``local=False`` (``submit``: the journal lives wherever the service
    runs) the existence check is skipped.
    """
    resume = getattr(args, "resume", None)
    checkpoint = getattr(args, "checkpoint", None)
    if getattr(args, "store", None) is not None and (
        resume is not None or checkpoint is not None
    ):
        print(
            "error: --store and --checkpoint/--resume are mutually "
            "exclusive (a checkpoint *is* the journal store; pass "
            "--store journal:PATH for the same file, or --store "
            "sqlite:PATH for the shared backend)",
            file=sys.stderr,
        )
        return 2
    if resume is None:
        return 0
    if checkpoint is not None and checkpoint != resume:
        print(
            "error: --resume and --checkpoint name different journals; "
            "pass just one of them",
            file=sys.stderr,
        )
        return 2
    if local and not os.path.exists(resume):
        print(
            f"error: --resume {resume}: no such checkpoint journal "
            f"(use --checkpoint to create one on the first run)",
            file=sys.stderr,
        )
        return 2
    return 0


def _is_port(port) -> bool:
    """The one port check behind ``--listen``, ``--connect`` and every
    ``--port`` (text or int): a decimal 0-65535, 0 = ephemeral when
    binding.

    Past 65535 the socket layer raises ``OverflowError`` on a bind and
    dials the port modulo 65536, so the CLI refuses it up front.
    """
    text = str(port)
    return text.isascii() and text.isdigit() and int(text) <= 65535


def _parse_address(flag, value, bare_host=None):
    """``HOST:PORT`` as ``(host, port)``, or ``ValueError`` naming ``flag``.

    With ``bare_host``, a bare ``PORT`` is accepted too and means
    ``bare_host:PORT``.  ``--listen`` passes ``0.0.0.0``: the bare form
    binds all interfaces (cross-host is the point), and the ``HOST:``
    prefix is how a user restricts the coordinator -- which moves
    pickles, so exposure matters -- to e.g. ``127.0.0.1``.
    """
    host, sep, port_text = value.rpartition(":")
    if not sep and bare_host is not None:
        host, port_text = bare_host, value
    if not host or not _is_port(port_text):
        form = "HOST:PORT" if bare_host is None else "PORT or HOST:PORT"
        raise ValueError(
            f"{flag} expects {form} (port 0-65535), got {value!r}"
        )
    return host, int(port_text)


def _start_coordinator(args) -> int:
    """Run the shard coordinator for a distributed CLI sweep.

    Returns 0, or 2 on a usage-level failure (unparseable address,
    unbindable port) -- matching the bind-errors-exit-2 convention of
    ``serve``.
    """
    from .distributed import ensure_coordinator

    try:
        host, port = _parse_address("--listen", args.listen, "0.0.0.0")
        coordinator = ensure_coordinator(host=host, port=port)
    except (ValueError, OSError) as exc:
        print(f"error: cannot start coordinator -- {exc}", file=sys.stderr)
        return 2
    print(
        f"shard coordinator listening on {coordinator.host}:"
        f"{coordinator.port} -- attach workers with `python -m repro "
        f"worker --connect HOST:{coordinator.port}`",
        file=sys.stderr,
        flush=True,
    )
    return 0


def _verify_request(args):
    from .service.jobs import VerifyRequest

    return VerifyRequest(
        width=args.width,
        jobs=args.jobs,
        shard_size=args.shard_size,
        executor=args.executor,
        backend=args.backend,
        checkpoint=getattr(args, "resume", None) or getattr(args, "checkpoint", None),
        store=getattr(args, "store", None),
    )


def _print_verify_result(
    width: int, result, as_json: bool, store_counters=None,
) -> int:
    if as_json:
        payload = result.to_dict()
        if store_counters is not None:
            payload["store"] = store_counters
        print(json.dumps(payload, indent=2))
    else:
        print(f"2-sort({width}) vs closure spec: {result.summary()}")
        for failure in result.failures[:5]:
            print(f"  {failure}")
    return 0 if result.ok else 1


def _cmd_verify(args) -> int:
    from .service.jobs import MAX_VERIFY_WIDTH

    bad = (
        _check_positive_args(args)
        or _check_executor_args(args)
        or _check_checkpoint_args(args)
    )
    if bad:
        return bad
    width = args.width
    if width > MAX_VERIFY_WIDTH:
        # Sharded across workers the pair domain stays tractable up to
        # B=13 (268M pairs); beyond that 4^B outgrows a CLI run.
        print(
            f"exhaustive verification at B={width} would check "
            f"{((1 << (width + 1)) - 1) ** 2:,} pairs; "
            f"use B <= {MAX_VERIFY_WIDTH}",
            file=sys.stderr,
        )
        return 2
    request = _verify_request(args)
    try:
        request.validate()
    except ValueError as exc:
        # e.g. width < 1 or an unknown --backend (the registry can grow,
        # so argparse choices= would miss names registered at run time):
        # a usage error, same exit code as the checks above.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if request.checkpoint and os.path.exists(request.checkpoint):
        # Tell the operator how much of the sweep is already on file --
        # the resume story is useless if it runs silently.
        from .store import JournalStore

        with JournalStore(request.checkpoint, fsync=False) as peek:
            on_file = len(peek)
        print(
            f"checkpoint {request.checkpoint}: {on_file} shard "
            f"result(s) on file; finished shards will not be re-run",
            file=sys.stderr,
            flush=True,
        )
    store = None
    if request.store is not None:
        # Opened here (not inside run()) so the handle's hit/miss/put
        # counters and audit trail are reportable afterwards, and before
        # any sweep or bind, so a bad spec is a usage error.
        store = _open_store(request.store)
        if store is None:
            return 2
    if args.executor == "distributed":
        bad = _start_coordinator(args)
        if bad:
            if store is not None:
                store.close()
            return bad
    store_counters = None
    start = time.perf_counter()
    try:
        if store is not None:
            import dataclasses

            with store:
                result = dataclasses.replace(request, store=None).run(
                    store=store
                )
                store_counters = store.counters()
                # Summary on stderr: stdout stays byte-identical across
                # cold and warm runs (the determinism contract).
                print(
                    f"store {request.store}: {store.hits} hit(s), "
                    f"{store.misses} miss(es), {store.puts} new "
                    f"result(s); {len(store.runs() or [])} audited "
                    f"run(s)",
                    file=sys.stderr,
                    flush=True,
                )
        else:
            result = request.run()
    finally:
        if args.executor == "distributed":
            # Orderly teardown: workers polling this coordinator get a
            # "bye" and exit 0 instead of burning their reconnect
            # budget against a vanished port.
            from .distributed import shutdown_coordinator

            shutdown_coordinator()
    result.elapsed = time.perf_counter() - start
    return _print_verify_result(
        width, result, args.json, store_counters=store_counters
    )


def _open_store(spec):
    """``open_store(spec)``, or ``None`` after printing why it failed.

    A store that cannot be opened is a usage error (exit 2), like an
    unbindable port -- never exit 1, which means a failing circuit.
    """
    import sqlite3

    from .store import open_store

    try:
        return open_store(spec)
    except (OSError, ValueError, sqlite3.Error) as exc:
        print(f"error: store {spec} -- {exc}", file=sys.stderr)
        return None


def _cmd_export(args) -> int:
    from .circuits.export import to_verilog
    from .core.two_sort import build_two_sort

    sys.stdout.write(to_verilog(build_two_sort(args.width)))
    return 0


def _cmd_backends(args) -> int:
    """Print the plane-backend registry with availability and variant.

    Resolving ``native`` here may trigger its one-time kernel build --
    that is the point: the command answers "what would ``--backend
    auto`` do on this host, and why".
    """
    from .backends import (
        AUTO_BACKEND,
        available_backends,
        default_backend_name,
        get_backend,
        resolve_backend_name,
    )

    default = default_backend_name()
    rows = []
    for name in available_backends():
        be = get_backend(name)
        variant = getattr(be, "variant", None)
        detail = variant or "-"
        if name == "native":
            from .backends._kernel import isa_flags, load_failure_reason

            if variant == "built":
                flags = " ".join(isa_flags())
                detail = f"built (C kernel{', ' if flags else ''}{flags})"
            else:
                detail = f"fallback -> bigint ({load_failure_reason()})"
        rows.append(
            {
                "name": name,
                "variant": variant,
                "detail": detail,
                "default": name == default,
            }
        )
    auto_target = resolve_backend_name(AUTO_BACKEND)
    if args.json:
        print(
            json.dumps(
                {"backends": rows, "auto": auto_target, "default": default},
                indent=2,
            )
        )
        return 0
    width_col = max(len(r["name"]) for r in rows) + 2
    for r in rows:
        marker = "  (default)" if r["default"] else ""
        print(f"{r['name']:<{width_col}}{r['detail']}{marker}")
    print(f"{AUTO_BACKEND:<{width_col}}alias -> {auto_target}")
    return 0


def _sort_request(args):
    from .service.jobs import SortRequest

    return SortRequest.single(list(args.values), engine=args.engine)


def _cmd_sort(args) -> int:
    try:
        rows = _sort_request(args).run()
    except ValueError as exc:
        # e.g. mixed widths or an invalid word: a friendly exit 2 from
        # the shared validator.
        print(exc, file=sys.stderr)
        return 2
    sorted_words = rows[0]
    if args.json:
        print(json.dumps(sorted_words))
    else:
        for w in sorted_words:
            print(w)
    return 0


# ----------------------------------------------------------------------
# Service front-end
# ----------------------------------------------------------------------
def _cmd_serve(args) -> int:
    import asyncio

    from .service.jobs import JobManager
    from .service.server import ReproServer

    bad = _check_positive_args(args)
    if bad:
        return bad
    durable = None
    if args.store is not None:
        durable = _open_store(args.store)
        if durable is None:
            return 2
    if args.listen is not None:
        from .distributed import ensure_coordinator

        try:
            listen_host, listen_port = _parse_address(
                "--listen", args.listen, "0.0.0.0"
            )
            coordinator = ensure_coordinator(host=listen_host, port=listen_port)
        except (ValueError, OSError) as exc:
            print(
                f"error: cannot start coordinator -- {exc}", file=sys.stderr
            )
            if durable is not None:
                durable.close()
            return 2
        print(
            f"shard coordinator listening on {coordinator.host}:"
            f"{coordinator.port} -- jobs submitted with executor "
            f"\"distributed\" run on attached workers",
            flush=True,
        )

    async def _serve() -> None:
        # --jobs 0 follows the verify convention: one (job slot) per core.
        manager = JobManager(
            jobs=args.jobs or os.cpu_count() or 1,
            cache_size=args.cache_size,
            store=durable,
        )
        server = ReproServer(manager, host=args.host, port=args.port)
        await server.start()
        print(
            f"repro service listening on {args.host}:{server.port} "
            f"(max {manager.max_jobs} concurrent jobs)",
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro service stopped", file=sys.stderr)
    except OSError as exc:
        # Typically EADDRINUSE: a usage error, not a crash.
        print(
            f"error: cannot bind {args.host}:{args.port} -- {exc}",
            file=sys.stderr,
        )
        return 2
    finally:
        if durable is not None:
            durable.close()
    return 0


def _client(args):
    from .service.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port)


def _progress_line(kind: str, event) -> str:
    line = (
        f"[{event.get('id')}] {event.get('shards_done')}/"
        f"{event.get('shards_total')} shards"
    )
    if kind == "verify":
        line += (
            f", {event.get('checked')} pairs checked, "
            f"{event.get('failure_count')} failure(s)"
        )
    else:
        line += f", {event.get('items_done')} vector(s) sorted"
    return line


def _cmd_submit(args) -> int:
    from .service.client import ServiceError
    from .verify.exhaustive import VerificationResult

    bad = _check_executor_args(args) or _check_checkpoint_args(
        args, local=False
    )
    if bad:
        return bad
    if args.request_kind == "verify":
        request = _verify_request(args)
    else:
        request = _sort_request(args)
    try:
        # One validator (the request's own) covers jobs/shard-size/width
        # and the backend; validation failures are usage errors, exit 2.
        request.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with _client(args) as client:
            job_id = client.submit(request)
            if args.no_wait:
                print(job_id)
                return 0
            for event in client.stream(job_id):
                kind = event.get("event")
                if kind == "progress" and not args.quiet:
                    print(_progress_line(args.request_kind, event),
                          file=sys.stderr)
                elif kind == "failure" and not args.quiet:
                    print(
                        f"[{event.get('id')}] FAIL {event.get('message')}",
                        file=sys.stderr,
                    )
            response = client.result(job_id)
    except (ServiceError, ConnectionError, OSError) as exc:
        print(
            f"error: service at {args.host}:{args.port} -- {exc}",
            file=sys.stderr,
        )
        return 2
    state = response["state"]
    if state == "cancelled":
        print(f"job {job_id} cancelled", file=sys.stderr)
        return 1
    if state == "failed":
        print(f"job {job_id} failed: {response.get('error')}", file=sys.stderr)
        return 1
    payload = response["result"]
    if args.request_kind == "verify":
        result = VerificationResult(
            checked=payload["checked"],
            failure_count=payload["failure_count"],
            failures=list(payload["failures"]),
            truncated=payload["truncated"],
            elapsed=payload.get("elapsed_s"),
        )
        return _print_verify_result(args.width, result, args.json)
    rows = payload["vectors"]
    if args.json:
        print(json.dumps(rows[0] if len(rows) == 1 else rows))
    else:
        for row in rows:
            for word in row:
                print(word)
    return 0


def _cmd_worker(args) -> int:
    from .distributed import ShardWorker

    try:
        host, port = _parse_address("--connect", args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.throttle) and args.throttle >= 0):
        print(
            f"error: --throttle must be a finite delay >= 0 seconds, "
            f"got {args.throttle}",
            file=sys.stderr,
        )
        return 2
    if args.retry_max < 0:
        print(
            f"error: --retry-max must be >= 0 (0 = fail on the first "
            f"refused connect), got {args.retry_max}",
            file=sys.stderr,
        )
        return 2
    if not (math.isfinite(args.backoff_base) and args.backoff_base > 0):
        print(
            f"error: --backoff-base must be a finite delay > 0 "
            f"seconds, got {args.backoff_base}",
            file=sys.stderr,
        )
        return 2
    worker = ShardWorker(
        host,
        port,
        name=args.name,
        throttle=args.throttle,
        retry_max=args.retry_max,
        backoff_base=args.backoff_base,
    )
    try:
        completed = worker.run()
    except KeyboardInterrupt:
        print("worker stopped", file=sys.stderr)
        return 0
    except (ConnectionError, OSError) as exc:
        print(
            f"error: coordinator at {args.connect} -- {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"worker done: {completed} shard(s) completed", file=sys.stderr)
    return 0


def _cmd_store_log(args) -> int:
    """Print a store's audit trail: one line per completed sweep."""
    if args.limit is not None and args.limit <= 0:
        print(
            f"error: --limit must be a positive record count, got "
            f"{args.limit}",
            file=sys.stderr,
        )
        return 2
    store = _open_store(args.store)
    if store is None:
        return 2
    with store:
        runs = store.runs(args.limit)
    for run in runs or []:
        if args.json:
            print(json.dumps(run.to_dict(), sort_keys=True))
        else:
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S", time.localtime(run.timestamp)
            )
            status = "OK" if run.ok else f"{run.failure_count} FAILURES"
            print(
                f"{stamp}  {run.circuit} [{run.circuit_hash}]  B={run.width} "
                f"backend={run.backend} executor={run.executor} "
                f"mode={run.mode} shards={run.shards} "
                f"checked={run.checked} digest={run.result_digest}  "
                f"{status}  ({run.host}:{run.pid})"
            )
    if not runs and not args.json:
        print("no audited runs on file", file=sys.stderr)
    return 0


def _cmd_status(args) -> int:
    from .service.client import ServiceError

    try:
        with _client(args) as client:
            status = client.status(args.job_id)
    except (ServiceError, ConnectionError, OSError) as exc:
        print(
            f"error: service at {args.host}:{args.port} -- {exc}",
            file=sys.stderr,
        )
        return 2
    status.pop("ok", None)
    print(json.dumps(status, indent=2))
    return 0


def _cmd_cancel(args) -> int:
    from .service.client import ServiceError

    try:
        with _client(args) as client:
            cancelled = client.cancel(args.job_id)
    except (ServiceError, ConnectionError, OSError) as exc:
        print(
            f"error: service at {args.host}:{args.port} -- {exc}",
            file=sys.stderr,
        )
        return 2
    print(f"job {args.job_id}: " + ("cancelling" if cancelled else
                                    "already finished"))
    return 0 if cancelled else 1


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _add_connection_args(parser) -> None:
    from .service import DEFAULT_HOST, DEFAULT_PORT

    parser.add_argument(
        "--host", default=DEFAULT_HOST, help="service host (default %(default)s)"
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="service port (default %(default)s)",
    )


def _add_verify_args(parser) -> None:
    parser.add_argument("--width", "-B", type=int, default=4)
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for the sharded sweep (0 = all cores)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        help="pair-lanes per shard (default: as many whole g-rows as "
        "fit the backend's lane budget)",
    )
    parser.add_argument(
        "--executor",
        default=None,
        help="execution strategy (serial, process, distributed; "
        "default: process when --jobs > 1 and the plan has more than "
        "one range, else serial)",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        help="plane backend: auto (default -- native when its C kernel "
        "builds, else bigint), bigint, or native",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="durable shard journal (JSON lines): created if missing, "
        "resumed if present -- journaled shards are never re-run",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="resume strictly from an existing journal (error if PATH "
        "does not exist); implies --checkpoint PATH",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="unified result store: memory[:N], journal:PATH, "
        "sqlite:PATH, or a bare path (suffix picks the backend). "
        "Results are keyed per output-cone region, so re-verifying "
        "an edited circuit only runs the affected cones; every "
        "completed sweep appends an audit record (see `store log`)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable result (counts, failures, truncation, timing)",
    )


def _add_sort_args(parser) -> None:
    from .networks.simulate import ENGINES

    parser.add_argument("values", nargs="+")
    parser.add_argument(
        "--engine",
        default="fsm",
        choices=sorted(ENGINES),
        help="2-sort engine (default: fsm; 'compiled' is the batch path)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the sorted words as JSON"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal metastability-containing sorting networks "
        "(DATE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table7", help="regenerate Table 7").set_defaults(fn=_cmd_table7)
    sub.add_parser("table8", help="regenerate Table 8").set_defaults(fn=_cmd_table8)

    p = sub.add_parser("verify", help="exhaustively verify 2-sort(B)")
    _add_verify_args(p)
    p.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="with --executor distributed: run the shard coordinator "
        "here (bare PORT binds all interfaces; 0 = ephemeral) and wait "
        "for workers to connect",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("export", help="emit structural Verilog for 2-sort(B)")
    p.add_argument("--width", "-B", type=int, default=8)
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser(
        "backends", help="list plane backends with availability and variant"
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_backends)

    p = sub.add_parser("sort", help="sort valid strings (e.g. 0M10 0110 0010)")
    _add_sort_args(p)
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser(
        "serve", help="run the async job service (JSON lines over TCP)"
    )
    _add_connection_args(p)
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=2,
        help="max concurrently running jobs (default %(default)s; "
        "0 = one per core)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=8192,
        help="shard-cache entries (0 disables; default %(default)s)",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="[HOST:]PORT",
        help="also run a shard coordinator here (bare PORT binds all "
        "interfaces), so submitted verify jobs may use executor "
        "\"distributed\"",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="server-wide durable result store (a spec as for verify "
        "--store): jobs that name no store of their own keep "
        "whole-circuit shard results here, so they survive restarts and "
        "warm the server's later jobs. It shares nothing with verify "
        "--store, which keys results per output cone; a job submitted "
        "with --store SPEC uses that store's cone keys, as the CLI does",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "worker", help="attach a shard worker to a running coordinator"
    )
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the coordinator (verify --listen / serve --listen)",
    )
    p.add_argument("--name", default=None, help="worker name in coordinator stats")
    p.add_argument(
        "--retry-max",
        type=int,
        default=10,
        metavar="N",
        help="consecutive failed connects tolerated before giving up "
        "(default %(default)s; 0 = fail fast) -- lets workers start "
        "before the coordinator and survive its restarts",
    )
    p.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="first reconnect delay, finite and > 0; later attempts "
        "back off exponentially with jitter, capped at 15s "
        "(default %(default)s)",
    )
    p.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep after each completed shard (load shaping / testing; "
        "finite and >= 0)",
    )
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "submit", help="submit a job to a running service and wait for it"
    )
    kind_sub = p.add_subparsers(dest="request_kind", required=True)
    kv = kind_sub.add_parser("verify", help="submit a verification job")
    _add_verify_args(kv)
    ks = kind_sub.add_parser("sort", help="submit a sorting job")
    _add_sort_args(ks)
    for kp in (kv, ks):
        _add_connection_args(kp)
        kp.add_argument(
            "--no-wait",
            action="store_true",
            help="print the job id and exit instead of streaming",
        )
        kp.add_argument(
            "--quiet",
            action="store_true",
            help="suppress the progress stream on stderr",
        )
        kp.set_defaults(fn=_cmd_submit)

    p = sub.add_parser("store", help="inspect a verification result store")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    sl = store_sub.add_parser(
        "log", help="print the audit trail of completed sweeps"
    )
    sl.add_argument(
        "--store",
        required=True,
        metavar="SPEC",
        help="store spec (as for verify --store)",
    )
    sl.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="newest N records only (default: all, oldest first)",
    )
    sl.add_argument(
        "--json",
        action="store_true",
        help="one JSON object per audit record",
    )
    sl.set_defaults(fn=_cmd_store_log)

    p = sub.add_parser("status", help="show one job's state and progress")
    p.add_argument("job_id")
    _add_connection_args(p)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("cancel", help="request cooperative job cancellation")
    p.add_argument("job_id")
    _add_connection_args(p)
    p.set_defaults(fn=_cmd_cancel)

    args = parser.parse_args(argv)
    if hasattr(args, "port") and not _is_port(args.port):
        # Every command with a --port, before any bind or dial.
        print(
            f"error: --port expects a port 0-65535, got {args.port}",
            file=sys.stderr,
        )
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
