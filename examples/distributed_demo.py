#!/usr/bin/env python
"""Tour of the distributed shard executor -- all on localhost.

Scene 1 (in-process): starts a :class:`ShardCoordinator` on an
ephemeral port, attaches two in-process :class:`ShardWorker` agents
(stand-ins for agents on other hosts -- the wire protocol is
identical), and drives one exhaustive verification sweep through the
``"distributed"`` executor:

1. the sweep streams per-shard progress exactly like the local
   executors (same ``on_shard`` seam the service layer uses);
2. one extra "doomed" client leases a shard range and dies mid-sweep --
   the coordinator re-queues its leases and the merged result is still
   byte-identical to a serial run;
3. coordinator stats show who did what (leases, re-queues, duplicates).

Scene 2 (subprocesses): fault tolerance end to end.  A worker process
is started *first* (initial-connect retries), then a coordinator run
with ``--checkpoint``; mid-sweep the coordinator is SIGKILLed.  The
worker's supervisor backs off and redials while a second coordinator
run ``--resume``\\ s the journal on the same port: only the shards not
already on file are executed, and the final report is byte-identical
to the serial reference.

Across real machines the only difference is addressing (a worker runs
one shard at a time, so a host contributes N cores by running N
workers)::

    host-a$ python -m repro verify --width 10 --executor distributed --listen 7422
    host-b$ for i in $(seq 8); do python -m repro worker --connect host-a:7422 & done

Run me::

    PYTHONPATH=src python examples/distributed_demo.py
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.two_sort import build_two_sort  # noqa: E402
from repro.distributed import (  # noqa: E402
    LineChannel,
    ShardCoordinator,
    ShardWorker,
    use_coordinator,
)
from repro.verify.parallel import verify_two_sort_sharded  # noqa: E402

WIDTH = 7
SHARD_SIZE = 255 * 16  # 16 g-rows per shard -> 16 shards at B=7


def scene_one() -> None:
    print("=== scene 1: leases, a dying client, byte-identical merge ===")
    circuit = build_two_sort(WIDTH)
    serial = verify_two_sort_sharded(
        circuit, WIDTH, jobs=1, executor="serial", shard_size=SHARD_SIZE
    )
    print(f"serial reference: {serial.summary()}")

    coordinator = ShardCoordinator(host="127.0.0.1", port=0).start()
    print(f"coordinator listening on 127.0.0.1:{coordinator.port}")

    # Submit the sweep (it blocks until workers deliver every shard).
    def on_shard(done, total, result):
        print(f"  shard {done}/{total}: {result.checked} pairs", flush=True)

    out = {}

    def sweep():
        with use_coordinator(coordinator):
            out["result"] = verify_two_sort_sharded(
                circuit,
                WIDTH,
                executor="distributed",
                shard_size=SHARD_SIZE,
                on_shard=on_shard,
            )

    sweep_thread = threading.Thread(target=sweep, daemon=True)
    sweep_thread.start()

    # A client that takes a lease and dies without returning it: the
    # coordinator notices the dropped connection and re-queues.  One
    # "next" now grants a contiguous *range* of shards (``items``);
    # every shard in the range has its own lease, so only the
    # unreported tail is re-queued when the holder dies.
    doomed = LineChannel.connect("127.0.0.1", coordinator.port)
    doomed.request({"op": "hello", "name": "doomed"})
    leased = doomed.request({"op": "next"})
    while leased.get("kind") != "task":  # queue may not be filled yet
        time.sleep(0.05)
        leased = doomed.request({"op": "next"})
    indices = [index for index, _task in leased["items"]]
    print(f"doomed worker leased shard range {indices} ... and dies")
    doomed.close()

    # Now the real workers (on other hosts they'd `repro worker --connect`).
    stop = threading.Event()
    agents = [
        ShardWorker("127.0.0.1", coordinator.port, name=f"agent-{i}")
        for i in range(2)
    ]
    threads = [
        threading.Thread(target=a.run, args=(stop,), daemon=True)
        for a in agents
    ]
    for t in threads:
        t.start()
    print(f"{len(agents)} workers attached")

    sweep_thread.join(timeout=120)
    distributed = out["result"]
    print(f"distributed run : {distributed.summary()}")
    identical = distributed.to_json() == serial.to_json()
    print(f"byte-identical to serial: {identical}")

    stats = coordinator.stats()
    stop.set()
    coordinator.close()
    for t in threads:
        t.join(timeout=10)
    print("coordinator stats:")
    print(json.dumps({k: stats[k] for k in ("requeued_total", "workers")},
                     indent=2))
    print(f"shards per agent: { {a.name: a.completed for a in agents} }")
    if not identical or stats["requeued_total"] < 1:
        raise SystemExit(1)


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _journaled(journal: Path) -> int:
    if not journal.exists():
        return 0
    count = 0
    for line in journal.read_bytes().splitlines():
        try:
            if json.loads(line).get("type") == "result":
                count += 1
        except ValueError:
            pass  # torn tail -- exactly what the journal tolerates
    return count


def scene_two() -> None:
    print()
    print("=== scene 2: SIGKILL the coordinator, resume the checkpoint ===")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "repro"]
    verify_args = [
        "verify", "--width", str(WIDTH), "--shard-size", str(SHARD_SIZE),
        "--executor", "distributed",
    ]
    serial = subprocess.run(
        cli + ["verify", "--width", str(WIDTH), "--shard-size",
               str(SHARD_SIZE)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    print(f"serial reference: {serial.strip()}")

    port = _free_port()
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "sweep.jsonl"
        # The worker starts FIRST: its initial-connect retries ride out
        # the coordinator not being up yet.
        worker = subprocess.Popen(
            cli + ["worker", "--connect", f"127.0.0.1:{port}",
                   "--throttle", "0.25", "--retry-max", "200",
                   "--backoff-base", "0.1"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            run_a = subprocess.Popen(
                cli + verify_args + ["--listen", f"127.0.0.1:{port}",
                                     "--checkpoint", str(journal)],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            deadline = time.monotonic() + 120
            while _journaled(journal) < 4 and time.monotonic() < deadline:
                time.sleep(0.1)
            on_file = _journaled(journal)
            os.kill(run_a.pid, signal.SIGKILL)
            run_a.wait(timeout=30)
            print(f"coordinator SIGKILLed with {on_file} shard(s) journaled;"
                  " worker is now backing off and redialing")

            run_b = subprocess.run(
                cli + verify_args + ["--listen", f"127.0.0.1:{port}",
                                     "--resume", str(journal)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            print(f"resume stderr   : {run_b.stderr.strip()}")
            print(f"resumed run     : {run_b.stdout.strip()}")
            identical = run_b.stdout == serial
            print(f"byte-identical to serial: {identical}")
            final = _journaled(journal)
            print(f"journal now holds {final} shard results "
                  f"({on_file} survived the crash, {final - on_file} ran "
                  "after resume)")
            # The resumed coordinator said goodbye on shutdown, so the
            # worker exits on its own.
            worker.wait(timeout=30)
            if not identical or run_b.returncode != 0:
                raise SystemExit(1)
        finally:
            if worker.poll() is None:
                worker.kill()


def main() -> None:
    scene_one()
    scene_two()


if __name__ == "__main__":
    main()
