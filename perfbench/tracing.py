"""Span tracing for the traced benchmark run, installed from outside ``src/``.

The tracer wraps public entry points of each ``repro`` layer and records
one span per call: ``(id, name, start, end, parent, op, attrs)``.
``parent`` is the enclosing span on the same thread (0 at top level) and
``op`` is the operation id the benchmark set before the call, so every
span of one request shares it.  Spans stay in memory; :meth:`Tracer.dump`
writes them as JSON lines when the run ends.

Two kinds of hook are installed:

* methods are wrapped on the class that defines them (backends,
  ``Circuit``, ``CompiledCircuit``, ``TritVec``, stores, the service
  client), so every instance and subclass sees the wrapper;
* module-level functions are re-bound in *every* loaded ``repro`` module
  that holds them, because ``from x import f`` copies the name at import
  time and wrapping only ``x.f`` would miss those callers.

Self time is a span's duration minus the time its direct children cover.
A count (``*_calls``, ``gets`` ...) counts only outermost spans of a
name, so a proxy that delegates to an inner object of the same layer
(the native backend proxy, the stacked store) is counted once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Annotate = Optional[Callable[[tuple, dict, Any], Dict[str, Any]]]

#: Modules imported before hooks are installed, so that every
#: ``from ... import`` binding already exists when functions are re-bound.
_MODULES = (
    "repro",
    "repro.backends",
    "repro.backends.base",
    "repro.backends.native",
    "repro.backends._kernel",
    "repro.circuits.compiled",
    "repro.circuits.netlist",
    "repro.core.two_sort",
    "repro.graycode.valid",
    "repro.networks.simulate",
    "repro.verify.exhaustive",
    "repro.verify.parallel",
    "repro.store",
    "repro.store.base",
    "repro.service",
    "repro.service.client",
    "repro.service.jobs",
    "repro.distributed.wire",
)


class Tracer:
    """In-memory span recorder shared by all threads of one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.on = True
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, name: str, fn: Callable, annotate: Annotate = None,
        materialize: bool = False,
    ) -> Callable:
        """A wrapper around ``fn`` that records a span named ``name``.

        ``annotate(args, kwargs, result)`` adds attributes to the span;
        ``materialize`` drains a returned generator inside the span so
        its work is timed (the caller gets an iterator over the items).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            attrs = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, parent, tracer.op, attrs)
                )

        return wrapper

    # ------------------------------------------------------------------
    def patch_function(
        self, module: str, attr: str, name: str, annotate: Annotate = None
    ) -> None:
        """Re-bind ``module.attr`` in every loaded ``repro`` module."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(name, original, annotate)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def patch_methods(
        self, base: type, methods: Iterable[str], name: str,
        annotate: Annotate = None, materialize: bool = False,
    ) -> None:
        """Wrap ``methods`` wherever ``base`` or a subclass defines them.

        Call once per process: a second call would wrap the wrappers.
        """
        for cls in _class_tree(base):
            for meth in methods:
                raw = cls.__dict__.get(meth)
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self.wrap(name, raw.__func__, annotate, materialize)
                    ))
                elif callable(raw):
                    setattr(cls, meth, self.wrap(name, raw, annotate, materialize))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")


def _class_tree(base: type) -> List[type]:
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> Tracer:
    """Import every traced layer and wrap its entry points."""
    for mod in _MODULES:
        importlib.import_module(mod)
    from repro.backends.base import PlaneBackend
    from repro.circuits.compiled import CompiledCircuit, TritVec
    from repro.circuits.netlist import Circuit
    from repro.service.client import ServiceClient
    from repro.service.jobs import SortRequest
    from repro.store.base import ResultStore
    from repro.verify.exhaustive import VerificationResult

    fn = tracer.patch_function
    fn("repro.core.two_sort", "build_two_sort", "core.build")
    fn("repro.graycode.valid", "all_valid_strings", "graycode.valid_strings")
    fn("repro.backends._kernel", "load_kernel", "backends.kernel_build")
    fn("repro.circuits.compiled", "compile_circuit", "circuits.compile")
    fn("repro.verify.exhaustive", "pair_shards", "verify.pair_shards",
       lambda a, k, r: {"n": len(r)})
    fn("repro.verify.exhaustive", "verify_two_sort_shard", "verify.shard",
       lambda a, k, r: {"failures": r.failure_count})
    fn("repro.verify.exhaustive", "verify_two_sort_region_shard",
       "verify.region_shard")
    fn("repro.verify.parallel", "verify_two_sort_sharded", "verify.sweep",
       lambda a, k, r: {
           "region": k.get("store") is not None or bool(k.get("regions")),
           "kept": len(r.failures),
       })
    fn("repro.networks.simulate", "sort_words_batch", "networks.sort_batch")
    fn("repro.distributed.wire", "encode_line", "service.wire",
       lambda a, k, r: {"bytes": len(r), "request": "op" in a[0]})

    meth = tracer.patch_methods
    meth(PlaneBackend, ("expand_bits", "from_pattern", "from_prefix_runs"),
         "backends.pack")
    meth(PlaneBackend, ("run_ops",), "backends.run")
    meth(PlaneBackend, ("run_ops_select_diff",), "backends.run",
         lambda a, k, r: {"lanes": k.get("lanes", a[-1] if a else 0)})
    meth(PlaneBackend, ("iter_set_lanes",), "backends.iter_set_lanes",
         materialize=True)
    meth(Circuit, ("content_hash",), "circuits.content_hash")
    meth(Circuit, ("region_hashes",), "circuits.region_hashes")
    meth(Circuit, ("extract_cone",), "circuits.extract_cone")
    meth(TritVec, ("from_trits",), "circuits.tritvec_pack")
    meth(TritVec, ("to_trits",), "circuits.tritvec_unpack")
    meth(CompiledCircuit, ("run_tritvecs",), "circuits.run_tritvecs")
    meth(VerificationResult, ("merge",), "verify.merge")
    meth(ResultStore, ("get",), "store.get",
         lambda a, k, r: {"hit": r is not None})
    meth(ResultStore, ("put",), "store.put")
    meth(ResultStore, ("claim",), "store.claim")
    meth(ResultStore, ("record_run",), "store.record_run")
    meth(ServiceClient, ("submit",), "service.submit")
    meth(ServiceClient, ("wait_for",), "service.wait")
    meth(SortRequest, ("run",), "service.job")
    return tracer


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def load_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def as_dicts(spans: List[Tuple]) -> List[Dict[str, Any]]:
    keys = ("id", "name", "start", "end", "parent", "op", "attrs")
    return [dict(zip(keys, s)) for s in spans]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans of one thread nest strictly, so children of one parent never
    overlap and their durations can simply be summed.
    """
    child_time: Dict[int, float] = {}
    for s in spans:
        if s["parent"]:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    return {
        s["id"]: (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
        for s in spans
    }


def check_nesting(spans: List[Dict[str, Any]]) -> List[str]:
    """Problems with span structure: orphans, escapes, negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} ends before it starts")
        parent = by_id.get(s["parent"]) if s["parent"] else None
        if s["parent"] and parent is None:
            problems.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif parent is not None and not (
            parent["start"] <= s["start"] and s["end"] <= parent["end"]
        ):
            problems.append(f"span {s['id']} escapes parent {parent['id']}")
    for sid, st in self_times(spans).items():
        if st < -1e-9:
            problems.append(f"span {sid} has negative self time {st}")
    return problems


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Fold spans into the per-layer metric set (see ``run.PER_LAYER``)."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    total: Dict[str, float] = {}
    outer: Dict[str, List[Dict[str, Any]]] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + selfs[s["id"]]
        parent = by_id.get(s["parent"])
        if parent is None or parent["name"] != s["name"]:
            outer.setdefault(s["name"], []).append(s)

    def t(name: str) -> float:
        return total.get(name, 0.0)

    def n(name: str) -> int:
        return len(outer.get(name, ()))

    def attr_sum(name: str, key: str, where=None) -> float:
        return sum(
            (s["attrs"] or {}).get(key, 0) for s in outer.get(name, ())
            if where is None or where(s)
        )

    failing = [s for s in outer.get("verify.shard", ())
               if (s["attrs"] or {}).get("failures", 0) > 0]
    lanes_decoded = sum(s["attrs"]["failures"] for s in failing)
    kept = attr_sum("verify.sweep", "kept")

    # Ranges of region-mode sweeps, and how many of them were re-run at
    # circuit granularity (a verify.shard span inside such a sweep).
    children: Dict[int, List[Dict[str, Any]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def descendants(sid: int):
        todo = list(children.get(sid, ()))
        while todo:
            c = todo.pop()
            yield c
            todo.extend(children.get(c["id"], ()))

    ranges = reverified = 0
    for sweep in outer.get("verify.sweep", ()):
        if not (sweep["attrs"] or {}).get("region"):
            continue
        for c in descendants(sweep["id"]):
            if c["name"] == "verify.pair_shards":
                ranges += c["attrs"]["n"]
            elif c["name"] == "verify.shard":
                reverified += 1

    gets = n("store.get")
    hits = attr_sum("store.get", "hit")
    wire = outer.get("service.wire", ())
    batches = outer.get("networks.sort_batch", ())
    inner_batches = sum(
        1 for s in spans if s["name"] == "networks.sort_batch"
        and by_id.get(s["parent"], {}).get("name") == "networks.sort_batch"
    )
    return {
        "core.build_s": t("core.build"),
        "graycode.valid_strings_s": t("graycode.valid_strings"),
        "backends.kernel_build_s": t("backends.kernel_build"),
        "backends.pack_s": t("backends.pack"),
        "backends.pack_calls": n("backends.pack"),
        "backends.run_s": t("backends.run"),
        "backends.run_calls": n("backends.run"),
        "backends.lanes": attr_sum("backends.run", "lanes"),
        "backends.iter_set_lanes_s": t("backends.iter_set_lanes"),
        "circuits.compile_s": t("circuits.compile"),
        "circuits.compile_calls": n("circuits.compile"),
        "circuits.content_hash_s": t("circuits.content_hash"),
        "circuits.region_hashes_s": t("circuits.region_hashes"),
        "circuits.extract_cone_s": t("circuits.extract_cone"),
        "circuits.tritvec_pack_s": t("circuits.tritvec_pack"),
        "circuits.tritvec_unpack_s": t("circuits.tritvec_unpack"),
        "circuits.run_tritvecs_s": t("circuits.run_tritvecs"),
        "verify.shards": n("verify.shard") + n("verify.region_shard"),
        "verify.shard_s": t("verify.shard"),
        "verify.region_shard_s": t("verify.region_shard"),
        "verify.decode_s": sum(selfs[s["id"]] for s in failing),
        "verify.lanes_decoded": lanes_decoded,
        "verify.decode_useful_ratio": kept / lanes_decoded if lanes_decoded else 0.0,
        "verify.reverified_ratio": reverified / ranges if ranges else 0.0,
        "verify.merge_s": t("verify.merge"),
        "store.gets": gets,
        "store.get_s": t("store.get"),
        "store.hit_ratio": hits / gets if gets else 0.0,
        "store.puts": n("store.put"),
        "store.put_s": t("store.put"),
        "store.claim_s": t("store.claim"),
        "store.record_run_s": t("store.record_run"),
        "service.submit_s": t("service.submit"),
        "service.wait_s": t("service.wait"),
        "service.job_s": t("service.job"),
        "service.request_bytes": sum(
            s["attrs"]["bytes"] for s in wire if s["attrs"]["request"]),
        "service.response_bytes": sum(
            s["attrs"]["bytes"] for s in wire if not s["attrs"]["request"]),
        "networks.sort_batch_s": t("networks.sort_batch"),
        "networks.shards_per_request": (
            inner_batches / len(batches) if batches else 0.0),
        "trace.spans": len(spans),
    }
