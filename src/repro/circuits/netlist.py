"""Flat gate-level netlists with named nets.

A :class:`Circuit` is a DAG of gate instances over string-named nets,
with ordered primary inputs and outputs.  Generators (the 2-sort
builders, the PPC template, sorting-network composition) create fresh
nets through a :class:`~repro.circuits.wire.NameScope` and may
*instantiate* one circuit inside another, which copies gates under a
renamed hierarchy -- the Python analogue of flattening a structural VHDL
design before hand-mapping (paper Section 6).
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..ternary.trit import Trit
from .gates import ALL_GATE_KINDS, CONST0, CONST1, GateKind
from .wire import NameScope, NetId


def _field(text: str) -> bytes:
    """One length-prefixed digest field (4-byte little-endian length)."""
    data = text.encode()
    return len(data).to_bytes(4, "little") + data


@dataclass(frozen=True)
class Gate:
    """One gate instance: ``output = kind(*inputs)``."""

    kind: GateKind
    inputs: Tuple[NetId, ...]
    output: NetId

    def __post_init__(self):
        if len(self.inputs) != self.kind.arity:
            raise ValueError(
                f"{self.kind.name} expects {self.kind.arity} inputs, "
                f"got {len(self.inputs)}"
            )


class CircuitError(ValueError):
    """Structural problem in a netlist (multiple drivers, cycles, ...)."""


class Circuit:
    """A combinational netlist.

    Nets are created implicitly by driving or reading them; every net
    must have exactly one driver (a gate, a primary input, or a
    constant).  Primary outputs are an ordered list of nets.
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.scope = NameScope()
        self._gates: List[Gate] = []
        self._driver: Dict[NetId, Gate] = {}
        self._inputs: List[NetId] = []
        self._input_set: set = set()
        self._outputs: List[NetId] = []
        self._const_nets: Dict[NetId, Trit] = {}
        self._topo_cache: Optional[List[Gate]] = None
        self._input_frozen: Optional[frozenset] = None
        self._version = 0
        self._hash_cache: Optional[Tuple[int, str]] = None

    def __getstate__(self):
        # Compiled programs (repro.circuits.compiled attaches them as
        # `_compiled_cache`) are per-process artifacts: pool workers
        # compile on first use, and shipping them would drag the plane
        # backend across the pickle boundary.  The encoded gate records
        # and cone masks are cheap to rebuild and stay behind too.
        state = self.__dict__.copy()
        for name in ("_compiled_cache", "_gate_fields_cache", "_cone_cache"):
            state.pop(name, None)
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: Optional[NetId] = None, base: str = "in") -> NetId:
        """Declare a primary input; returns its net id."""
        if net is None:
            net = self.scope.net(base)
        if net in self._input_set:
            raise CircuitError(f"duplicate primary input {net!r}")
        if net in self._driver or net in self._const_nets:
            raise CircuitError(f"net {net!r} already driven")
        self._inputs.append(net)
        self._input_set.add(net)
        self._topo_cache = None
        self._input_frozen = None
        self._version += 1
        return net

    def add_inputs(self, count: int, base: str = "in") -> List[NetId]:
        """Declare ``count`` primary inputs with a shared base name."""
        return [self.add_input(base=base) for _ in range(count)]

    def add_output(self, net: NetId) -> NetId:
        """Mark an existing net as a primary output (order preserved)."""
        self._outputs.append(net)
        self._version += 1
        return net

    def add_outputs(self, nets: Iterable[NetId]) -> List[NetId]:
        return [self.add_output(n) for n in nets]

    def const(self, value: Trit) -> NetId:
        """A net tied to a constant 0 or 1 (shared per circuit)."""
        if value is Trit.META:
            raise CircuitError("cannot tie a net to constant M")
        kind = CONST1 if value is Trit.ONE else CONST0
        for net, v in self._const_nets.items():
            if v is value:
                return net
        net = self.scope.net(f"const{value.to_int()}")
        self._const_nets[net] = value
        self._topo_cache = None
        self._version += 1
        return net

    def add_gate(
        self,
        kind: GateKind,
        inputs: Sequence[NetId],
        output: Optional[NetId] = None,
    ) -> NetId:
        """Instantiate a gate; returns (and possibly creates) its output net."""
        if output is None:
            output = self.scope.net(kind.name.lower())
        if output in self._driver or output in self._input_set or output in self._const_nets:
            raise CircuitError(f"net {output!r} already driven")
        gate = Gate(kind, tuple(inputs), output)
        self._gates.append(gate)
        self._driver[output] = gate
        self._topo_cache = None
        self._version += 1
        return output

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[NetId, ...]:
        return tuple(self._inputs)

    @property
    def input_set(self) -> frozenset:
        """The primary inputs as a set (membership tests in hot loops).

        Cached; rebuilt only after :meth:`add_input`.
        """
        if self._input_frozen is None:
            self._input_frozen = frozenset(self._input_set)
        return self._input_frozen

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every structural change.

        Consumers that cache derived artefacts (e.g. the bit-parallel
        compiler in :mod:`repro.circuits.compiled`) key their caches on
        this value so a mutated netlist is never served stale results.
        """
        return self._version

    def content_hash(self) -> str:
        """Stable digest of the netlist *structure* (hex, 16 chars).

        Covers exactly what determines behaviour: input order, output
        order, constant ties, and every gate as ``kind(inputs)->output``
        in insertion order.  Unlike :attr:`version` -- an in-process
        mutation counter that two different circuits can coincidentally
        share -- the content hash identifies the circuit itself, so it
        is safe as a cache key across processes and hosts: a rebuilt
        identical netlist hashes the same, any structural edit hashes
        differently, and a distributed worker can check that the
        circuit it unpickled is the one the coordinator is sweeping.
        Cached per :attr:`version`, so repeated calls on an unmutated
        circuit are O(1).
        """
        cached = getattr(self, "_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        head, consts, gates, outs = self._digest_fields()
        blob = b"".join(
            [head, *(c for _net, c in consts), *gates, *outs]
        )
        digest = hashlib.sha256(blob).hexdigest()[:16]
        self._hash_cache = (self._version, digest)
        return digest

    def _digest_fields(
        self,
    ) -> Tuple[bytes, List[Tuple[NetId, bytes]], List[bytes], List[bytes]]:
        """The records both digests are built from, as bytes.

        Every record is a tag byte followed by length-prefixed fields,
        so no delimiter a net name could contain can make two different
        structures hash the same: ``i`` per primary input (all of them
        joined into one ``head``), ``c`` per constant (sorted by net,
        paired with its net), ``g`` + ``>`` per gate (insertion order,
        :meth:`_gate_fields`) and ``o`` per primary output.  SHA-256
        over the concatenation of a selection equals feeding the same
        records one field at a time, so :meth:`content_hash` and
        :meth:`region_hashes` share them.
        """
        head = b"".join([b"i" + _field(net) for net in self._inputs])
        consts = [
            (net, b"c" + _field(net) + _field(value.to_char()))
            for net, value in sorted(self._const_nets.items())
        ]
        outs = [b"o" + _field(net) for net in self._outputs]
        return head, consts, self._gate_fields(), outs

    def _gate_fields(self) -> List[bytes]:
        """Each gate's ``g`` + ``>`` digest record, in insertion order.

        Gates are only ever appended, so the list only grows: it encodes
        just the gates added since the last call, and :meth:`copy`
        hands it on, since a copy's gates are the same gates.  An edit
        of a copy then encodes only the gates it added.
        """
        blobs = getattr(self, "_gate_fields_cache", None)
        if blobs is None:
            blobs = self._gate_fields_cache = []
        for g in self._gates[len(blobs):]:
            blobs.append(b"".join([
                b"g", _field(g.kind.name), _field(str(len(g.inputs))),
                *map(_field, g.inputs), b">", _field(g.output),
            ]))
        return blobs

    # ------------------------------------------------------------------
    # Per-region (output-cone) structure
    # ------------------------------------------------------------------
    def _cone_masks(self) -> Dict[NetId, int]:
        """Net -> bitmask of the primary outputs whose fan-in cone holds it.

        Bit ``o`` is set on every net reachable backward from output
        ``o``'s root net.  One reverse pass over the gates propagates
        each gate's mask onto its inputs; that is exact when gates were
        added after their fan-in (every generator does this), and a
        mask that reaches an already-visited gate triggers another pass
        until nothing changes, so any netlist -- even a cyclic one --
        gets exact masks.  Cached per :attr:`version`.
        """
        cached = getattr(self, "_cone_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        masks: Dict[NetId, int] = {}
        for o, net in enumerate(self._outputs):
            masks[net] = masks.get(net, 0) | (1 << o)
        stale = True
        while stale:
            stale = False
            visited: set = set()
            for gate in reversed(self._gates):
                visited.add(gate.output)
                m = masks.get(gate.output)
                if not m:
                    continue
                for net in gate.inputs:
                    old = masks.get(net, 0)
                    if old | m != old:
                        masks[net] = old | m
                        # Its driver already ran this pass, so the new
                        # bits have not reached that driver's inputs.
                        stale = stale or net in visited
        self._cone_cache = (self._version, masks)
        return masks

    def region_hashes(self) -> Tuple[str, ...]:
        """One structural digest per primary output's fan-in cone.

        A region is everything that determines one output: the primary
        inputs (all of them, in order -- lane semantics depend on input
        positions), the constants and gates reachable backward from the
        output, and the output's root net.  Hashed with the same
        length-prefixed records as :meth:`content_hash`, so a structural
        edit changes exactly the digests of the outputs whose cones
        contain the edited gate.  That is what makes per-region result
        keys incremental: re-verification after an edit only misses on
        the affected cones.  Cached per :attr:`version`.

        After an edit -- of this circuit since its last digests, or of a
        :meth:`copy` since the digests it was handed -- only the cones
        the edit touched are digested again.  Gates are frozen and only
        ever appended, and a net's driver never changes, so a cone whose
        root is the same net and that holds no gate added since then
        reaches exactly the members it reached before: its digest is
        carried over.  A cone is digested again when its root changed
        (:meth:`replace_output`) or when a gate added since then is in
        it (its mask from the one :meth:`_cone_masks` pass, which also
        catches a new gate driving a net a cone gate already read).
        New inputs, constants or outputs change what every digest
        covers, so they take the full computation.
        """
        cached = getattr(self, "_region_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        head, consts, gates, outs = self._digest_fields()
        masks = self._cone_masks()
        shape = (len(self._inputs), len(self._const_nets), len(outs))
        digests: List[Optional[str]] = [None] * len(outs)
        if cached is not None and cached[3] == shape:
            _version, old, roots, _shape, n_gates = cached
            touched = 0
            for g in self._gates[n_gates:]:
                touched |= masks.get(g.output, 0)
            for o, (net, root) in enumerate(zip(self._outputs, roots)):
                if net == root and not touched >> o & 1:
                    digests[o] = old[o]
        if None in digests:
            const_bits = [(c, masks.get(net, 0)) for net, c in consts]
            gate_bits = [
                (blob, masks.get(g.output, 0))
                for g, blob in zip(self._gates, gates)
            ]
        for o, tail in enumerate(outs):
            if digests[o] is not None:
                continue
            bit = 1 << o
            blob = b"".join([
                head,
                *(c for c, m in const_bits if m & bit),
                *(g for g, m in gate_bits if m & bit),
                tail,
            ])
            digests[o] = hashlib.sha256(blob).hexdigest()[:16]
        result = tuple(digests)
        self._region_hash_cache = (
            self._version, result, tuple(self._outputs), shape,
            len(self._gates),
        )
        return result

    def extract_cone(self, output_index: int) -> "Circuit":
        """A standalone circuit computing just one primary output.

        The one-output case of :meth:`extract_cones`: all primary
        inputs in their original order, the cone's constants and gates
        under their original net names, and the requested output.
        """
        return self.extract_cones([output_index])

    def extract_cones(self, output_indices: Sequence[int]) -> "Circuit":
        """A standalone circuit computing the given primary outputs.

        The extracted circuit keeps *all* primary inputs in their
        original order (so input-lane encodings line up with the parent
        sweep), the union of the outputs' fan-in cones -- constants and
        gates under their original net names, gates in insertion order
        -- and exposes the requested outputs in the order given.  The
        region sweep runs one such program per g-row range over the
        cones it still has to check.  The gates are this circuit's own
        frozen ``Gate`` objects, picked by the cached cone masks, not
        re-added one by one (:meth:`_subcircuit`).
        """
        union = 0
        for index in output_indices:
            if not 0 <= index < len(self._outputs):
                raise CircuitError(
                    f"output index {index} out of range "
                    f"(circuit has {len(self._outputs)} outputs)"
                )
            union |= 1 << index
        masks = self._cone_masks()
        return self._subcircuit(
            f"{self.name}#o{','.join(map(str, output_indices))}",
            {
                net: value for net, value in self._const_nets.items()
                if masks.get(net, 0) & union
            },
            [g for g in self._gates if masks.get(g.output, 0) & union],
            [self._outputs[index] for index in output_indices],
        )

    def _subcircuit(
        self,
        name: str,
        consts: Dict[NetId, Trit],
        gates: List[Gate],
        outputs: List[NetId],
    ) -> "Circuit":
        """A new circuit over all of this one's inputs and the given
        constants, gates (in this circuit's order) and outputs.

        It holds this circuit's own ``Gate`` objects: they are frozen,
        and a subset of a well-formed netlist's gates, inputs and
        constants has one driver per net, so nothing is re-checked or
        rebuilt per gate.  Constants keep their original names, which
        :meth:`const` would not.  Its :attr:`version` is what building
        it with :meth:`add_input`, :meth:`add_gate` and
        :meth:`add_output` would have counted.
        """
        sub = Circuit(name=name)
        sub._inputs = list(self._inputs)
        sub._input_set = set(self._input_set)
        sub._const_nets = consts
        sub._gates = gates
        sub._driver = {g.output: g for g in gates}
        sub._outputs = outputs
        sub._version = (
            len(sub._inputs) + len(consts) + len(gates) + len(outputs)
        )
        return sub

    def copy(self) -> "Circuit":
        """A structurally identical, name-preserving, independent copy.

        All net names are kept verbatim (the copy hashes identically to
        the original), so the copy is the right starting point for a
        controlled structural edit -- e.g. the incremental
        re-verification demo splices gates into one output cone of a
        copy and checks that only that region's digest changes.

        The copy shares this circuit's frozen ``Gate`` objects and
        encoded gate records (both only ever appended to), and it is
        handed this circuit's region digests when they are current for
        this circuit's :attr:`version`; nothing is computed here.  An
        edit of the copy then digests again only the cones it touched
        (:meth:`region_hashes` says why the others still hold).
        """
        dup = self._subcircuit(
            self.name, dict(self._const_nets), list(self._gates),
            list(self._outputs),
        )
        dup._gate_fields_cache = list(
            getattr(self, "_gate_fields_cache", None) or ()
        )
        cached = getattr(self, "_region_hash_cache", None)
        if cached is not None and cached[0] == self._version:
            dup._region_hash_cache = (dup._version,) + cached[1:]
        return dup

    def replace_output(self, index: int, net: NetId) -> None:
        """Re-point primary output ``index`` at a different net."""
        if not 0 <= index < len(self._outputs):
            raise CircuitError(
                f"output index {index} out of range "
                f"(circuit has {len(self._outputs)} outputs)"
            )
        self._outputs[index] = net
        self._topo_cache = None
        self._version += 1

    @property
    def outputs(self) -> Tuple[NetId, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> Tuple[Gate, ...]:
        return tuple(self._gates)

    @property
    def const_nets(self) -> Mapping[NetId, Trit]:
        return dict(self._const_nets)

    def gate_count(self, logic_only: bool = True) -> int:
        """Number of gates; constants excluded when ``logic_only``."""
        if logic_only:
            return sum(1 for g in self._gates if g.kind.arity > 0)
        return len(self._gates)

    def gate_histogram(self) -> Dict[str, int]:
        """Gate count per kind name (logic gates only)."""
        hist: Dict[str, int] = {}
        for g in self._gates:
            if g.kind.arity == 0:
                continue
            hist[g.kind.name] = hist.get(g.kind.name, 0) + 1
        return hist

    def fanout(self) -> Dict[NetId, int]:
        """Downstream pin count per net (primary outputs count as 1 pin)."""
        counts: Dict[NetId, int] = {}
        for g in self._gates:
            for net in g.inputs:
                counts[net] = counts.get(net, 0) + 1
        for net in self._outputs:
            counts[net] = counts.get(net, 0) + 1
        return counts

    def driver_of(self, net: NetId) -> Optional[Gate]:
        return self._driver.get(net)

    def is_mc_safe(self) -> bool:
        """True iff only AND2/OR2/INV cells are used (paper's restriction)."""
        return all(g.kind.mc_safe for g in self._gates if g.kind.arity > 0)

    # ------------------------------------------------------------------
    # Topological order
    # ------------------------------------------------------------------
    def topological_gates(self) -> List[Gate]:
        """Gates in dependency order; raises :class:`CircuitError` on cycles
        or undriven nets.

        Single-pass Kahn's algorithm with an index-ordered ready-queue:
        each gate tracks how many of its input nets are not yet driven;
        a min-heap over gate indices releases gates as their last
        dependency resolves.  O((gates + pins) log gates) total, versus
        the O(gates^2) worst case of a repeated-scan sort, and the
        index-ordered queue keeps the emitted order deterministic.
        """
        if self._topo_cache is not None:
            return self._topo_cache

        ready = set(self._input_set)
        ready.update(self._const_nets)
        waiting_on: Dict[NetId, List[int]] = {}
        missing: List[int] = [0] * len(self._gates)
        heap: List[int] = []
        for idx, gate in enumerate(self._gates):
            need = 0
            for net in gate.inputs:
                if net not in ready:
                    need += 1
                    waiting_on.setdefault(net, []).append(idx)
            missing[idx] = need
            if need == 0:
                heap.append(idx)
        heapq.heapify(heap)

        order: List[Gate] = []
        while heap:
            idx = heapq.heappop(heap)
            gate = self._gates[idx]
            order.append(gate)
            ready.add(gate.output)
            for waiter in waiting_on.pop(gate.output, ()):
                missing[waiter] -= 1
                if missing[waiter] == 0:
                    heapq.heappush(heap, waiter)

        if len(order) != len(self._gates):
            stuck = [g for i, g in enumerate(self._gates) if missing[i] > 0]
            undriven = {
                net
                for gate in stuck
                for net in gate.inputs
                if net not in ready and net not in self._driver
            }
            if undriven:
                raise CircuitError(f"undriven nets: {sorted(undriven)[:5]}")
            raise CircuitError("combinational cycle detected")
        for net in self._outputs:
            if net not in ready:
                raise CircuitError(f"primary output {net!r} is undriven")
        self._topo_cache = order
        return order

    # ------------------------------------------------------------------
    # Hierarchy: instantiate a subcircuit into this one
    # ------------------------------------------------------------------
    def instantiate(
        self,
        sub: "Circuit",
        input_nets: Sequence[NetId],
        instance_base: str = "u",
    ) -> List[NetId]:
        """Copy ``sub`` into this circuit, binding its primary inputs.

        ``input_nets[i]`` drives ``sub.inputs[i]``.  Returns the nets in
        this circuit corresponding to ``sub.outputs`` (in order).
        """
        if len(input_nets) != len(sub.inputs):
            raise CircuitError(
                f"instance of {sub.name!r} expects {len(sub.inputs)} inputs, "
                f"got {len(input_nets)}"
            )
        inst = self.scope.child(instance_base)
        mapping: Dict[NetId, NetId] = dict(zip(sub.inputs, input_nets))
        for net, value in sub.const_nets.items():
            mapping[net] = self.const(value)
        for gate in sub.topological_gates():
            new_inputs = tuple(mapping[n] for n in gate.inputs)
            new_output = inst.net("n")
            self.add_gate(gate.kind, new_inputs, new_output)
            mapping[gate.output] = new_output
        return [mapping[n] for n in sub.outputs]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit({self.name!r}, inputs={len(self._inputs)}, "
            f"outputs={len(self._outputs)}, gates={self.gate_count()})"
        )
