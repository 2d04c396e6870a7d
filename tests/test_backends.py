"""Tests for the plane-backend subsystem (repro.backends).

Planes are ints on every backend; a backend picks who runs the
exhaustive-verification shard.  The load-bearing property is that the
choice is a *drop-in*: identical compiled-program results and identical
(bit-for-bit) verification reports -- the Python reference shard and
the native kernel's must be indistinguishable except in wall-clock time.
"""

import itertools
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    AUTO_BACKEND,
    BigIntBackend,
    NativeBackend,
    available_backends,
    default_backend_name,
    get_backend,
    known_backend_names,
    register_backend,
    resolve_backend_name,
)
from repro.circuits.compiled import compile_circuit
from repro.circuits.netlist import Circuit
from repro.circuits.gates import (
    AND2,
    AOI21,
    BUF,
    CONST0,
    CONST1,
    INV,
    MUX2,
    NAND2,
    NOR2,
    OAI21,
    OR2,
    XNOR2,
    XOR2,
)
from repro.backends.base import (
    OP_AND,
    OP_BUF,
    OP_INV,
    OP_OR,
    OP_XOR,
    lower_ops,
)
from repro.backends.native import (
    _FUSED,
    _INNER_SHIFT,
    _SWAP_A,
    _SWAP_B,
    _SWAP_C,
)
from repro.core.two_sort import build_two_sort
from repro.networks.comparator import from_comparator_list
from repro.networks.simulate import sort_words, sort_words_batch
from repro.ternary.kleene import kleene_and, kleene_not, kleene_or, kleene_xor
from repro.ternary.trit import ALL_TRITS, Trit
from repro.verify.exhaustive import pair_shards, verify_two_sort_circuit
from repro.verify.parallel import verify_two_sort_sharded
from repro.graycode.valid import from_rank, rank

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _backend_params():
    """Every representation under test.

    ``native`` is the registry's instance: big-int planes whose
    verification shards run in the C kernel on hosts with a compiler
    and in the Python reference elsewhere -- either way a drop-in.
    """
    return [
        pytest.param(BigIntBackend(), id="bigint"),
        pytest.param(get_backend("native"), id="native"),
    ]


@pytest.fixture(params=_backend_params())
def backend(request):
    return request.param


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_present(self):
        assert {"bigint", "native"} <= set(available_backends())

    def test_get_backend_by_name_and_instance(self):
        be = get_backend("bigint")
        assert be.name == "bigint"
        assert get_backend(be) is be

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown plane backend"):
            get_backend("gpu")

    def test_default_is_bigint(self):
        assert default_backend_name() == "bigint"
        assert get_backend(None).name == "bigint"

    def test_env_var_default(self, monkeypatch):
        """``None`` means bigint whatever the environment says:
        ``REPRO_PLANE_BACKEND`` no longer picks the default."""
        monkeypatch.setenv("REPRO_PLANE_BACKEND", "native")
        assert default_backend_name() == "bigint"
        assert get_backend(None).name == "bigint"

    def test_native_registered(self):
        assert "native" in available_backends()
        be = get_backend("native")
        assert be.name == "native"
        assert be.variant in ("built", "fallback")
        assert be.built == (be.variant == "built")

    def test_known_names_include_auto_alias(self):
        names = known_backend_names()
        assert set(names) == set(available_backends()) | {AUTO_BACKEND}
        assert names == sorted(names)

    def test_auto_resolves_to_native_or_bigint(self):
        resolved = resolve_backend_name(AUTO_BACKEND)
        expect = "native" if get_backend("native").built else "bigint"
        assert resolved == expect
        assert get_backend(AUTO_BACKEND).name == resolved
        # concrete names resolve to themselves; the default is unchanged
        assert resolve_backend_name("bigint") == "bigint"
        assert default_backend_name() == "bigint"


# ----------------------------------------------------------------------
# Native backend: forced fallback (REPRO_NO_NATIVE=1)
# ----------------------------------------------------------------------
class TestNativeFallback:
    """The graceful-degradation contract: no kernel, same behavior.

    These construct *fresh* backends after resetting the kernel loader,
    so they exercise the fallback path regardless of whether this host
    built the kernel; the registry's own native instance is left
    untouched (its kernel lookup is cached per instance).
    """

    @pytest.fixture
    def no_native(self, monkeypatch):
        from repro.backends import _kernel

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        _kernel._reset_for_tests()
        yield
        _kernel._reset_for_tests()

    def test_fresh_proxy_reports_fallback(self, no_native):
        be = NativeBackend()
        assert be.variant == "fallback"
        assert not be.built
        assert be.preferred_shard_lanes == BigIntBackend.preferred_shard_lanes

    def test_auto_resolves_to_bigint_without_kernel(self, no_native):
        original = get_backend("native")
        try:
            register_backend("native", NativeBackend())
            assert resolve_backend_name(AUTO_BACKEND) == "bigint"
            assert get_backend(AUTO_BACKEND).name == "bigint"
        finally:
            register_backend("native", original)

    def test_fallback_verification_matches_bigint(self, no_native):
        be = NativeBackend()
        circuit = build_two_sort(3)
        out = verify_two_sort_circuit(circuit, 3, backend=be)
        ref = verify_two_sort_circuit(circuit, 3, backend="bigint")
        assert out.ok and out.summary() == ref.summary()
        broken = _broken_two_sort(2)
        out = verify_two_sort_circuit(broken, 2, backend=NativeBackend())
        ref = verify_two_sort_circuit(broken, 2, backend="bigint")
        assert not out.ok and out.failures == ref.failures

    def test_one_time_stderr_notice(self, no_native, capsys):
        first = NativeBackend()
        assert first.variant == "fallback"  # forces the kernel lookup
        err = capsys.readouterr().err
        assert "native plane kernel unavailable" in err
        assert "falling back to bigint planes" in err
        second = NativeBackend()
        assert second.variant == "fallback"
        assert capsys.readouterr().err == ""  # emitted once per process

    def test_abi_mismatch_falls_back(self, monkeypatch, capsys):
        from repro.backends import _kernel

        if not get_backend("native").built:
            pytest.skip("needs a kernel that builds on this host")
        monkeypatch.setattr(_kernel, "_KERNEL_ABI", _kernel._KERNEL_ABI + 1)
        _kernel._reset_for_tests()
        try:
            assert _kernel.load_kernel() is None
            assert "ABI" in _kernel.load_failure_reason()
            capsys.readouterr()
            be = NativeBackend()
            assert be.variant == "fallback"
            err = capsys.readouterr().err
            assert "falling back to bigint planes" in err and "ABI" in err
        finally:
            monkeypatch.undo()
            _kernel._reset_for_tests()

    def test_forced_fallback_sharded_sweep(self, no_native):
        original = get_backend("native")
        try:
            register_backend("native", NativeBackend())
            circuit = build_two_sort(4)
            out = verify_two_sort_sharded(circuit, 4, jobs=1, backend="native")
            ref = verify_two_sort_sharded(circuit, 4, jobs=1, backend="bigint")
            assert out.ok and out.to_json() == ref.to_json()
        finally:
            register_backend("native", original)


class TestKernelBuild:
    """What the loader builds with: a ``$CC`` carrying arguments, and the
    plain build where the CPU lacks AVX2.  Each test loads a fresh kernel
    into its own cache directory."""

    @pytest.fixture
    def loader(self, monkeypatch, tmp_path):
        from repro.backends import _kernel

        # Ask the registry's native backend first: asking later would
        # build a kernel into the test's cache before the test sets up.
        self.built = get_backend("native").built
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        _kernel._reset_for_tests()
        yield _kernel
        monkeypatch.undo()
        _kernel._reset_for_tests()

    def _needs_compiler(self):
        if not self.built:
            pytest.skip("needs a kernel that builds on this host")

    @staticmethod
    def _source(loader):
        with open(loader._SOURCE_PATH, encoding="utf-8") as fh:
            return fh.read()

    def test_cc_with_arguments_builds(self, loader, monkeypatch, tmp_path):
        self._needs_compiler()
        cc = loader._find_compiler()[0]
        monkeypatch.setenv("CC", f"{cc} -w")
        assert loader._find_compiler() == [cc, "-w"]
        assert NativeBackend().variant == "built"
        source = self._source(loader)
        flags = [*loader._CFLAGS, *loader.isa_flags()]
        built = os.listdir(tmp_path / "cache")
        assert built == [loader._kernel_name(source, [cc, "-w"], flags)]
        assert built != [loader._kernel_name(source, [cc], flags)]

    def test_missing_cc_falls_back(self, loader, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent-cc")
        assert NativeBackend().variant == "fallback"
        assert "no C compiler" in loader.load_failure_reason()

    @pytest.mark.parametrize(
        "cpuinfo",
        [
            "processor\t: 0\nflags\t\t: fpu sse2 popcnt\n\n"
            "processor\t: 1\nflags\t\t: fpu sse2 popcnt avx2\n",
            "processor\t: 0\nFeatures\t: fp asimd evtstrm crc32 popcnt\n",
        ],
        ids=["x86-without-avx2", "aarch64"],
    )
    def test_plain_build_without_avx2(
        self, loader, monkeypatch, tmp_path, cpuinfo
    ):
        self._needs_compiler()
        fake = tmp_path / "cpuinfo"
        fake.write_text(cpuinfo)
        monkeypatch.setattr(loader, "_CPUINFO", str(fake))
        native = NativeBackend()
        assert native.variant == "built"
        assert loader.isa_flags() == []
        cc = loader._find_compiler()
        source = self._source(loader)
        plain = loader._kernel_name(source, cc, loader._CFLAGS)
        avx2 = loader._kernel_name(
            source, cc, [*loader._CFLAGS, *loader._ISA_TIERS[0][1]]
        )
        assert os.listdir(tmp_path / "cache") == [plain] and plain != avx2
        self._check_reports_equal_bigint(native)

    def test_avx2_tier_on_an_avx512_cpu(self, loader, monkeypatch, tmp_path):
        """On an AVX-512 CPU a cpuinfo without ``avx512f`` builds the
        AVX2 tier, whose fused ops report as bigint does."""
        self._needs_compiler()
        every_tier = [f for _, flags in loader._ISA_TIERS for f in flags]
        if loader._isa_flags() != every_tier:
            pytest.skip("needs a CPU that lists avx512f and avx512vl")
        fake = tmp_path / "cpuinfo"
        fake.write_text("processor\t: 0\nflags\t\t: fpu popcnt avx2\n")
        monkeypatch.setattr(loader, "_CPUINFO", str(fake))
        native = NativeBackend()
        assert native.variant == "built"
        assert loader.isa_flags() == ["-mavx2", "-mpopcnt"]
        self._check_reports_equal_bigint(native)

    @staticmethod
    def _check_reports_equal_bigint(native):
        """``native`` as the registry's native backend: its B=6 reports,
        correct and AND2<->OR2-swapped, equal bigint's."""
        base = build_two_sort(6)
        site = next(g.output for g in base.gates if g.kind is OR2)
        original = get_backend("native")
        try:
            register_backend("native", native)
            for circuit in (base, _swap_gate(base, site)):
                out, ref = (
                    verify_two_sort_sharded(circuit, 6, jobs=1, backend=name)
                    for name in ("native", "bigint")
                )
                assert out.to_json() == ref.to_json()
        finally:
            register_backend("native", original)

    def test_isa_probe_without_cpuinfo_and_with_avx2(
        self, loader, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(loader, "_CPUINFO", str(tmp_path / "missing"))
        assert loader._isa_flags() == []
        fake = tmp_path / "cpuinfo"
        monkeypatch.setattr(loader, "_CPUINFO", str(fake))
        fake.write_text("processor\t: 0\nflags\t\t: fpu popcnt avx2\n")
        assert loader._isa_flags() == ["-mavx2", "-mpopcnt"]
        fake.write_text("flags\t\t: avx2 avx512vl popcnt avx512f\n")
        assert loader._isa_flags() == [
            "-mavx2", "-mpopcnt", "-mavx512f", "-mavx512vl",
        ]
        # A tier counts only on top of every lower one.
        fake.write_text("flags\t\t: fpu popcnt avx512f avx512vl\n")
        assert loader._isa_flags() == []


class TestKernelFirstUse:
    """``native`` keeps big-int planes and loads its kernel only for the
    verification shard: once per process, even under concurrent first
    use, and never for a sort."""

    def test_native_planes_are_ints(self):
        program = compile_circuit(build_two_sort(2), "native")
        planes, n = program.encode_inputs([list("0M10"), list("1M00")])
        p0, p1 = program.run_planes(planes, n)
        assert all(type(p) is int for p in p0 + p1)

    def test_native_sweep_builds_no_plane_program(self):
        """The kernel lowers ``ops`` its own way: a clean native sweep
        never builds the Python plane program, a bigint sweep does."""
        native = get_backend("native")
        if not native.built:
            pytest.skip("native kernel not built")
        for backend, built in (("native", False), ("bigint", True)):
            circuit = build_two_sort(5)
            assert verify_two_sort_circuit(circuit, 5, backend=backend).ok
            program = compile_circuit(circuit, backend)
            assert ("plane_program" in vars(program)) is built, backend

    def test_concurrent_first_use_waits_for_the_load(self, monkeypatch, capsys):
        """Regression: a thread that asked while another was still loading
        got no kernel, printed the fallback notice and took the fallback.
        The load is held open until the second thread is inside
        ``load_kernel``; both must then see the same variant, and the
        notice appears only if the kernel really failed."""
        from repro.backends import _kernel

        real_uncached, real_load = _kernel._load_uncached, _kernel.load_kernel
        loading, second_asked, release = (threading.Event() for _ in range(3))

        def held_uncached(flags):
            loading.set()
            assert release.wait(60)
            return real_uncached(flags)

        def spied_load():
            if threading.current_thread().name == "second":
                second_asked.set()
            return real_load()

        monkeypatch.setattr(_kernel, "_load_uncached", held_uncached)
        monkeypatch.setattr(_kernel, "load_kernel", spied_load)
        _kernel._reset_for_tests()
        backend = NativeBackend()
        seen = {}

        def resolve():
            seen[threading.current_thread().name] = backend.variant

        threads = [
            threading.Thread(target=resolve, name=name)
            for name in ("first", "second")
        ]
        try:
            threads[0].start()
            assert loading.wait(60)
            threads[1].start()
            assert second_asked.wait(60)
            release.set()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive(), thread.name
            assert seen["first"] == seen["second"], seen
            notices = capsys.readouterr().err.count(
                "native plane kernel unavailable"
            )
            assert notices == (seen["first"] == "fallback")
        finally:
            release.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join(60)
            monkeypatch.undo()
            _kernel._reset_for_tests()

    _WORDS = ["0M10", "0110", "0010", "1M10", "111M"]

    @staticmethod
    def _sort(tmp_path, *args):
        """``repro sort --engine compiled`` in a fresh subprocess with an
        empty kernel cache; returns the process and the cache listing."""
        cache = tmp_path / "cache"
        cache.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sort", *TestKernelFirstUse._WORDS,
             "--engine", "compiled", *args],
            env={**os.environ, "PYTHONPATH": SRC_DIR,
                 "REPRO_NATIVE_CACHE": str(cache)},
            capture_output=True,
            text=True,
            timeout=300,
        )
        return proc, os.listdir(cache)

    def _check_sort_builds_nothing(self, tmp_path, *args):
        """The sort prints the rank-ordered rows and no notice, and the
        cache stays empty."""
        proc, cached = self._sort(tmp_path, *args)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.split() == sorted(self._WORDS, key=rank)
        assert cached == []

    def test_sort_never_builds_the_kernel(self, tmp_path):
        self._check_sort_builds_nothing(tmp_path)

    def test_sharded_sort_never_builds_the_kernel(self, tmp_path):
        """Regression: a sharded sort (``--executor serial``) on native
        sized its shards by native's kernel budget, and reading that
        budget built the kernel it never calls.  A sort is not sharded
        now, so the flag is a usage error that builds nothing."""
        proc, cached = self._sort(tmp_path, "--executor", "serial")
        assert proc.returncode == 2 and proc.stdout == "", proc.stdout
        assert "--executor" in proc.stderr
        assert cached == []

    def test_sort_has_no_backend_flag(self, tmp_path):
        """Regression: ``sort --backend auto`` resolved the alias, and
        resolving it built the kernel a sort never calls.  A sort names
        no backend now, so the flag is a usage error that builds
        nothing."""
        proc, cached = self._sort(tmp_path, "--backend", "auto")
        assert proc.returncode == 2, proc.stdout
        assert "--backend" in proc.stderr
        assert cached == []


# ----------------------------------------------------------------------
# What a backend object still carries: lane addressing, pickling
# ----------------------------------------------------------------------
class TestPlaneOps:
    def test_lane_addressing(self, backend):
        plane = (1 << 0) | (1 << 63) | (1 << 64) | (1 << 129)
        assert list(backend.iter_set_lanes(plane, 130)) == [0, 63, 64, 129]
        assert list(backend.iter_set_lanes(0b11111, 5)) == [0, 1, 2, 3, 4]
        assert list(backend.iter_set_lanes(0, 0)) == []

    def test_backend_picklable(self, backend):
        """Regression: backends ride along with compiled circuits into
        pool initargs; spawn-start platforms pickle them (a module
        reference held by a backend used to make that crash)."""
        import pickle

        clone = pickle.loads(pickle.dumps(backend))
        assert clone.name == backend.name
        if isinstance(backend, NativeBackend):
            assert clone.variant == backend.variant
        assert list(clone.iter_set_lanes(0b101, 3)) == [0, 2]

    def test_circuit_pickle_drops_compile_cache(self, backend):
        """A circuit compiled on any backend must still pickle (pool
        initargs on spawn platforms) -- the per-process program cache is
        rebuilt by workers, not shipped."""
        import pickle

        circuit = build_two_sort(2)
        compile_circuit(circuit, backend)
        clone = pickle.loads(pickle.dumps(circuit))
        assert not hasattr(clone, "_compiled_cache")
        out = verify_two_sort_circuit(clone, 2, backend=backend)
        assert out.ok and out.checked == 49


# ----------------------------------------------------------------------
# Structured packing + fused select-diff, per backend
# ----------------------------------------------------------------------
#: Tail-mask edge widths: single lane, one bit short of a word, exactly
#: one word, one bit into the second word, and a multi-word interior.
EDGE_LANES = [1, 63, 64, 65, 130]


def _plane(bit, lanes):
    """The int plane whose lane ``j`` is ``bit(j)``, lane by lane."""
    return sum(1 << j for j in range(lanes) if bit(j))


class TestStructuredPacking:
    """from_pattern / expand_bits / from_prefix_runs against their
    docstrings' rules, evaluated bit by bit at every word boundary (the
    native kernel generates the same bits in C)."""

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_from_pattern(self, lanes, backend):
        rng = random.Random(lanes)
        for period in (1, 2, 7, 63, 64, 65):
            value = rng.getrandbits(period)
            # lane j holds bit j mod period of the pattern
            want = _plane(lambda j: (value >> (j % period)) & 1, lanes)
            got = backend.from_pattern(value, period, lanes)
            assert got == want, (value, period)

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_expand_bits(self, lanes, backend):
        rng = random.Random(lanes)
        for run in (1, 3, 64, 65):
            bits = rng.getrandbits(-(-lanes // run))
            # lane j holds bit k of the value for the block k = j // run
            want = _plane(lambda j: (bits >> (j // run)) & 1, lanes)
            assert backend.expand_bits(bits, run, lanes) == want, run

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_from_prefix_runs(self, lanes, backend):
        for first, period in [(1, 1), (1, 2), (3, 7), (63, 64), (64, 65), (65, 66)]:
            # row k = j // period has its first + k low lanes set
            want = _plane(lambda j: j % period < first + j // period, lanes)
            got = backend.from_prefix_runs(first, period, lanes)
            assert got == want, (first, period)


def _random_select_diff_case(rng, n_inputs=4, n_ops=15, n_cmp=3):
    """A random SSA program + input/cmp/sel marshalling for the fused
    select-diff entry point (same shape the verifier produces)."""
    ops = []
    written = n_inputs
    for _ in range(n_ops):
        op = rng.choice([OP_AND, OP_OR, OP_INV, OP_XOR, OP_BUF])
        a = rng.randrange(written)
        b = rng.randrange(written) if op not in (OP_INV, OP_BUF) else 0
        ops.append((op, written, a, b))
        written += 1
    cmp = [
        (
            rng.randrange(n_inputs, written),
            rng.randrange(n_inputs),
            rng.randrange(n_inputs),
        )
        for _ in range(n_cmp)
    ]
    # One cmp slot that no op ever writes and no input provides: it must
    # read as all-zero planes (the native marshal zero-fills it).
    cmp.append((written, 0, 1))
    return ops, written + 1, cmp


#: One Kleene connective per opcode: the per-lane meaning of the program.
_KLEENE_OPS = {
    OP_AND: kleene_and,
    OP_OR: kleene_or,
    OP_INV: lambda a, b: kleene_not(a),
    OP_XOR: kleene_xor,
    OP_BUF: lambda a, b: a,
}


def _select_diff_per_lane(ops, cmp, lane_inputs, sel_bits):
    """``(diff, counts)`` of a select-diff call, one lane at a time.

    ``lane_inputs[j]`` maps each input slot to lane ``j``'s trit; the
    program runs through ``repro.ternary.kleene`` and each triple's slot
    is compared with ``a`` where ``sel`` and ``b`` elsewhere.  A slot
    nothing writes holds no trit, so it differs from every expected one.
    """
    diff = 0
    counts = [0] * len(cmp)
    for j, inputs in enumerate(lane_inputs):
        value = dict(inputs)
        for op, d, a, b in ops:
            value[d] = _KLEENE_OPS[op](value[a], value[b])
        for k, (slot, a, b) in enumerate(cmp):
            want = value[a] if (sel_bits >> j) & 1 else value[b]
            if value.get(slot) != want:
                diff |= 1 << j
                counts[k] += 1
    return diff, counts


class TestSelectDiffContract:
    """run_ops_select_diff, on the random program lowered by
    ``lower_ops``, against the raw program evaluated lane by lane with
    the Kleene tables (``repro.ternary.kleene``), at every word
    boundary: diff, mismatch count and per-triple counts."""

    @pytest.mark.parametrize("lanes", EDGE_LANES)
    def test_matches_bigint_reference(self, lanes, backend):
        rng = random.Random(20180000 + lanes)
        for trial in range(5):
            ops, n_slots, cmp = _random_select_diff_case(rng)
            lane_inputs = [
                {slot: rng.choice(ALL_TRITS) for slot in range(4)}
                for _ in range(lanes)
            ]
            sel = rng.getrandbits(lanes)
            inputs = []
            for slot in range(4):
                trits = [lane[slot] for lane in lane_inputs]
                can0 = _plane(lambda j: trits[j] is not Trit.ONE, lanes)
                can1 = _plane(lambda j: trits[j] is not Trit.ZERO, lanes)
                inputs.append((slot, can0, can1))
            counts = [0] * len(cmp)
            diff, count = backend.run_ops_select_diff(
                lower_ops(ops, n_slots),
                inputs,
                cmp,
                sel,
                ((1 << lanes) - 1) ^ sel,
                lanes,
                counts=counts,
            )
            want_diff, want_counts = _select_diff_per_lane(
                ops, cmp, lane_inputs, sel
            )
            assert (diff, counts) == (want_diff, want_counts), (trial, lanes)
            assert count == bin(want_diff).count("1")
            # the never-written slot mismatches on every lane
            assert counts[-1] == lanes


#: The single-gate mutations: AND2 <-> OR2 and INV -> BUF.
_MUTATED_KIND = {AND2: OR2, OR2: AND2, INV: BUF}


def _swap_gate(base, site):
    """``base`` with gate ``site`` swapped AND2 <-> OR2, or an INV there
    made a BUF (a real fault)."""
    out = Circuit(name=f"{base.name}-swap")
    for net in base.inputs:
        out.add_input(net=net)
    for gate in base.gates:
        kind = gate.kind
        if gate.output == site:
            kind = _MUTATED_KIND[kind]
        out.add_gate(kind, gate.inputs, output=gate.output)
    for net in base.outputs:
        out.add_output(net)
    return out


def _with_constants(width, fault=False):
    """2-sort(width) with CONST1/CONST0 nets spliced into two outputs.

    ``AND2(o, 1)`` and ``OR2(o, 0)`` leave the design correct; with
    ``fault`` the second splice is ``AND2(o, 0)``, which pins an output.
    """
    circuit = build_two_sort(width).copy()
    one, zero = circuit.const(Trit.ONE), circuit.const(Trit.ZERO)
    a = circuit.add_gate(AND2, [circuit.outputs[0], one], output="k_and1")
    b = circuit.add_gate(
        AND2 if fault else OR2, [circuit.outputs[-1], zero], output="k_mix0"
    )
    circuit.replace_output(0, a)
    circuit.replace_output(2 * width - 1, b)
    return circuit


def _sampled(shards):
    """First two, middle and last two shards (the last may be short)."""
    if len(shards) <= 5:
        return shards
    return shards[:2] + [shards[len(shards) // 2]] + shards[-2:]


# Netlists for the compact pair-shard program: each one is a 2B-input,
# 2B-output circuit whose compiled program has a shape the lowering must
# handle (folded inverters, composite cells, odd outputs, dead gates).
_GRID_NETS = itertools.count()


def _add(circuit, kind, *inputs, output=None):
    """``circuit.add_gate`` with a fresh ``grid<n>`` output name: a copied
    circuit's name scope starts over, so generated names could collide."""
    if output is None:
        output = f"grid{next(_GRID_NETS)}"
    return circuit.add_gate(kind, inputs, output=output)


def _spliced_outputs(width, fault=False):
    """2-sort(width) with every even output behind an INV pair (the
    design-loop splice) and every odd one behind a BUF; ``fault`` puts
    output 0 behind one more INV."""
    circuit = build_two_sort(width).copy()
    for i, net in enumerate(circuit.outputs):
        if i % 2:
            net = _add(circuit, BUF, net)
        else:
            net = _add(circuit, INV, _add(circuit, INV, net))
        circuit.replace_output(i, net)
    if fault:
        circuit.replace_output(0, _add(circuit, INV, circuit.outputs[0]))
    return circuit


def _rebuilt(base, name, rewrite):
    """``base`` gate by gate; ``rewrite(out, gate)`` may emit gates that
    drive ``gate.output`` itself and return True, or return False to copy
    the gate."""
    out = Circuit(name=f"{base.name}-{name}")
    for net in base.inputs:
        out.add_input(net=net)
    for gate in base.gates:
        if not rewrite(out, gate):
            out.add_gate(gate.kind, gate.inputs, output=gate.output)
    for net in base.outputs:
        out.add_output(net)
    return out


def _composite_cells(width, fault=False):
    """2-sort(width) with its AND2/OR2 gates rewritten, in turn, into
    equal Kleene forms over NAND2, NOR2, XNOR2, AOI21, OAI21, MUX2 and
    XOR2 (``x XOR 0 = x``, ``x XNOR 0 = ~x``, ``MUX2(a, 0, b) = a & b``).
    ``fault`` gives the first AND2 the XNOR2 form without its outer INV,
    which inverts that gate."""

    def and_form(c, k, a, b, y):
        zero = c.const(Trit.ZERO)
        if k == 0:
            return _add(c, INV, _add(c, NAND2, a, b), output=y)
        if k == 1:
            return _add(c, NOR2, _add(c, INV, a), _add(c, INV, b), output=y)
        if k == 2:
            return _add(c, INV, _add(c, OAI21, a, zero, b), output=y)
        if k == 3:
            return _add(c, MUX2, a, zero, b, output=y)
        if k == 4:
            return _add(c, XOR2, _add(c, AND2, a, b), zero, output=y)
        inverted = _add(c, XNOR2, _add(c, AND2, a, b), zero)
        return _add(c, INV if k == 5 else BUF, inverted, output=y)

    def or_form(c, k, a, b, y):
        if k == 0:
            return _add(c, INV, _add(c, NOR2, a, b), output=y)
        if k == 1:
            return _add(c, NAND2, _add(c, INV, a), _add(c, INV, b), output=y)
        if k == 2:
            one = c.const(Trit.ONE)
            return _add(c, INV, _add(c, AOI21, a, one, b), output=y)
        if k == 3:
            return _add(c, BUF, _add(c, OR2, a, b), output=y)
        inverted = _add(c, INV, _add(c, OR2, a, b))
        return _add(c, XNOR2, inverted, c.const(Trit.ZERO), output=y)

    seen = {AND2: 0, OR2: 0}

    def rewrite(c, gate):
        if gate.kind not in seen:
            return False
        seen[gate.kind] += 1
        if gate.kind is AND2:
            k = 6 if fault and seen[AND2] == 1 else (seen[AND2] - 1) % 6
            and_form(c, k, *gate.inputs, gate.output)
        else:
            or_form(c, (seen[OR2] - 1) % 5, *gate.inputs, gate.output)
        return True

    return _rebuilt(build_two_sort(width), "composite", rewrite)


def _inverted_input_reads(width, fault=False):
    """2-sort(width) with every AND2/OR2 that reads a primary input
    rewritten by De Morgan, ``INV(OR2(INV a, INV b))`` and dually, so
    inverted primary inputs feed ORs and ANDs.  ``fault`` drops the
    outer INV of the first rewrite."""
    base = build_two_sort(width)
    inputs = set(base.inputs)
    done = []

    def rewrite(c, gate):
        if gate.kind not in (AND2, OR2) or not inputs & set(gate.inputs):
            return False
        dual = OR2 if gate.kind is AND2 else AND2
        inner = _add(c, dual, *(_add(c, INV, n) for n in gate.inputs))
        _add(c, BUF if fault and not done else INV, inner, output=gate.output)
        done.append(gate.output)
        return True

    return _rebuilt(base, "demorgan", rewrite)


def _odd_outputs(width):
    """2-sort(width), width >= 3, whose outputs include a primary input,
    a constant, a net another output also drives, an inverted primary
    input and an inverted constant."""
    circuit = build_two_sort(width).copy()
    outs, ins = circuit.outputs, circuit.inputs
    circuit.replace_output(0, ins[0])
    circuit.replace_output(1, circuit.const(Trit.ONE))
    circuit.replace_output(width, outs[width + 1])
    circuit.replace_output(2 * width - 2, _add(circuit, INV, ins[width]))
    circuit.replace_output(
        2 * width - 1, _add(circuit, INV, circuit.const(Trit.ZERO))
    )
    return circuit


def _dead_gates(width):
    """2-sort(width) plus gates no output reads, one of them fed only by
    another dead gate."""
    circuit = build_two_sort(width).copy()
    outs, ins = circuit.outputs, circuit.inputs
    _add(circuit, OR2, _add(circuit, AND2, outs[0], outs[-1]), ins[0])
    _add(circuit, BUF, _add(circuit, INV, outs[0]))
    _add(circuit, XOR2, ins[0], ins[-1])
    _add(circuit, AOI21, ins[0], outs[0], circuit.const(Trit.ONE))
    return circuit


_RANDOM_KINDS = (
    INV, BUF, AND2, OR2, NAND2, NOR2, XOR2, XNOR2, AOI21, OAI21, MUX2,
    CONST0, CONST1,
)


def _random_netlist(width, seed):
    """A seeded random netlist with 2*width inputs and outputs over every
    gate kind: each gate reads any earlier net, and the outputs are any
    of the later nets, repeats allowed."""
    rng = random.Random(seed)
    circuit = Circuit(name=f"random{width}-{seed}")
    nets = circuit.add_inputs(2 * width)
    nets += [circuit.const(Trit.ZERO), circuit.const(Trit.ONE)]
    for _ in range(8 * width):
        kind = rng.choice(_RANDOM_KINDS)
        srcs = [rng.choice(nets) for _ in range(kind.arity)]
        nets.append(_add(circuit, kind, *srcs))
    for _ in range(2 * width):
        circuit.add_output(rng.choice(nets[len(nets) // 2:]))
    return circuit


def _fused_forms(width):
    """A netlist over 2*width inputs, width >= 2, with one output
    ``OUTER(INNER(x, y), z)`` for each choice of OUTER and INNER (AND2 or
    OR2), of an inverter or none on x, y, the inner gate's output and z,
    and of the outer gate's side the inner one feeds: its pair-shard
    program runs each of the four fused forms with every combination of
    swap bits."""
    circuit = Circuit(name=f"fused-forms{width}")
    x, y, z = circuit.add_inputs(2 * width)[:3]

    def inv(net, flip):
        return _add(circuit, INV, net) if flip else net

    for outer, inner, *flips in itertools.product(
        (AND2, OR2), (AND2, OR2), *[(0, 1)] * 5
    ):
        g = _add(circuit, inner, inv(x, flips[0]), inv(y, flips[1]))
        operands = [inv(g, flips[2]), inv(z, flips[3])]
        circuit.add_output(_add(circuit, outer, *operands[::1 - 2 * flips[4]]))
    return circuit


class TestPairShardFused:
    """run_pair_shard: the native kernel generates the pair product in
    C; its diff plane and mismatch counts must equal the base-class
    reference (int planes packed in Python) on every shard shape --
    S < 64 and S >= 64, short last shards, single-output cones, real
    faults, and constant nets preset in-tile."""

    SHARD_SIZES = [None, 64, 100, 1000, 4096]

    @staticmethod
    def _check(circuit, width, pairs, shards):
        from repro.verify.exhaustive import _string_bit_masks

        masks = _string_bit_masks(width)
        ref = compile_circuit(circuit, "bigint")
        native = compile_circuit(circuit, "native")
        total = 0
        for g_lo, g_hi in shards:
            lanes = (g_hi - g_lo) * ((1 << (width + 1)) - 1)
            want_diff, want_n = ref.run_pair_shard(width, masks, g_lo, g_hi, pairs)
            got_diff, got_n = native.run_pair_shard(width, masks, g_lo, g_hi, pairs)
            assert type(got_diff) is int
            assert (got_diff, got_n) == (want_diff, want_n), (
                circuit.name, g_lo, g_hi,
            )
            assert got_diff >> lanes == 0  # tail-masked
            assert got_n == bin(got_diff).count("1")
            total += got_n
        return total

    @pytest.mark.parametrize("width", range(1, 10))
    def test_two_sort_all_shard_sizes(self, width):
        from repro.verify.exhaustive import _two_sort_select_pairs, pair_shards

        pairs = _two_sort_select_pairs(width)
        circuit = build_two_sort(width)
        for size in self.SHARD_SIZES:
            shards = pair_shards(width, size)
            if width >= 8:
                shards = _sampled(shards)
            assert self._check(circuit, width, pairs, shards) == 0

    @pytest.mark.parametrize("width", [1, 3, 6, 7])
    def test_single_output_cones(self, width):
        from repro.verify.exhaustive import pair_shards

        circuit = build_two_sort(width)
        for out in range(2 * width):
            b = out % width
            pair = (0, b, width + b) if out < width else (0, width + b, b)
            cone = circuit.extract_cone(out)
            for size in (None, 100):
                shards = pair_shards(width, size)
                assert self._check(cone, width, [pair], shards) == 0

    @pytest.mark.parametrize("width", [2, 4, 6, 7])
    def test_and_or_swapped_netlists(self, width):
        from repro.verify.exhaustive import _two_sort_select_pairs, pair_shards

        base = build_two_sort(width)
        sites = [g.output for g in base.gates if g.kind in (AND2, OR2)]
        rng = random.Random(20180319 + width)
        pairs = _two_sort_select_pairs(width)
        failing = 0
        for site in rng.sample(sites, min(4, len(sites))):
            faulty = _swap_gate(base, site)
            for size in (None, 1000):
                failing += self._check(
                    faulty, width, pairs, pair_shards(width, size)
                )
        assert failing > 0

    @pytest.mark.parametrize("width", [1, 5, 7])
    def test_constant_nets(self, width):
        from repro.verify.exhaustive import _two_sort_select_pairs, pair_shards

        pairs = _two_sort_select_pairs(width)
        for fault in (False, True):
            circuit = _with_constants(width, fault)
            assert compile_circuit(circuit, "bigint").const_slots
            for size in (None, 64):
                n = self._check(circuit, width, pairs, pair_shards(width, size))
                assert (n > 0) == fault

    def test_constant_net_reports_identical(self):
        circuit = _with_constants(4, fault=True)
        ref = verify_two_sort_circuit(circuit, 4, backend="bigint")
        out = verify_two_sort_circuit(circuit, 4, backend="native")
        assert not ref.ok and out.to_json() == ref.to_json()

    # -- netlists whose compact program folds inverters ---------------
    @classmethod
    def _check_both(cls, circuit, width, sizes=(None, 100)):
        """``_check`` on every shard of each size and ``_check_counts`` on
        a sample; returns the ``_check`` mismatch total."""
        from repro.verify.exhaustive import _two_sort_select_pairs, pair_shards

        pairs = _two_sort_select_pairs(width)
        total = 0
        for size in sizes:
            shards = pair_shards(width, size)
            if width >= 7:
                shards = _sampled(shards)
            total += cls._check(circuit, width, pairs, shards)
        shards = _sampled(pair_shards(width, sizes[-1]))
        cls._check_counts(circuit, width, shards)
        return total

    @pytest.mark.parametrize("width", [1, 2, 5, 7])
    def test_outputs_behind_inverters_and_buffers(self, width):
        assert self._check_both(_spliced_outputs(width), width) == 0
        assert self._check_both(_spliced_outputs(width, fault=True), width) > 0

    @pytest.mark.parametrize("width", [2, 4, 7])
    def test_composite_cells(self, width):
        circuit = _composite_cells(width)
        kinds = {g.kind for g in circuit.gates}
        assert {NAND2, NOR2, XNOR2, AOI21, OAI21, MUX2, XOR2} <= kinds
        assert self._check_both(circuit, width) == 0
        assert self._check_both(_composite_cells(width, fault=True), width) > 0

    @pytest.mark.parametrize("width", [1, 3, 6])
    def test_inverted_primary_inputs_feed_and_or(self, width):
        assert self._check_both(_inverted_input_reads(width), width) == 0
        faulty = _inverted_input_reads(width, fault=True)
        assert self._check_both(faulty, width) > 0

    @pytest.mark.parametrize("width", [3, 4, 7])
    def test_outputs_that_are_inputs_constants_or_shared(self, width):
        assert self._check_both(_odd_outputs(width), width) > 0

    @pytest.mark.parametrize("width", [1, 4, 7])
    def test_dead_gates(self, width):
        assert self._check_both(_dead_gates(width), width) == 0

    @pytest.mark.parametrize("width", range(1, 8))
    def test_random_netlists(self, width):
        for seed in range(3):
            circuit = _random_netlist(width, 20180319 + 97 * width + seed)
            self._check_both(circuit, width)

    @pytest.mark.parametrize("width", [2, 6, 10])
    def test_fused_forms(self, width):
        """Each fused form with every combination of swap bits: diff and
        per-output counts equal the reference's.  From width 10 on a
        g-row spans whole tiles."""
        from repro.verify.exhaustive import _string_bit_masks, pair_shards

        S = (1 << (width + 1)) - 1
        circuit = _fused_forms(width)
        pairs = [
            (o, o % width, width + o % width)
            for o in range(len(circuit.outputs))
        ]
        if width >= 10:
            shards = [(3, 7), (S - 2, S)]
        else:
            shards = _sampled(pair_shards(width, 100))
        assert self._check(circuit, width, pairs, shards) > 0
        masks = _string_bit_masks(width)
        ref = compile_circuit(circuit, "bigint")
        native = compile_circuit(circuit, "native")
        for g_lo, g_hi in shards:
            want, got = [0] * len(pairs), [0] * len(pairs)
            result = ref.run_pair_shard(
                width, masks, g_lo, g_hi, pairs, counts=want
            )
            assert native.run_pair_shard(
                width, masks, g_lo, g_hi, pairs, counts=got
            ) == result
            assert got == want, (g_lo, g_hi)

    # -- per-output mismatch counts over the same grid -----------------
    @staticmethod
    def _check_counts(circuit, width, shards):
        """Per-output counts on both backends, against each output's own
        diff and against the one-cone region check.

        On every shard: the counts equal across backends; count ``j``
        equals the popcount of output ``j``'s own diff (a one-pair
        call); asking for counts changes neither the diff nor the
        total; and each range value equals
        ``verify_two_sort_region_shard`` on that output's extracted
        cone.  Returns the summed counts.
        """
        from repro.verify.exhaustive import (
            _string_bit_masks,
            _two_sort_select_pairs,
            verify_two_sort_region_range,
            verify_two_sort_region_shard,
        )

        masks = _string_bit_masks(width)
        pairs = _two_sort_select_pairs(width)
        outputs = range(2 * width)
        programs = {
            name: compile_circuit(circuit, name) for name in ("bigint", "native")
        }
        cones = {
            o: compile_circuit(circuit.extract_cone(o), "bigint") for o in outputs
        }
        totals = [0] * len(pairs)
        for g_lo, g_hi in shards:
            got = {}
            for name, program in programs.items():
                counts = [0] * len(pairs)
                diff, n = program.run_pair_shard(
                    width, masks, g_lo, g_hi, pairs, counts=counts
                )
                plain_diff, plain_n = program.run_pair_shard(
                    width, masks, g_lo, g_hi, pairs
                )
                assert (diff, n) == (plain_diff, plain_n)
                assert max(counts, default=0) <= n <= sum(counts)
                got[name] = counts
            assert got["native"] == got["bigint"], (circuit.name, g_lo, g_hi)
            ref = programs["bigint"]
            for j, pair in enumerate(pairs):
                own_diff, own_n = ref.run_pair_shard(
                    width, masks, g_lo, g_hi, [pair]
                )
                assert got["bigint"][j] == own_n == bin(own_diff).count("1")
            for name, program in programs.items():
                values = verify_two_sort_region_range(
                    program, width, outputs, g_lo, g_hi
                )
                assert values == [
                    verify_two_sort_region_shard(cones[o], width, o, g_lo, g_hi)
                    for o in outputs
                ]
            totals = [t + c for t, c in zip(totals, got["bigint"])]
        return totals

    @pytest.mark.parametrize("width", range(1, 10))
    def test_counts_two_sort_all_shard_sizes(self, width):
        from repro.verify.exhaustive import pair_shards

        circuit = build_two_sort(width)
        for size in self.SHARD_SIZES:
            shards = pair_shards(width, size)
            if width >= 7:
                shards = _sampled(shards)
            assert not any(self._check_counts(circuit, width, shards))

    @pytest.mark.parametrize("width", [2, 4, 6, 7])
    def test_counts_and_or_swapped_netlists(self, width):
        from repro.verify.exhaustive import pair_shards

        base = build_two_sort(width)
        sites = [g.output for g in base.gates if g.kind in (AND2, OR2)]
        rng = random.Random(20180319 + width)
        failing = 0
        for site in rng.sample(sites, min(2, len(sites))):
            faulty = _swap_gate(base, site)
            for size in (None, 1000):
                failing += sum(self._check_counts(
                    faulty, width, pair_shards(width, size)
                ))
        assert failing > 0

    @pytest.mark.parametrize("width", [1, 5, 7])
    def test_counts_constant_nets(self, width):
        from repro.verify.exhaustive import pair_shards

        for fault in (False, True):
            circuit = _with_constants(width, fault)
            for size in (None, 64):
                counts = self._check_counts(
                    circuit, width, _sampled(pair_shards(width, size))
                )
                # Only the pinned output (the last) can mismatch.
                assert (sum(counts) > 0) == fault
                assert not any(counts[:-1])

    def test_counts_range_over_a_cone_union(self):
        """A union-of-cones program checks exactly its own outputs."""
        from repro.verify.exhaustive import (
            pair_shards,
            verify_two_sort_region_range,
            verify_two_sort_region_shard,
        )

        width = 6
        circuit = _swap_gate(build_two_sort(width), next(
            g.output for g in build_two_sort(width).gates if g.kind is AND2
        ))
        picks = (9, 2, 5)
        for name in ("bigint", "native"):
            union = compile_circuit(circuit.extract_cones(picks), name)
            for g_lo, g_hi in pair_shards(width, 1000):
                assert verify_two_sort_region_range(
                    union, width, picks, g_lo, g_hi
                ) == [
                    verify_two_sort_region_shard(
                        compile_circuit(circuit.extract_cone(o), "bigint"),
                        width, o, g_lo, g_hi,
                    )
                    for o in picks
                ]

    # -- widths whose padded g-row spans whole tiles -------------------
    @staticmethod
    def _whole_tile_cases(width):
        """From width 10 on the kernel pads a g-row to R >= 32 words (one
        tile), so each tile lies inside one g-row.  The correct netlist
        and three AND2<->OR2 swaps, over the first, middle and last
        shards of a 1<<18-lane sweep and short shards at both ends."""
        from repro.verify.exhaustive import pair_shards

        S = (1 << (width + 1)) - 1
        sweep = pair_shards(width, 1 << 18)
        shards = [sweep[0], sweep[len(sweep) // 2], sweep[-1], (3, 7), (S - 2, S)]
        base = build_two_sort(width)
        sites = [g.output for g in base.gates if g.kind in (AND2, OR2)]
        rng = random.Random(20180319 + width)
        faulty = [_swap_gate(base, site) for site in rng.sample(sites, 3)]
        return base, faulty, shards

    @pytest.mark.parametrize("width", [10, 11])
    def test_and_or_swapped_netlists_whole_tile_rows(self, width):
        from repro.verify.exhaustive import _two_sort_select_pairs

        pairs = _two_sort_select_pairs(width)
        base, faulty, shards = self._whole_tile_cases(width)
        assert self._check(base, width, pairs, shards) == 0
        for circuit in faulty:
            assert self._check(circuit, width, pairs, shards) > 0

    @pytest.mark.parametrize("width", [10, 11])
    def test_counts_and_or_swapped_netlists_whole_tile_rows(self, width):
        """Per-output counts equal bigint's, and asking for them changes
        neither the diff nor the total."""
        from repro.verify.exhaustive import (
            _string_bit_masks,
            _two_sort_select_pairs,
        )

        masks = _string_bit_masks(width)
        pairs = _two_sort_select_pairs(width)
        base, faulty, shards = self._whole_tile_cases(width)
        for circuit in (base, *faulty):
            ref = compile_circuit(circuit, "bigint")
            native = compile_circuit(circuit, "native")
            total = 0
            for g_lo, g_hi in shards:
                want = [0] * len(pairs)
                result = ref.run_pair_shard(
                    width, masks, g_lo, g_hi, pairs, counts=want
                )
                got = [0] * len(pairs)
                assert native.run_pair_shard(
                    width, masks, g_lo, g_hi, pairs, counts=got
                ) == result
                assert got == want, (circuit.name, g_lo, g_hi)
                assert native.run_pair_shard(
                    width, masks, g_lo, g_hi, pairs
                ) == result
                total += sum(got)
            assert (total > 0) == (circuit is not base), circuit.name


class TestCompactPairShardProgram:
    """The native pair-shard program folds INV/BUF into plane swaps,
    folds each single-read AND/OR value into its reader as one fused
    three-input op, and shares rows by liveness: 2-sort(13)'s 314 ops
    over 340 one-per-net slots become 122 ops over 75 rows (37.5 KB of
    tile scratch instead of 170 KB)."""

    MAX_OPS = {13: 130, 16: 160}

    @staticmethod
    def _lowered(circuit, width, pairs=None):
        from repro.backends.native import _lower_pair_shard
        from repro.verify.exhaustive import _two_sort_select_pairs

        program = compile_circuit(circuit, "bigint")
        outs, ins = program.output_slots, program.input_slots
        if pairs is None:
            pairs = _two_sort_select_pairs(width)
        cmp = [(outs[o], ins[a], ins[b]) for o, a, b in pairs]
        prog, cmp_rows, fill, n_rows = _lower_pair_shard(program, cmp)
        ops = [tuple(prog[i:i + 5]) for i in range(0, len(prog), 5)]
        return program, ops, cmp_rows, fill, n_rows

    @pytest.mark.parametrize("width, max_rows", [(13, 80), (16, 96)])
    def test_two_sort_program_is_compact(self, width, max_rows):
        program, ops, cmp_rows, fill, n_rows = self._lowered(
            build_two_sort(width), width
        )
        assert n_rows <= max_rows < program.n_slots
        assert len(ops) <= self.MAX_OPS[width]
        assert not [op for op in ops if op[0] & 7 in (OP_INV, OP_BUF)]
        # One op per AND/OR/XOR of the compiled program, less one per
        # fused op (each absorbs exactly one).
        kept = [op for op in program.ops if op[0] not in (OP_INV, OP_BUF)]
        fused = [op for op in ops if op[0] & _FUSED]
        assert len(ops) + len(fused) == len(kept)
        self._check_rows(width, ops, cmp_rows, fill, n_rows)

    def test_tile_scratch_is_64_byte_aligned(self):
        """Where malloc puts a fresh slab depends on the process's
        history, and the AVX2 tile loop is slower off a 32-byte
        boundary, so every slab starts on a 64-byte one."""
        native = get_backend("native")
        if not native.built:
            pytest.skip("native kernel not built")
        for n_rows in (47, 77, 300):  # 300 outgrows any slab left before
            assert native._scratch_addr(n_rows) % 64 == 0

    @pytest.mark.parametrize("width", [3, 7])
    def test_grid_programs_keep_pinned_rows(self, width):
        for circuit in (
            _composite_cells(width),
            _odd_outputs(width),
            _dead_gates(width),
            _random_netlist(width, width),
        ):
            self._check_rows(width, *self._lowered(circuit, width)[1:])

    @staticmethod
    def _check_rows(width, ops, cmp_rows, fill, n_rows):
        """No op writes one of its up to three source rows (``c`` only
        when fused); input and preset rows are never written, and each
        compared root's row only by the op computing it."""
        dsts = [op[1] for op in ops]
        for word, d, a, b, c in ops:
            assert d not in ((a, b, c) if word & _FUSED else (a, b))
        assert all(0 <= r < n_rows for op in ops for r in op[1:])
        pinned = set(range(2 * width)) | set(fill[0::3])
        assert not pinned & set(dsts)
        for r in {~c if c < 0 else c for c in cmp_rows} - pinned:
            assert dsts.count(r) == 1

    @staticmethod
    def _run_lowered(ops, fill, n_rows, inputs, full):
        """The lowered program in Python: row planes after every op."""
        p0, p1 = [0] * n_rows, [0] * n_rows
        for r, (a0, a1) in enumerate(inputs):
            p0[r], p1[r] = a0, a1
        for r, can0, can1 in zip(fill[0::3], fill[1::3], fill[2::3]):
            p0[r], p1[r] = full * can0, full * can1

        def read(r, swap):
            return (p1[r], p0[r]) if swap else (p0[r], p1[r])

        def kleene(code, x, y):
            if code == OP_AND:
                return x[0] | y[0], x[1] & y[1]
            if code == OP_OR:
                return x[0] & y[0], x[1] | y[1]
            assert code == OP_XOR
            return (x[0] & y[0]) | (x[1] & y[1]), (x[0] & y[1]) | (x[1] & y[0])

        for word, d, a, b, c in ops:
            x, y = read(a, word & _SWAP_A), read(b, word & _SWAP_B)
            if word & _FUSED:
                x = kleene(word >> _INNER_SHIFT & 7, x, y)
                y = read(c, word & _SWAP_C)
            p0[d], p1[d] = kleene(word & 7, x, y)
        return p0, p1

    @pytest.mark.parametrize("width", [3, 7])
    def test_lowered_program_equals_run_ops(self, width):
        """A Python run of each lowered grid program gives every
        compared root the planes the plane program (``lower_ops``, then
        ``run_ops``) gives its slot, on random
        ternary inputs; the fused-forms netlist runs all four fused
        forms with every combination of swap bits."""
        lanes = 256
        full = (1 << lanes) - 1
        rng = random.Random(20180319 + width)
        forms = set()
        for circuit in (
            build_two_sort(width),
            _fused_forms(width),
            _composite_cells(width),
            _inverted_input_reads(width),
            _spliced_outputs(width, fault=True),
            _with_constants(width, fault=True),
            _odd_outputs(width),
            _dead_gates(width),
            *(_random_netlist(width, width + seed) for seed in range(3)),
        ):
            pairs = [
                (o, o % width, width + o % width)
                for o in range(len(circuit.outputs))
            ]
            program, ops, cmp_rows, fill, n_rows = self._lowered(
                circuit, width, pairs
            )
            inputs = []
            for _ in program.input_slots:  # each lane 0, 1 or M
                can0 = rng.getrandbits(lanes)
                inputs.append((can0, (can0 ^ full) | rng.getrandbits(lanes)))
            plane = lower_ops(program.ops, program.n_slots)
            P = [0] * plane.n_planes
            for slot, (a0, a1) in zip(program.input_slots, inputs):
                P[2 * slot], P[2 * slot + 1] = a0, a1
            for slot, can0, can1 in program.const_slots:
                P[2 * slot], P[2 * slot + 1] = full * can0, full * can1
            BigIntBackend().run_ops(plane.ops, P)
            p0, p1 = [P[i] for i in plane.can0], [P[i] for i in plane.can1]
            r0, r1 = self._run_lowered(ops, fill, n_rows, inputs, full)
            outs, ins = program.output_slots, program.input_slots
            slots = [s for o, a, b in pairs for s in (outs[o], ins[a], ins[b])]
            for slot, r in zip(slots, cmp_rows):
                got = (r1[~r], r0[~r]) if r < 0 else (r0[r], r1[r])
                assert got == (p0[slot], p1[slot]), (circuit.name, slot)
            swaps = _SWAP_A | _SWAP_B | _SWAP_C
            forms |= {
                (w & 7, w >> _INNER_SHIFT & 7, w & swaps)
                for w, *_ in ops if w & _FUSED
            }
        assert forms == set(itertools.product(
            (OP_AND, OP_OR), (OP_AND, OP_OR),
            (a | b | c for a in (0, _SWAP_A) for b in (0, _SWAP_B)
             for c in (0, _SWAP_C)),
        ))


# ----------------------------------------------------------------------
# Compiled programs across backends
# ----------------------------------------------------------------------
class TestCompiledBackends:
    def test_cache_keyed_per_backend(self):
        c = build_two_sort(2)
        big = compile_circuit(c, "bigint")
        nat = compile_circuit(c, "native")
        assert big is not nat
        assert compile_circuit(c, "bigint") is big
        assert compile_circuit(c, "native") is nat

    def test_cache_invalidated_on_mutation_for_all_backends(self):
        c = Circuit("grow")
        a, b = c.add_input("a"), c.add_input("b")
        c.add_output(c.add_gate(AND2, [a, b]))
        first_big = compile_circuit(c, "bigint")
        first_nat = compile_circuit(c, "native")
        c.add_output(c.add_gate(OR2, [a, b]))
        assert compile_circuit(c, "bigint") is not first_big
        assert compile_circuit(c, "native") is not first_nat

    def test_cache_detects_reregistered_backend(self):
        c = build_two_sort(2)
        original = get_backend("bigint")
        stale = compile_circuit(c, "bigint")
        replacement = BigIntBackend()
        try:
            register_backend("bigint", replacement)
            fresh = compile_circuit(c, "bigint")
            assert fresh is not stale
            assert fresh.backend is replacement
        finally:
            register_backend("bigint", original)

    def test_evaluate_batch_matches_bigint(self, backend):
        circuit = build_two_sort(3)
        rng = random.Random(2018)
        vectors = [
            [rng.choice(ALL_TRITS) for _ in range(6)] for _ in range(100)
        ]
        ref = compile_circuit(circuit, "bigint").evaluate_batch(vectors)
        out = compile_circuit(circuit, backend).evaluate_batch(vectors)
        assert out == ref


# ----------------------------------------------------------------------
# Verification equivalence
# ----------------------------------------------------------------------
def _broken_two_sort(width):
    good = build_two_sort(width)
    broken = Circuit("broken")
    ins = [broken.add_input(n) for n in good.inputs]
    outs = broken.instantiate(good, ins)
    broken.add_outputs(outs[width:] + outs[:width])
    return broken


class TestVerifyBackends:
    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_identical_summaries(self, width, backend):
        circuit = build_two_sort(width)
        ref = verify_two_sort_circuit(circuit, width, backend="bigint")
        out = verify_two_sort_circuit(circuit, width, backend=backend)
        assert out.summary() == ref.summary()
        assert out.ok

    def test_identical_failure_reports(self, backend):
        """Mismatch-lane extraction and per-lane decode must agree
        bit-for-bit: same failing pairs, same messages, same order."""
        broken = _broken_two_sort(3)
        ref = verify_two_sort_circuit(broken, 3, backend="bigint")
        out = verify_two_sort_circuit(broken, 3, backend=backend)
        assert not out.ok
        assert out.failure_count == ref.failure_count
        assert out.failures == ref.failures

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", ["native", "auto"])
    def test_sharded_identical_across_backends(self, jobs, name):
        """Sharded reports byte-identical to bigint for every registered
        backend and the auto alias (whatever it resolves to here)."""
        circuit = build_two_sort(5)
        ref = verify_two_sort_sharded(circuit, 5, jobs=jobs, backend="bigint")
        out = verify_two_sort_sharded(circuit, 5, jobs=jobs, backend=name)
        assert out.to_json() == ref.to_json()
        assert out.checked == 3969

    def test_sharded_failure_reports_identical_native(self):
        """Mismatch extraction through the fused kernel select-diff must
        reproduce bigint's failure tuples byte-for-byte."""
        broken = _broken_two_sort(3)
        ref = verify_two_sort_sharded(broken, 3, jobs=2, backend="bigint")
        out = verify_two_sort_sharded(broken, 3, jobs=2, backend="native")
        assert not out.ok
        assert out.to_json() == ref.to_json()

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_single_gate_mutants_report_as_bigint(self, width):
        """Every AND2<->OR2 and INV->BUF mutant of 2-sort(width), each
        one a fault somewhere in a fused op: native's report, failing
        pairs included, is bigint's."""
        base = build_two_sort(width)
        sites = [g.output for g in base.gates if g.kind in _MUTATED_KIND]
        assert {g.kind for g in base.gates} >= {AND2, OR2, INV}
        failing = 0
        for site in sites:
            mutant = _swap_gate(base, site)
            ref = verify_two_sort_circuit(mutant, width, backend="bigint")
            out = verify_two_sort_circuit(mutant, width, backend="native")
            assert out.to_json() == ref.to_json(), site
            failing += not ref.ok
        assert failing == len(sites)

    def test_process_pool_forwards_backend_name(self):
        """--backend native across a real pool: workers compile on the
        named backend and counts stay bit-identical."""
        circuit = build_two_sort(4)
        out = verify_two_sort_sharded(
            circuit, 4, jobs=2, executor="process", backend="native"
        )
        ref = verify_two_sort_circuit(circuit, 4)
        assert (out.checked, out.failure_count) == (ref.checked, 0)


# ----------------------------------------------------------------------
# Default sweep plan: whole g-rows per backend lane budget (pinned)
# ----------------------------------------------------------------------
class TestDefaultShardSize:
    """The ranges a default sweep plans: as many whole g-rows as fit
    the backend's lane budget (``sweep_plan`` records them)."""

    def test_pinned_sizes_bigint(self, sweep_plan):
        # width -> g-rows per range within the 2^14-lane budget: the
        # whole domain while S*S fits (B <= 6), then 16384 // S rows.
        expected = {1: 3, 5: 63, 6: 127, 7: 64, 8: 32, 9: 16, 10: 8,
                    11: 4, 12: 2, 13: 1}
        # The lane sizes earlier versions planned at B >= 8 (jobs=1)
        # give the same ranges, so stores keyed there stay warm.
        earlier = {8: 16384, 9: 16384, 10: 16376, 11: 16384, 12: 16384,
                   13: 16384}
        for width, rows in expected.items():
            S = (1 << (width + 1)) - 1
            plan = sweep_plan(width, jobs=1, backend="bigint")
            assert plan == pair_shards(width, rows * S), (width, plan[:2])
            if width in earlier:
                assert plan == pair_shards(width, earlier[width]), width

    def test_pinned_sizes_native(self, sweep_plan):
        if not get_backend("native").built:
            pytest.skip("native kernel not built: native sizes as bigint")
        # The 2^18-lane budget runs the whole domain as one range up to
        # B=8 (S*S = 261,121 lanes), then 262144 // S rows.
        expected = {1: 3, 5: 63, 8: 511, 9: 256, 10: 128, 11: 64,
                    12: 32, 13: 16}
        # ... and so do those earlier versions planned at B >= 10.
        earlier = {10: 262016, 12: 262144, 13: 262144}
        for width, rows in expected.items():
            S = (1 << (width + 1)) - 1
            plan = sweep_plan(width, jobs=1, backend="native")
            assert plan == pair_shards(width, rows * S), (width, plan[:2])
            if width in earlier:
                assert plan == pair_shards(width, earlier[width]), width

    def test_whole_rows_at_wide_widths(self, sweep_plan):
        for width in (10, 11, 12, 13):
            S = (1 << (width + 1)) - 1
            plan = sweep_plan(width, jobs=1, backend="bigint")
            rows = {hi - lo for lo, hi in plan[:-1]}
            # every range but the last is the same whole number of rows,
            # as many as fit the budget
            assert rows == {(1 << 14) // S}
            assert plan[0] == (0, (1 << 14) // S)
            assert plan[-1][1] == S


# ----------------------------------------------------------------------
# Property-based equivalence (hypothesis)
# ----------------------------------------------------------------------
def valid_strings(width):
    n_ranks = (1 << (width + 1)) - 1
    return st.integers(min_value=0, max_value=n_ranks - 1).map(
        lambda r: from_rank(r, width)
    )


def layered_networks(max_channels=5, max_comparators=8):
    def build(spec):
        channels, raw = spec
        comps = []
        for a, b in raw:
            lo, hi = sorted((a % channels, b % channels))
            if lo != hi:
                comps.append((lo, hi))
        return from_comparator_list(channels, comps, name="random")

    return st.tuples(
        st.integers(min_value=2, max_value=max_channels),
        st.lists(
            st.tuples(st.integers(0, 31), st.integers(0, 31)),
            max_size=max_comparators,
        ),
    ).map(build)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_batch_serial_equals_sharded_on_random_networks(data):
    """The compiled batch path sorts random layered networks exactly as
    the per-vector fsm engine does (the id predates the removal of
    sharded batch sorts)."""
    width = data.draw(st.integers(min_value=1, max_value=3))
    net = data.draw(layered_networks())
    vectors = data.draw(
        st.lists(
            st.lists(
                valid_strings(width),
                min_size=net.channels,
                max_size=net.channels,
            ),
            max_size=5,
        )
    )
    batch = sort_words_batch(net, vectors)
    assert batch == [sort_words(net, v, engine="fsm") for v in vectors]


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
def test_sharded_verification_identical_across_backends(width, jobs):
    """Sharded VerificationResults are bit-identical across backends
    on every width/job combination hypothesis throws at them."""
    circuit = build_two_sort(width)
    ref = verify_two_sort_sharded(
        circuit, width, jobs=jobs, executor="serial", backend="bigint"
    )
    out = verify_two_sort_sharded(
        circuit, width, jobs=jobs, executor="serial", backend="native"
    )
    assert (out.checked, out.failure_count, out.failures) == (
        ref.checked,
        ref.failure_count,
        ref.failures,
    )
