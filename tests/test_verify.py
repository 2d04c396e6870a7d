"""Tests for repro.verify (exhaustive sweeps and random workloads)."""

import random

import pytest

from repro.circuits.evaluate import evaluate_words
from repro.circuits.gates import AND2, OR2
from repro.circuits.netlist import Circuit
from repro.core.two_sort import build_two_sort
from repro.graycode.ops import two_sort_closure
from repro.graycode.valid import all_valid_strings, is_valid, rank
from repro.ternary.trit import Trit
from repro.ternary.word import Word
from repro.verify import exhaustive
from repro.verify.exhaustive import (
    VerificationResult,
    _string_bit_masks,
    valid_pairs,
    verify_two_sort_circuit,
)
from repro.verify.parallel import verify_two_sort_sharded
from repro.verify.random_valid import (
    ValidStringSource,
    measurement_sweep,
    verify_random_pairs,
)


class TestVerificationResult:
    def test_empty_is_ok(self):
        assert VerificationResult().ok

    def test_record_counts_beyond_limit(self):
        r = VerificationResult()
        for i in range(30):
            r.record(f"failure {i}", limit=5)
        assert r.failure_count == 30
        assert len(r.failures) == 5
        assert "30 FAILURES" in r.summary()

    def test_summary_ok(self):
        r = VerificationResult(checked=10)
        assert "OK" in r.summary()

    def test_truncation_is_flagged(self):
        """The hard-coded failure cap used to drop counterexamples
        silently; now every consumer can see that it happened."""
        r = VerificationResult()
        for i in range(25):
            r.record(f"failure {i}")
        assert r.truncated is True
        assert len(r.failures) == 20
        assert "first 20 shown" in r.summary()

    def test_no_truncation_within_limit(self):
        r = VerificationResult()
        for i in range(5):
            r.record(f"failure {i}")
        assert r.truncated is False
        assert "first" not in r.summary()

    def test_merge_propagates_truncation(self):
        capped = VerificationResult()
        for i in range(30):
            capped.record(f"x{i}")
        clean = VerificationResult(checked=5)
        merged = VerificationResult.merge([clean, capped])
        assert merged.truncated is True

    def test_merge_sets_truncation_when_cap_drops_messages(self):
        parts = []
        for k in range(3):
            r = VerificationResult()
            for i in range(10):  # each under the cap on its own
                r.record(f"shard{k}-{i}")
            assert not r.truncated
            parts.append(r)
        merged = VerificationResult.merge(parts)
        assert merged.failure_count == 30
        assert len(merged.failures) == 20
        assert merged.truncated is True

    def test_to_dict_round_trips_through_json(self):
        import json

        r = VerificationResult(checked=7)
        r.record("bad")
        r.elapsed = 0.25
        payload = json.loads(r.to_json())
        assert payload == {
            "checked": 7,
            "ok": False,
            "failure_count": 1,
            "failures": ["bad"],
            "truncated": False,
            "elapsed_s": 0.25,
        }

    def test_to_dict_omits_unset_timing(self):
        assert "elapsed_s" not in VerificationResult().to_dict()


class TestExhaustive:
    def test_valid_pairs_count(self):
        assert sum(1 for _ in valid_pairs(3)) == 15 * 15

    def test_verify_good_circuit(self):
        result = verify_two_sort_circuit(build_two_sort(2), 2)
        assert result.ok and result.checked == 49

    def test_verify_catches_broken_circuit(self):
        """A circuit with swapped outputs must be flagged."""
        from repro.circuits.netlist import Circuit

        good = build_two_sort(2)
        broken = Circuit("broken")
        ins = [broken.add_input(n) for n in good.inputs]
        outs = broken.instantiate(good, ins)
        # swap max and min busses
        broken.add_outputs(outs[2:] + outs[:2])
        result = verify_two_sort_circuit(broken, 2)
        assert not result.ok
        assert result.failure_count > 0


class TestStringBitMasks:
    """The masks come from Gray-code arithmetic in rank space; the walk
    over ``Word`` objects they replaced is kept here as the reference."""

    @staticmethod
    def _word_walk(width):
        m0 = [0] * width
        m1 = [0] * width
        for i, w in enumerate(all_valid_strings(width)):
            for b, t in enumerate(w):
                if t is not Trit.ONE:
                    m0[b] |= 1 << i
                if t is not Trit.ZERO:
                    m1[b] |= 1 << i
        return tuple(m0), tuple(m1)

    @pytest.mark.parametrize("width", range(1, 13))
    def test_equals_word_walk(self, width):
        assert _string_bit_masks(width) == self._word_walk(width)

    def test_width_16_masks_cover_every_lane(self):
        lanes = (1 << 17) - 1
        m0, m1 = _string_bit_masks(16)
        assert len(m0) == len(m1) == 16
        for b in range(16):
            assert m0[b] < 1 << lanes and m1[b] < 1 << lanes
            assert m0[b] | m1[b] == (1 << lanes) - 1


def _swap_gate(base, site):
    """``base`` with gate ``site`` swapped AND2 <-> OR2 (a real fault)."""
    out = Circuit(name=f"{base.name}-swap")
    for net in base.inputs:
        out.add_input(net=net)
    for gate in base.gates:
        kind = gate.kind
        if gate.output == site:
            kind = OR2 if kind is AND2 else AND2
        out.add_gate(kind, gate.inputs, output=gate.output)
    for net in base.outputs:
        out.add_output(net)
    return out


class TestStringsOnlyOnFailure:
    """A sweep builds the valid-string tuple only to word its failure
    messages: a passing sweep never calls ``all_valid_strings``."""

    WIDTH = 6

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        inner = exhaustive.all_valid_strings

        def counting(width):
            calls.append(width)
            return inner(width)

        monkeypatch.setattr(exhaustive, "all_valid_strings", counting)
        return calls

    def test_passing_sweep_builds_no_strings(self, monkeypatch, plane_backend):
        calls = self._count_calls(monkeypatch)
        result = verify_two_sort_sharded(
            build_two_sort(self.WIDTH), self.WIDTH, jobs=1,
            backend=plane_backend,
        )
        assert result.ok and result.checked == ((1 << (self.WIDTH + 1)) - 1) ** 2
        assert calls == []

    def test_failing_report_equals_bigint_reference(
        self, monkeypatch, plane_backend
    ):
        width = self.WIDTH
        base = build_two_sort(width)
        sites = [g.output for g in base.gates if g.kind in (AND2, OR2)]
        faulty = _swap_gate(base, random.Random(2018).choice(sites))
        want = verify_two_sort_circuit(faulty, width, backend="bigint")
        calls = self._count_calls(monkeypatch)
        got = verify_two_sort_sharded(
            faulty, width, jobs=1, backend=plane_backend
        )
        assert not want.ok
        assert got.to_dict() == want.to_dict()
        assert calls and set(calls) == {width}
        # Every kept message names a pair the scalar simulator gets wrong.
        for message in got.failures:
            g, h = message[1:message.index(")")].split(", ")
            out = evaluate_words(faulty, Word(g), Word(h))
            top, bottom = two_sort_closure(Word(g), Word(h))
            assert (out[:width], out[width:]) != (top, bottom)
            assert message == (
                f"({g}, {h}): got {out[:width]}/{out[width:]}, "
                f"want {top}/{bottom}"
            )


class TestVerifyRandomPairs:
    def test_good_circuit_passes(self):
        result = verify_random_pairs(build_two_sort(6), 6, 200, seed=4)
        assert result.ok and result.checked == 200

    def test_broken_circuit_caught(self):
        from repro.circuits.netlist import Circuit

        good = build_two_sort(3)
        broken = Circuit("broken")
        ins = [broken.add_input(n) for n in good.inputs]
        outs = broken.instantiate(good, ins)
        broken.add_outputs(outs[3:] + outs[:3])  # swap max/min busses
        result = verify_random_pairs(broken, 3, 300, meta_rate=0.5, seed=1)
        assert not result.ok
        assert "got" in result.failures[0] and "want" in result.failures[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="needs 8 inputs"):
            verify_random_pairs(build_two_sort(3), 4, 10)

    def test_deterministic_by_seed(self):
        a = verify_random_pairs(build_two_sort(4), 4, 50, seed=9)
        b = verify_random_pairs(build_two_sort(4), 4, 50, seed=9)
        assert a.checked == b.checked == 50 and a.ok and b.ok


class TestValidStringSource:
    def test_samples_are_valid(self):
        src = ValidStringSource(4, meta_rate=0.5, seed=1)
        for _ in range(200):
            assert is_valid(src.sample())

    def test_meta_rate_zero_gives_stable(self):
        src = ValidStringSource(4, meta_rate=0.0, seed=2)
        assert all(src.sample().is_stable for _ in range(100))

    def test_meta_rate_one_gives_superposed(self):
        src = ValidStringSource(4, meta_rate=1.0, seed=3)
        assert all(src.sample().metastable_count == 1 for _ in range(100))

    def test_meta_rate_bounds(self):
        with pytest.raises(ValueError):
            ValidStringSource(4, meta_rate=1.5)

    def test_deterministic_by_seed(self):
        a = ValidStringSource(4, seed=7)
        b = ValidStringSource(4, seed=7)
        assert [a.sample() for _ in range(20)] == [b.sample() for _ in range(20)]

    def test_pair_and_vector(self):
        src = ValidStringSource(3, seed=5)
        g, h = src.sample_pair()
        assert len(g) == len(h) == 3
        vec = src.sample_vector(7)
        assert len(vec) == 7

    def test_uniform_rank_covers_superpositions(self):
        src = ValidStringSource(2, seed=11)
        ranks = {rank(src.sample_uniform_rank()) for _ in range(300)}
        assert ranks == set(range(7))  # all 7 valid strings of width 2


class TestMeasurementSweep:
    def test_shape_and_reproducibility(self):
        a = measurement_sweep(3, channels=4, vectors=5, seed=9)
        b = measurement_sweep(3, channels=4, vectors=5, seed=9)
        assert a == b
        assert len(a) == 5 and all(len(v) == 4 for v in a)
