"""Property-based tests (hypothesis) on core invariants.

Coverage at widths beyond exhaustive reach: random valid strings up to
32 bits, random ternary words, and algebraic laws of the substrate.
"""

from hypothesis import given, settings, strategies as st

from repro.core.diamond import diamond_m
from repro.core.functional import two_sort_via_fsm
from repro.core.two_sort import build_two_sort, predicted_gate_count
from repro.circuits.evaluate import evaluate_words
from repro.graycode.ops import two_sort_closure
from repro.graycode.rgc import gray_decode, gray_encode
from repro.graycode.valid import from_rank, is_valid, rank, value_interval
from repro.networks.comparator import from_comparator_list
from repro.networks.simulate import ENGINES, sort_words, sort_words_batch
from repro.ppc.prefix import ladner_fischer_prefixes, lf_op_count, serial_prefixes
from repro.ternary.resolution import resolutions, superpose
from repro.ternary.trit import Trit
from repro.ternary.word import Word

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
trits = st.sampled_from([Trit.ZERO, Trit.ONE, Trit.META])


def words(width):
    return st.lists(trits, min_size=width, max_size=width).map(Word)


def valid_strings(width):
    n_ranks = (1 << (width + 1)) - 1
    return st.integers(min_value=0, max_value=n_ranks - 1).map(
        lambda r: from_rank(r, width)
    )


# ----------------------------------------------------------------------
# Ternary substrate laws
# ----------------------------------------------------------------------
@given(words(6))
def test_superpose_resolutions_round_trip(w):
    """∗ res(x) = x (Observation 2.6) at random widths."""
    assert superpose(resolutions(w)) == w


@given(words(5), words(5))
def test_superposition_commutative(a, b):
    assert a * b == b * a


@given(words(5), words(5), words(5))
def test_superposition_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(words(4))
def test_superpose_idempotent(a):
    assert a * a == a


# ----------------------------------------------------------------------
# Gray code laws
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=16), st.data())
def test_gray_round_trip(width, data):
    x = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1))
    assert gray_decode(gray_encode(x, width)) == x


@given(st.integers(min_value=2, max_value=14), st.data())
def test_adjacent_codewords_hamming_one(width, data):
    x = data.draw(st.integers(min_value=0, max_value=(1 << width) - 2))
    g0, g1 = gray_encode(x, width), gray_encode(x + 1, width)
    assert sum(1 for a, b in zip(g0, g1) if a is not b) == 1


@given(valid_strings(8))
def test_valid_string_rank_interval_consistency(w):
    lo, hi = value_interval(w)
    assert rank(w) in (2 * lo, 2 * lo + 1)
    assert hi - lo == w.metastable_count


# ----------------------------------------------------------------------
# 2-sort semantics at large widths
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(valid_strings(16), valid_strings(16))
def test_circuit_matches_spec_width16(g, h):
    """Gate-level 2-sort(16) == closure spec on random valid pairs."""
    circuit = _cached16()
    out = evaluate_words(circuit, g, h)
    assert (out[:16], out[16:]) == two_sort_closure(g, h)


_CIRCUIT16 = None


def _cached16():
    global _CIRCUIT16
    if _CIRCUIT16 is None:
        _CIRCUIT16 = build_two_sort(16)
    return _CIRCUIT16


@settings(max_examples=30, deadline=None)
@given(valid_strings(32), valid_strings(32))
def test_fsm_decomposition_matches_spec_width32(g, h):
    assert two_sort_via_fsm(g, h) == two_sort_closure(g, h)


@settings(max_examples=60, deadline=None)
@given(valid_strings(12), valid_strings(12))
def test_outputs_are_valid_strings(g, h):
    mx, mn = two_sort_via_fsm(g, h)
    assert is_valid(mx) and is_valid(mn)
    assert rank(mx) >= rank(mn)
    assert sorted((rank(mx), rank(mn))) == sorted((rank(g), rank(h)))


# ----------------------------------------------------------------------
# Theorem 4.1 at large widths
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(valid_strings(20), valid_strings(20))
def test_diamond_closure_order_independence(g, h):
    items = [Word([g.bit(i), h.bit(i)]) for i in range(1, 21)]
    assert ladner_fischer_prefixes(items, diamond_m) == serial_prefixes(
        items, diamond_m
    )


# ----------------------------------------------------------------------
# Batched network simulation vs the per-vector reference
# ----------------------------------------------------------------------
def layered_networks(max_channels=5, max_comparators=8):
    """Random valid layered networks via ASAP packing of comparator lists."""

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


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_batch_agrees_with_per_vector_all_engines(data):
    """sort_words_batch == per-vector sort_words for every registered
    engine on randomized M-laden words and random layered networks."""
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
    reference = None
    for engine in sorted(ENGINES):
        per_vector = [sort_words(net, v, engine=engine) for v in vectors]
        assert sort_words_batch(net, vectors, engine=engine) == per_vector
        # engines agree with each other on valid inputs
        if reference is None:
            reference = per_vector
        else:
            assert per_vector == reference


# ----------------------------------------------------------------------
# PPC accounting
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=300))
def test_lf_op_count_monotone_and_linear(n):
    assert lf_op_count(n) <= 2 * n
    if n > 1:
        assert lf_op_count(n) >= lf_op_count(n - 1)


@given(st.integers(min_value=2, max_value=200))
def test_gate_count_formula_linear_bound(width):
    assert predicted_gate_count(width) <= 31 * width
