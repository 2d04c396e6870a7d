"""Valid strings ``S^B_rg`` and their total order (Definition 2.3, Table 2).

A valid string is either a Gray codeword ``rg(x)`` or the superposition
``rg(x) ∗ rg(x+1)`` of two adjacent codewords -- i.e., a codeword with
the unique transition bit replaced by ``M``.  Valid strings model the
possible outputs of a metastability-aware time-to-digital converter [7]:
at most one bit is "in flight" at any time.

The set carries a natural total order (Table 2):

    rg(0) < rg(0)∗rg(1) < rg(1) < rg(1)∗rg(2) < ... < rg(N-1)

under which ``max_rg_M`` / ``min_rg_M`` (the metastable closures of
max/min) are exactly the lattice max/min.  We expose the order through
:func:`rank`: stable ``rg(x)`` has rank ``2x``, the superposed
``rg(x)∗rg(x+1)`` has rank ``2x+1``, so ranks enumerate Table 2 rows.

**The string form.**  Over ``{0, 1, M}`` (``'m'`` reads as ``M``), a
string is valid iff it holds no ``M``, or exactly one ``M`` that is
either the last character or followed by a ``1`` and then only zeros
-- the regular language ``[01]*(M(10*)?)?``.  This is where the
reflected Gray code flips between neighbours: ``rg(x)`` and
``rg(x+1)`` differ in the last bit when ``x`` is even, and otherwise in
the bit just above the lowest ``1`` of ``rg(x)``, with only zeros
below that ``1``.  Conversely each such ``M`` joins two adjacent
codewords: a final ``M`` joins the even- and odd-parity completions of
its prefix, and in ``...M10..0`` the odd-parity resolution is an odd
``x`` whose next codeword flips exactly the ``M`` bit.  (Hamming
distance one alone is not enough: ``rg(0) = 000`` and ``rg(7) = 100``
are not neighbours.)  :func:`all_valid` checks a batch of words
against this language with one regular-expression match per 256 words;
:func:`invalid_lanes` checks it on the bit planes of a packed batch
(the batch sort's codec packs them anyway), a few int operations per
plane and no per-word step.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from ..ternary.trit import canonical_trit_string
from ..ternary.word import Word
from .rgc import gray_encode

#: A word in either form: a :class:`Word` or its ``{0,1,M,m}`` string.
WordLike = Union[str, Word]


class InvalidStringError(ValueError):
    """Raised when a word is not a member of ``S^B_rg``."""


def make_valid(x: int, width: int, metastable: bool = False) -> Word:
    """Construct the valid string of value ``x`` (or ``x ∗ x+1``).

    With ``metastable=False`` this is plain ``rg(x)``; with
    ``metastable=True`` it is ``rg(x) ∗ rg(x+1)`` and requires
    ``x < 2**width - 1``.
    """
    if not metastable:
        return gray_encode(x, width)
    if x + 1 >= (1 << width):
        raise ValueError(
            f"no superposition rg({x})∗rg({x + 1}) in {width}-bit code"
        )
    return gray_encode(x, width).superpose(gray_encode(x + 1, width))


def from_rank(r: int, width: int) -> Word:
    """Inverse of :func:`rank`: the valid string with order-rank ``r``.

    Ranks run from 0 (``rg(0)``) to ``2**(width+1) - 2`` (``rg(N-1)``).
    """
    n_ranks = (1 << (width + 1)) - 1
    if not 0 <= r < n_ranks:
        raise ValueError(f"rank {r} out of range [0, {n_ranks})")
    return make_valid(r // 2, width, metastable=bool(r % 2))


def is_valid(w: WordLike) -> bool:
    """Membership test for ``S^B_rg``."""
    return try_rank(w) is not None


def _gray_decode_int(g: int) -> int:
    """Binary value of the Gray codeword whose bits are ``g``: prefix XOR."""
    shift = 1
    while g >> shift:
        g ^= g >> shift
        shift <<= 1
    return g


def try_rank(w: WordLike) -> Optional[int]:
    """Rank of ``w`` in the total order of Table 2, or None if invalid.

    ``w`` is a :class:`Word` or its string (``'m'`` reads as ``M``); a
    character outside ``{0, 1, M, m}`` raises the
    :meth:`Trit.from_char` ``ValueError``.
    """
    s = canonical_trit_string(w if isinstance(w, str) else str(w))
    metas = s.count("M")
    if not metas:
        return 2 * _gray_decode_int(int(s, 2)) if s else 0
    if metas > 1:
        return None
    # Exactly one M: both resolutions must be codewords of adjacent value.
    a = _gray_decode_int(int(s.replace("M", "0"), 2))
    b = _gray_decode_int(int(s.replace("M", "1"), 2))
    if abs(a - b) != 1:
        return None
    return 2 * min(a, b) + 1


def rank(w: WordLike) -> int:
    """Rank of a valid string in the total order; raises if invalid.

    Stable ``rg(x)`` maps to ``2x``; ``rg(x)∗rg(x+1)`` maps to ``2x+1``.
    """
    r = try_rank(w)
    if r is None:
        raise InvalidStringError(f"{Word(w)!r} is not a valid string")
    return r


def value_interval(w: WordLike):
    """The closed integer interval of values ``w`` may represent.

    ``rg(x)`` yields ``(x, x)``; ``rg(x)∗rg(x+1)`` yields ``(x, x+1)``.
    """
    r = rank(w)
    if r % 2 == 0:
        return (r // 2, r // 2)
    return (r // 2, r // 2 + 1)


@lru_cache(maxsize=None)
def all_valid_strings(width: int) -> Tuple[Word, ...]:
    """All ``2**(width+1) - 1`` valid strings in ascending order.

    Enumerates Table 2 (for ``width == 4``) top-to-bottom through the
    interleaving stable / superposed pattern.  Cached per width (and
    returned as an immutable tuple) so exhaustive sweeps and workload
    generators never re-enumerate the valid domain.
    """
    return tuple(from_rank(r, width) for r in range((1 << (width + 1)) - 1))


def count_valid_strings(width: int) -> int:
    """``|S^B_rg| = 2^{B+1} - 1``."""
    return (1 << (width + 1)) - 1


def validate(w: WordLike) -> WordLike:
    """Assert validity, returning the word unchanged (pipeline helper)."""
    if not is_valid(w):
        raise InvalidStringError(f"{Word(w)!r} is not a valid string")
    return w


#: :func:`all_valid`'s language over a batch: each word matches
#: ``[01]*(M(10*)?)?`` (see the module docstring), words joined by
#: ``_SEP``.  ``[01]`` and ``[Mm]`` are literal classes, so no other
#: character -- not even a Unicode digit ``int()`` would read -- matches.
#: Kept as source and compiled on first use (``re`` caches it), so
#: importing this module stays free for ``verify``.
_SEP = ","
_WORD = r"[01]*(?:[Mm](?:10*)?)?"
_VALID_BATCH = f"{_WORD}(?:{_SEP}{_WORD})*"
#: Words per match: the engine keeps ~0.4 KB of backtracking state per
#: repetition of the word group, so one match over a served batch of
#: 2,560 words would peak near 1 MB; 256 words peak near 0.1 MB.
_CHUNK = 256


def all_valid(words: Sequence[str]) -> bool:
    """Whether every string in ``words`` is in ``S^B_rg``.

    One regular-expression match per 256 joined words instead of one
    :func:`is_valid` call per word; the separator count rules out a word
    that itself holds the separator passing as two.  A character outside
    ``{0, 1, M, m}`` makes the answer False here (:func:`validate_all`
    raises that word's :func:`validate` error).
    """
    for lo in range(0, len(words), _CHUNK):
        part = words[lo : lo + _CHUNK]
        joined = _SEP.join(part)
        if (
            joined.count(_SEP) != len(part) - 1
            or re.fullmatch(_VALID_BATCH, joined) is None
        ):
            return False
    return True


def invalid_lanes(planes: Sequence[Tuple[int, int]], width: int) -> int:
    """The lanes of packed words that are not in ``S^B_rg``, as a mask.

    ``planes`` holds the ``(p0, p1)`` can-be-0 / can-be-1 plane pairs of
    consecutive ``width``-character words, character by character (pair
    ``c * width + b`` is character ``b`` of word ``c`` in every lane, as
    :func:`~repro.circuits.compiled.planes_from_str` packs a lane-major
    batch), each over the same lanes; every lane must have ``p0`` or
    ``p1`` set, so ``~p1`` marks a ``0`` and ``~p0`` a ``1``.  Per word,
    with ``m = p0 & p1`` marking an ``M``, a lane is invalid where it
    holds, after an ``M``,

    * a second ``M`` anywhere,
    * a ``0`` right after it, or
    * a ``1`` two or more places after it,

    which is the module docstring's language ``[01]*(M(10*)?)?``.  The
    three terms are disjoint (each names the character it finds), so
    none is implied by the others.  Bit ``j`` of the result is set iff
    some word of lane ``j`` is invalid.
    """
    bad = 0
    for lo in range(0, len(planes), width):
        seen = prev = later = 0  # M anywhere before, just before, 2+ before
        for p0, p1 in planes[lo : lo + width]:
            m = p0 & p1
            bad |= m & seen | prev & ~p1 | later & ~p0
            later = seen
            seen |= m
            prev = m
    return bad


def validate_all(words: Sequence[str]) -> None:
    """:func:`validate` every string in ``words``, in one pass when valid.

    A batch :func:`all_valid` accepts returns at once; otherwise the
    per-word loop runs and raises exactly what :func:`validate` raises
    for the first bad word.
    """
    if not all_valid(words):
        for w in words:
            validate(w)
