"""Fixed-width vectors of trits -- the ``{0, 1, M}^B`` strings of the paper.

A :class:`Word` is an immutable, hashable sequence of :class:`Trit`
values.  Indexing follows the paper's 1-based convention through
:meth:`Word.bit` (``g_1`` is the most significant / first bit) while the
normal Python sequence protocol stays 0-based.  Substrings ``g_{i,j}``
(1-based, inclusive) are available via :meth:`Word.substring`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple, Union

from .trit import (
    _CHAR_TO_TRIT,
    _TRIT_TO_CHAR,
    Trit,
    TritLike,
    canonical_trit_string,
)


class Word(Sequence[Trit]):
    """An immutable string over the alphabet ``{0, 1, M}``.

    Construction accepts a string like ``"0M10"``, an iterable of
    trit-likes, or another :class:`Word`.

    >>> Word("0M10").bit(2)
    Trit.META
    >>> str(Word([0, 1, 'M']))
    '01M'
    """

    __slots__ = ("_trits",)

    def __init__(self, bits: Union[str, Iterable[TritLike], "Word"]):
        if isinstance(bits, Word):
            self._trits: Tuple[Trit, ...] = bits._trits
        elif isinstance(bits, str):
            bits = canonical_trit_string(bits)
            self._trits = tuple(map(_CHAR_TO_TRIT.__getitem__, bits))
        else:
            self._trits = tuple(Trit.coerce(b) for b in bits)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, width: int) -> "Word":
        """The all-zero word of the given width."""
        return cls([Trit.ZERO] * width)

    @classmethod
    def ones(cls, width: int) -> "Word":
        """The all-one word of the given width."""
        return cls([Trit.ONE] * width)

    @classmethod
    def from_int(cls, value: int, width: int) -> "Word":
        """Standard (non-Gray) binary encoding, MSB first."""
        if value < 0 or value >= (1 << width):
            raise ValueError(f"{value} does not fit in {width} bits")
        return cls((value >> (width - 1 - i)) & 1 for i in range(width))

    # ------------------------------------------------------------------
    # Sequence protocol (0-based)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._trits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Word(self._trits[index])
        return self._trits[index]

    def __iter__(self) -> Iterator[Trit]:
        return iter(self._trits)

    # ------------------------------------------------------------------
    # Paper-style 1-based accessors
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of trits ``B``."""
        return len(self._trits)

    def bit(self, i: int) -> Trit:
        """1-based bit access: ``w.bit(1)`` is the paper's ``g_1``."""
        if not 1 <= i <= len(self._trits):
            raise IndexError(f"bit index {i} out of range 1..{len(self._trits)}")
        return self._trits[i - 1]

    def substring(self, i: int, j: int) -> "Word":
        """The paper's ``g_{i,j}`` = ``g_i ... g_j`` (1-based, inclusive)."""
        if not 1 <= i <= j <= len(self._trits):
            raise IndexError(
                f"substring bounds ({i}, {j}) out of range for width {len(self)}"
            )
        return Word(self._trits[i - 1 : j])

    # ------------------------------------------------------------------
    # Predicates and measures
    # ------------------------------------------------------------------
    @property
    def is_stable(self) -> bool:
        """True iff no trit is metastable."""
        return all(t.is_stable for t in self._trits)

    @property
    def metastable_count(self) -> int:
        """Number of ``M`` positions."""
        return sum(1 for t in self._trits if t.is_metastable)

    def metastable_positions(self) -> Tuple[int, ...]:
        """1-based positions of metastable trits."""
        return tuple(i + 1 for i, t in enumerate(self._trits) if t.is_metastable)

    def parity(self) -> Trit:
        """``par(g)`` = sum of the bits mod 2, under the closure.

        Metastable bits make the parity metastable (XOR propagates M).
        """
        ones = sum(1 for t in self._trits if t is Trit.ONE)
        if any(t.is_metastable for t in self._trits):
            return Trit.META
        return Trit.ONE if ones % 2 else Trit.ZERO

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_int(self) -> int:
        """Interpret as plain binary (MSB first); raises if metastable."""
        value = 0
        for t in self._trits:
            value = (value << 1) | t.to_int()
        return value

    def __str__(self) -> str:
        return "".join(map(_TRIT_TO_CHAR.__getitem__, self._trits))

    def __repr__(self) -> str:
        return f"Word('{self}')"

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def superpose(self, other: "Word") -> "Word":
        """The ``*`` operator of Definition 2.1 (bitwise superposition)."""
        if len(self) != len(other):
            raise ValueError(
                f"superposition of mismatched widths {len(self)} and {len(other)}"
            )
        return Word(a.superpose(b) for a, b in zip(self, other))

    def __mul__(self, other: "Word") -> "Word":
        """``g * h`` is the paper's ``g ∗ h`` superposition."""
        return self.superpose(other)

    def concat(self, other: "Word") -> "Word":
        """Concatenation ``g . h``."""
        return Word(self._trits + Word(other)._trits)

    def invert(self) -> "Word":
        """Bitwise closure inverter (M stays M)."""
        from .kleene import kleene_not

        return Word(kleene_not(t) for t in self._trits)

    def replace_bit(self, i: int, value: TritLike) -> "Word":
        """Return a copy with 1-based bit ``i`` replaced."""
        if not 1 <= i <= len(self._trits):
            raise IndexError(f"bit index {i} out of range 1..{len(self._trits)}")
        trits = list(self._trits)
        trits[i - 1] = Trit.coerce(value)
        return Word(trits)

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Word):
            return self._trits == other._trits
        if isinstance(other, str):
            try:
                return self._trits == Word(other)._trits
            except ValueError:
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._trits)


def word(bits: Union[str, Iterable[TritLike], Word]) -> Word:
    """Functional constructor, convenient in tests and examples."""
    return Word(bits)
