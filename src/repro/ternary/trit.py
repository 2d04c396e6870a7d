"""Three-valued logic values for worst-case metastability modelling.

The paper models a potentially metastable signal as a third logic value
``M`` alongside digital ``0`` and ``1`` (Section 2, following
Friedrichs/Fuegger/Lenzen, "Metastability-Containing Circuits").  ``M``
stands for an arbitrary, possibly time-varying voltage between the two
rails; a gate must treat it as a *wild card* that may be read as either
``0`` or ``1`` -- possibly differently by different fan-out branches.

This module defines :class:`Trit`, the atomic signal value, together with
the Kleene-logic connectives that the paper's computational model assigns
to standard cells (Table 3): a gate computes the *metastable closure* of
its Boolean function.  For AND/OR/NOT the closure coincides with strong
Kleene logic, which is why plain standard cells are usable as
metastability-containing building blocks.
"""

from __future__ import annotations

import enum
from typing import Iterable, Union


class Trit(enum.Enum):
    """A single three-valued logic signal: ``0``, ``1``, or metastable ``M``.

    The enum values are chosen so that ``Trit.ZERO.value == 0`` and
    ``Trit.ONE.value == 1`` for cheap conversion from/to Python ints.
    ``M`` uses the sentinel value 2 (never interpreted numerically).
    """

    ZERO = 0
    ONE = 1
    META = 2

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_char(cls, char: str) -> "Trit":
        """Parse a single character ``'0'``, ``'1'``, or ``'M'`` (or ``'m'``)."""
        try:
            return _CHAR_TO_TRIT[char]
        except KeyError:
            raise ValueError(
                f"invalid trit character {char!r}; expected '0', '1' or 'M'"
            ) from None

    @classmethod
    def from_int(cls, value: int) -> "Trit":
        """Convert a Boolean integer (0 or 1) into a stable trit."""
        if value == 0:
            return cls.ZERO
        if value == 1:
            return cls.ONE
        raise ValueError(f"invalid trit integer {value!r}; expected 0 or 1")

    @classmethod
    def coerce(cls, value: "TritLike") -> "Trit":
        """Coerce an int, bool, str, or :class:`Trit` into a :class:`Trit`."""
        if isinstance(value, Trit):
            return value
        if isinstance(value, bool):
            return cls.ONE if value else cls.ZERO
        if isinstance(value, int):
            return cls.from_int(value)
        if isinstance(value, str):
            return cls.from_char(value)
        raise TypeError(f"cannot interpret {value!r} as a Trit")

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    @property
    def is_stable(self) -> bool:
        """True iff the value is digital ``0`` or ``1`` (not metastable)."""
        return self is not Trit.META

    @property
    def is_metastable(self) -> bool:
        """True iff the value is ``M``."""
        return self is Trit.META

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_int(self) -> int:
        """Return 0 or 1 for a stable trit; raise for ``M``."""
        if self is Trit.META:
            raise ValueError("cannot convert metastable trit M to int")
        return self.value

    def to_char(self) -> str:
        """Return ``'0'``, ``'1'``, or ``'M'``."""
        return _TRIT_TO_CHAR[self]

    def resolutions(self) -> Iterable["Trit"]:
        """All stable values this trit may resolve to (Definition 2.5).

        A stable trit resolves only to itself; ``M`` acts as a wild card
        and may resolve to either rail.
        """
        if self is Trit.META:
            return (Trit.ZERO, Trit.ONE)
        return (self,)

    # ------------------------------------------------------------------
    # Superposition (Definition 2.1, restricted to one trit)
    # ------------------------------------------------------------------
    def superpose(self, other: "Trit") -> "Trit":
        """The ``*`` operator on single trits: equal values survive, else M."""
        return self if self is other else Trit.META

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Trit.{self.name}"

    def __str__(self) -> str:
        return self.to_char()


TritLike = Union[Trit, int, bool, str]

_CHAR_TO_TRIT = {
    "0": Trit.ZERO,
    "1": Trit.ONE,
    "M": Trit.META,
    "m": Trit.META,
}
_TRIT_TO_CHAR = {
    Trit.ZERO: "0",
    Trit.ONE: "1",
    Trit.META: "M",
}

#: ``str.translate`` tables over the trit alphabet: one spelling each
#: trit character canonically (``'m'`` as ``'M'``), one deleting the
#: canonical characters so that whatever survives is not a trit.
_CANONICAL = str.maketrans(
    {c: _TRIT_TO_CHAR[t] for c, t in _CHAR_TO_TRIT.items()}
)
_NON_TRIT = str.maketrans("", "", "".join(_TRIT_TO_CHAR.values()))


def canonical_trit_string(s: str) -> str:
    """``s`` over ``'0'``/``'1'``/``'M'`` only, with ``'m'`` read as ``'M'``.

    Two whole-string ``translate`` passes, no per-character loop; the
    first character that is not a trit raises :meth:`Trit.from_char`'s
    ``ValueError``.  Callers decode the result with ``int(..., 2)``
    (which alone would accept ``'_'``, spaces and a ``0b`` prefix) or
    look its characters up in the trit tables.
    """
    canon = s.translate(_CANONICAL)
    bad = canon.translate(_NON_TRIT)
    if bad:
        Trit.from_char(bad[0])
    return canon


#: Convenient module-level aliases.
ZERO = Trit.ZERO
ONE = Trit.ONE
META = Trit.META

#: All trit values, in the canonical 0 < M < 1 display order of the paper.
ALL_TRITS = (Trit.ZERO, Trit.ONE, Trit.META)


def trit(value: TritLike) -> Trit:
    """Functional alias for :meth:`Trit.coerce`."""
    return Trit.coerce(value)
