"""Rank algebra for Contra policies.

A Contra policy is a function that maps every network path to a *rank*;
``minimize`` then selects the path with the least rank (§2).  Ranks form a
totally ordered algebra:

* finite numeric ranks,
* the infinite rank ``∞`` ("path not allowed"; nothing is worse),
* tuples of ranks compared lexicographically (used for multi-metric policies
  such as widest-shortest paths), and
* addition, subtraction and min/max, with ``∞`` absorbing addition.

:class:`Rank` is immutable and hashable so it can be used as a dictionary key
inside switch tables.
"""

from __future__ import annotations

import math
from functools import total_ordering
from typing import Callable, Iterable, List, Sequence, Tuple, Union

from repro.exceptions import PolicyError

__all__ = ["Rank", "INFINITY", "ZERO"]

_Number = Union[int, float]


@total_ordering
class Rank:
    """An element of the Contra rank algebra.

    Internally a rank is a flat tuple of floats (``math.inf`` representing ∞);
    scalar ranks are 1-tuples.  Comparison is lexicographic with shorter
    tuples padded with zeros, which matches the intuition that ``(1,)`` and
    ``(1, 0)`` denote the same preference level.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Union[_Number, Sequence[_Number], "Rank"]) -> None:
        if isinstance(values, Rank):
            self._values: Tuple[float, ...] = values._values
            return
        if isinstance(values, (int, float)):
            values = (values,)
        if not isinstance(values, (tuple, list)) or len(values) == 0:
            raise PolicyError(f"a rank must be a number or non-empty sequence, got {values!r}")
        flat: List[float] = []
        for v in values:
            if isinstance(v, Rank):
                flat.extend(v._values)
            elif isinstance(v, (int, float)):
                if math.isnan(v):
                    raise PolicyError("NaN is not a valid rank component")
                flat.append(float(v))
            else:
                raise PolicyError(f"invalid rank component {v!r}")
        self._values = tuple(flat)

    @classmethod
    def of_values(cls, values: Tuple[float, ...]) -> "Rank":
        """Internal fast constructor for an already-flat tuple of floats.

        Skips the flattening/validation pass of ``__init__``; callers must
        guarantee a non-empty tuple of floats (no NaN).  Hot paths (probe
        processing) construct one rank per accepted probe, where the checked
        constructor showed up prominently in profiles.
        """
        rank = object.__new__(cls)
        rank._values = values
        return rank

    # ------------------------------------------------------------- accessors

    @property
    def values(self) -> Tuple[float, ...]:
        """The underlying tuple of floats."""
        return self._values

    @property
    def is_infinite(self) -> bool:
        """True when the first (most significant) component is ∞."""
        return math.isinf(self._values[0])

    @property
    def is_finite(self) -> bool:
        return not self.is_infinite

    def scalar(self) -> float:
        """The value of a scalar rank; raises for tuple ranks."""
        if len(self._values) != 1:
            raise PolicyError(f"rank {self} is not scalar")
        return self._values[0]

    # ------------------------------------------------------------ comparison

    def _padded_pair(self, other: "Rank") -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        a, b = self._values, other._values
        n = max(len(a), len(b))
        return a + (0.0,) * (n - len(a)), b + (0.0,) * (n - len(b))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float)):
            other = Rank(other)
        if not isinstance(other, Rank):
            return NotImplemented
        a, b = self._values, other._values
        if len(a) != len(b):
            a, b = self._padded_pair(other)
        return a == b

    def __lt__(self, other: object) -> bool:
        # Equal lengths (every rank of one policy) compare as plain tuples;
        # only mixed lengths need the zero padding.
        if isinstance(other, (int, float)):
            other = Rank(other)
        if not isinstance(other, Rank):
            return NotImplemented
        a, b = self._values, other._values
        if len(a) != len(b):
            a, b = self._padded_pair(other)
        return a < b

    def __hash__(self) -> int:
        # Strip trailing zeros so equal ranks hash equally.
        values = self._values
        while len(values) > 1 and values[-1] == 0.0:
            values = values[:-1]
        return hash(values)

    # ------------------------------------------------------------ arithmetic

    def _binary(self, other: Union["Rank", _Number],
                op: Callable[[float, float], float]) -> "Rank":
        if isinstance(other, (int, float)):
            other = Rank(other)
        if not isinstance(other, Rank):
            raise PolicyError(f"cannot combine rank with {other!r}")
        a, b = self._padded_pair(other)
        return Rank(tuple(op(x, y) for x, y in zip(a, b)))

    def __add__(self, other: Union["Rank", _Number]) -> "Rank":
        return self._binary(other, lambda x, y: x + y)

    def __radd__(self, other: _Number) -> "Rank":
        return Rank(other) + self

    def __sub__(self, other: Union["Rank", _Number]) -> "Rank":
        def sub(x: float, y: float) -> float:
            if math.isinf(x):
                return x
            if math.isinf(y):
                raise PolicyError("cannot subtract an infinite rank from a finite one")
            return x - y

        return self._binary(other, sub)

    def __mul__(self, factor: _Number) -> "Rank":
        if not isinstance(factor, (int, float)):
            raise PolicyError(f"rank can only be scaled by a number, got {factor!r}")
        return Rank(tuple(v * factor for v in self._values))

    def __rmul__(self, factor: _Number) -> "Rank":
        return self * factor

    def combine_min(self, other: "Rank") -> "Rank":
        """The smaller (better) of two ranks."""
        return self if self <= other else other

    def combine_max(self, other: "Rank") -> "Rank":
        """The larger (worse) of two ranks."""
        return self if self >= other else other

    @staticmethod
    def tuple_of(components: Iterable[Union["Rank", _Number]]) -> "Rank":
        """Build a lexicographic tuple rank by concatenating components."""
        parts: List[Rank] = []
        for c in components:
            parts.append(Rank(c))
        if not parts:
            raise PolicyError("a tuple rank needs at least one component")
        return Rank(tuple(v for part in parts for v in part.values))

    # ---------------------------------------------------------------- output

    def __repr__(self) -> str:
        if len(self._values) == 1:
            inner = _fmt(self._values[0])
        else:
            inner = "(" + ", ".join(_fmt(v) for v in self._values) + ")"
        return f"Rank({inner})"

    def __str__(self) -> str:
        if len(self._values) == 1:
            return _fmt(self._values[0])
        return "(" + ", ".join(_fmt(v) for v in self._values) + ")"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


#: The infinite rank — "this path is not allowed".
INFINITY = Rank(math.inf)

#: The best possible scalar rank.
ZERO = Rank(0.0)
