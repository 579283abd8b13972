"""Integral forms as Gram matrices: nondegenerate symmetric matrices over
a coordinate ring, and unimodularity.

The rest of the forms API lives in modules compiled only by the
processes that run them: forms over F_q and at a closed place in
``local``, genus witnesses and their verification in ``genus``, and the
bounded isometry search in ``search``.  The five of those names that
perfbench's tracer wraps here (``diagonalize``, ``local_isomorphic``,
``GenusWitness``, ``verify_genus_witness``, ``isom_search``) are also
reached through this module, which imports their home on first use
(``__getattr__``).  Callers in the package (``cli``, ``local``,
``serialize``) read those five as attributes of this module, where the
tracer sees the call, and every other name from its home.
"""

from __future__ import annotations

from functools import reduce

from . import _lazy_names
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _ring_entry, det, diagonal_rows, is_symmetric, square_rows

DEFAULT_SEARCH_BUDGET = 10**8
MAX_SEARCH_RANK = 3  # the largest rank isom_search takes


def _require_pair(f, g):
    """Refuse two forms that live over different curves or have different ranks."""
    if f.curve is not g.curve:
        raise ValueError("forms live over different curves")
    if f.n != g.n:
        raise ValueError("forms have different ranks")


def _require_search_rank(n: int) -> None:
    """Refuse a rank the search does not take, before it builds anything."""
    if n > MAX_SEARCH_RANK:
        raise ValueError(f"search supports rank <= {MAX_SEARCH_RANK}")


class MalformedWitnessError(ValueError):
    """A witness entry is not in O[1/s]: it has a pole off its declared locus s."""


class BudgetExceededError(RuntimeError):
    """A search charged more evaluations than its budget allows."""


__getattr__ = _lazy_names(
    globals(),
    {
        **dict.fromkeys(("diagonalize", "local_isomorphic"), "local"),
        **dict.fromkeys(("GenusWitness", "verify_genus_witness"), "genus"),
        "isom_search": "search",
    },
)


class GramMatrix:
    """A nondegenerate symmetric matrix with entries in the coordinate
    ring, representing an integral bilinear form.

    ``rows`` holds the entries as RingElements, built in one pass from
    rows of ints, field elements, polynomials, ring elements or fractions
    with denominator 1 (``curvering._ring_entry``); a RingMatrix is
    passed as its ``rows``.  The curve of each entry, symmetry,
    integrality and nondegeneracy are checked in that order, and the
    determinant is taken over the ring once and kept.  A diagonal form
    checks each entry once and takes the product of its diagonal as its
    determinant.  ``matrix`` is the form as a RingMatrix over the
    fraction field, built on each call.
    """

    __slots__ = ("curve", "rows", "_det")

    def __init__(self, curve: CurveSpec, rows):
        rows = square_rows(curve, rows, _ring_entry)
        if not is_symmetric(rows):
            raise ValueError("integral forms are symmetric")
        if any(type(e) is RingFraction for row in rows for e in row):
            raise ValueError("integral forms have no denominators")
        d = det(rows)
        if d.is_zero():
            raise ValueError("integral forms are nondegenerate")
        self._set(curve, rows, d)

    def _set(self, curve, rows, d) -> GramMatrix:
        self.curve = curve
        self.rows = rows
        self._det = d
        return self

    @classmethod
    def from_rows(cls, curve, rows) -> GramMatrix:
        return cls(curve, rows)

    @classmethod
    def identity(cls, curve, n: int) -> GramMatrix:
        return cls.diagonal(curve, [1] * n)

    @classmethod
    def diagonal(cls, curve, entries) -> GramMatrix:
        diag = [_ring_entry(curve, e) for e in entries]
        rows = tuple(map(tuple, diagonal_rows(diag, _ring_entry(curve, 0))))
        if not diag or any(type(e) is RingFraction or e.is_zero() for e in diag):
            return cls(curve, rows)  # refused by __init__, with its message
        # by Leibniz only the identity permutation survives, and the ring is a domain
        return object.__new__(cls)._set(curve, rows, reduce(RingElement.__mul__, diag))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> RingMatrix:
        return RingMatrix(self.curve, self.rows)

    def det(self) -> RingElement:
        return self._det

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.curve is other.curve and self.rows == other.rows

    def __repr__(self):
        return f"GramMatrix({self.matrix.rows!r})"


def is_unimodular(form: GramMatrix) -> bool:
    """Whether the determinant is a unit, i.e. a nonzero constant."""
    return form.det().is_unit()

