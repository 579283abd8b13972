"""Integral forms as Gram matrices: nondegenerate symmetric matrices over
a coordinate ring, and unimodularity.

The rest of the forms API is reached through this module but compiled
only when a process first asks for it (``__getattr__``): forms over
F_q and at a closed place (``FieldForm``, ``diagonalize``,
``disc_class``, ``field_isomorphic``, ``local_isomorphic``) live in
``local``, genus witnesses and their verification (``GenusWitness``,
``GenusReport``, ``verify_genus_witness``, ``witness_identity``) in
``genus``, and the bounded isometry search (``isom_search``) in
``search``.  Callers in the package import these names from here, at
call time, so each command compiles only what it runs.
"""

from __future__ import annotations

from . import _lazy_names
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _ring_entry, det, diagonal_rows, is_symmetric, square_rows

DEFAULT_SEARCH_BUDGET = 10**8


class MalformedWitnessError(ValueError):
    """A witness entry is not in O[1/s]: it has a pole off its declared locus s."""


class BudgetExceededError(RuntimeError):
    """Estimated search size exceeds the configured evaluation cap."""


__getattr__ = _lazy_names(
    globals(),
    {
        **dict.fromkeys(("FieldForm", "diagonalize", "disc_class", "field_isomorphic", "local_isomorphic"), "local"),
        **dict.fromkeys(("GenusWitness", "GenusReport", "verify_genus_witness", "witness_identity"), "genus"),
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
    determinant is taken over the ring once and kept.  ``matrix`` is the
    form as a RingMatrix over the fraction field, built when a caller
    asks for it.
    """

    __slots__ = ("curve", "rows", "_det", "_matrix")

    def __init__(self, curve: CurveSpec, rows):
        rows = square_rows(curve, rows, _ring_entry)
        if not is_symmetric(rows):
            raise ValueError("integral forms are symmetric")
        if any(type(e) is RingFraction for row in rows for e in row):
            raise ValueError("integral forms have no denominators")
        d = det(rows)
        if d.is_zero():
            raise ValueError("integral forms are nondegenerate")
        self.curve = curve
        self.rows = rows
        self._det = d
        self._matrix = None

    @classmethod
    def from_rows(cls, curve, rows) -> GramMatrix:
        return cls(curve, rows)

    @classmethod
    def identity(cls, curve, n: int) -> GramMatrix:
        return cls.diagonal(curve, [_ring_entry(curve, 1)] * n)

    @classmethod
    def diagonal(cls, curve, entries) -> GramMatrix:
        return cls(curve, diagonal_rows(entries, _ring_entry(curve, 0)))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def matrix(self) -> RingMatrix:
        if self._matrix is None:
            self._matrix = RingMatrix(self.curve, self.rows)
        return self._matrix

    def det(self) -> RingElement:
        return self._det

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.curve is other.curve and self.rows == other.rows

    def __repr__(self):
        return f"GramMatrix({self.matrix.rows!r})"


def is_unimodular(form: GramMatrix) -> bool:
    """Whether the determinant is a unit, i.e. a nonzero constant."""
    return form.det().is_unit()

