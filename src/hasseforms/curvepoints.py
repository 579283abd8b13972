"""Points of a curve over one field: affine points, the cubic's root scan
and Frobenius cycles.

Points are listed by one scan of x over the field: above each x of a
cubic, the square roots of x^3 + ax + b are read off its log
(``_cubic_logs``); on the line every x is a point, with no y.  In
F_{q^d} with generator g, the Frobenius x -> x^q sends g^n to
g^(nq mod (q^d - 1)), so the orbit of a point is the cycle of its
coordinates' logs under n -> nq (``_cycle``, ``_conjugates``), and no
field element is raised to a power.

The closed points of one degree, ``enumerate_points``, each the least
point of its orbit, are listed in ``genus``; point counting, point
validity (on-curve and singular-point tests), smoothness and the Picard
data live in ``picard``, which only the ``curve``, ``hasse`` and
``verify-paper`` commands load.  perfbench's tracer wraps
``enumerate_points`` and ``point_report`` here, so this module also
reaches them, importing their module on first use (``__getattr__``).
"""

from __future__ import annotations

import math

from . import _lazy_names
from .curvering import CurveSpec
from .finfield import FieldElement, embed
from .funcfield import Poly

__getattr__ = _lazy_names(globals(), {"enumerate_points": "genus", "point_report": "picard"})


class AffinePoint:
    """A solution (x, y) of a cubic over F_{q^d}, or an x of the line with
    y = None, with its closed point's degree (its Frobenius orbit's length)
    and, on the line, prime (else None); frozen, and compared and hashed by
    (x, y, degree), since x fixes the prime."""

    __slots__ = ("x", "y", "degree", "prime")

    def __init__(self, x: FieldElement, y: FieldElement | None, degree: int, *, prime: Poly | None = None):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "prime", prime)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y, self.degree) == (other.x, other.y, other.degree)

    def __hash__(self):
        return hash((self.x, self.y, self.degree))

    def __repr__(self):
        return f"({self.x!r}, {self.y!r})"


def _cycle(q: int, m: int, n) -> list:
    """The Frobenius orbit of g^n in a field of order m + 1 with generator
    g, as logs: the cycle n, nq, nq^2, ... mod m, which x -> x^q walks.
    None, the zero element, is its own orbit."""
    if n is None:
        return [None]
    orbit, r = [n], n * q % m
    while r != n:
        orbit.append(r)
        r = r * q % m
    return orbit


def _conjugates(q: int, m: int, lx, ly) -> list:
    """The Frobenius orbit of a point with coordinate logs (lx, ly), as
    log pairs: the cycles of x and of y (``_cycle``) run side by side
    until both close, so its length, the closed point's degree, is the
    lcm of theirs."""
    xs, ys = _cycle(q, m, lx), _cycle(q, m, ly)
    return [(xs[i % len(xs)], ys[i % len(ys)]) for i in range(math.lcm(len(xs), len(ys)))]


def _cubic_points(curve: CurveSpec, ext):
    """The points of a cubic over ext in canonical order, by ``_cubic_logs``:
    above x none if x^3 + ax + b = g^v has odd v, (x, 0) if it is zero,
    else y = g^(v/2) and g^(v/2 + (q - 1)/2), smaller coefficients first."""
    exp, half = ext._exp, ext._half
    for x0, v in zip(ext.elements(), _cubic_logs(ext, embed(curve.a, ext).log, embed(curve.b, ext).log)):
        if v is None:
            yield x0, ext.zero()
        elif v % 2 == 0:
            r, s = exp[v // 2], exp[v // 2 + half]
            yield from ((x0, r), (x0, s)) if r.coeffs < s.coeffs else ((x0, s), (x0, r))


def _cubic_logs(field, la, lb):
    """The log of x^3 + ax + b for every x in canonical order (None for
    zero), from la = log a and lb = log b, with no field-element
    arithmetic: x^3 is g^(3 log x), ax is g^(log a + log x), and a sum is
    one Zech lookup, g^i + g^j = g^(i + Z(j - i)).  Logs stay unreduced,
    below 2(q - 1); q - 1 is even, so a log's parity is chi."""
    zech, m, elements = field._zech, field.q - 1, field.elements()
    next(elements)
    yield lb  # x = 0
    for x0 in elements:
        lx = x0._log
        s = 3 * lx % m  # log of x^3, then of x^3 + ax
        if la is not None:
            if (z := zech[la + lx - s]) is None:
                yield lb
                continue
            s += z
        yield s if lb is None else None if (z := zech[lb - s]) is None else s + z
