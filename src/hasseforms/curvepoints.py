"""Point enumeration for curves: affine points, closed points and their
Frobenius orbits.

Points are listed by one scan of x over the field: above each x of a
cubic, the square roots of x^3 + ax + b are read off its log
(``_cubic_logs``); on the line every x is a point, with no y.  A closed
point of degree d is one Frobenius orbit of d points, so a point's degree
is its orbit's length; on the line it is also a prime of F_q[x].

Orbits are walked on discrete logs: in F_{q^d} with generator g, the
Frobenius x -> x^q sends g^n to g^(nq mod (q^d - 1)), so the orbit of a
point is the cycle of its coordinates' logs under n -> nq, and no field
element is raised to a power.  The prime of a line place is the product
of x - r over the roots r of its orbit (Lidl and Niederreiter, *Finite
Fields*, section 2.2), formed on logs with Zech sums and pulled back to
F_q once per coefficient.

Point counting, point validity (on-curve and singular-point tests),
smoothness and the Picard data live in ``picard``, which only the
``curve``, ``hasse`` and ``verify-paper`` commands load.
``point_report``, which perfbench's tracer wraps here, is also reached
through this module, which imports ``picard`` on first use
(``__getattr__``).
"""

from __future__ import annotations

import math

from . import _lazy_names
from .curvering import CurveSpec
from .finfield import FieldElement, embed, make_extension, pullback_table
from .funcfield import Poly, monic_rank

__getattr__ = _lazy_names(globals(), {"point_report": "picard"})


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


def enumerate_points(curve: CurveSpec, degree: int = 1, closed: bool = False):
    """All affine points with coordinates in F_{q^degree} in canonical
    coordinate order: every x of the line, with y = None, or the points of
    a cubic (``_cubic_points``), each tagged with its Frobenius orbit's
    length, its closed point's degree, and on the line with its closed
    point's prime.  ``closed`` keeps the point of each orbit with the
    least coordinates (x.coeffs, y.coeffs), one per closed point, and
    lists the line's in ``monic_polys`` order.

    At degree 1 every point is its own orbit and the line's prime is
    x - x0, so nothing is walked.  Above it each orbit is walked once, on
    logs: on the line, the cycle of every log not yet met (``_cycle``),
    with its prime formed on logs too (``_orbit_prime``); on the cubic,
    the orbit of every point not yet met (``_conjugates``)."""
    base, line = curve.field, curve.is_polyline
    ext = make_extension(base.p, base.k * degree)
    if degree == 1:
        if not line:
            return [AffinePoint(x0, y0, 1) for x0, y0 in _cubic_points(curve, ext)]
        # the prime of x0 is x + c, c = -x0; monic_polys order is c's order
        one = base.one()
        roots = ((-c, c) for c in base.elements()) if closed else ((x0, -x0) for x0 in base.elements())
        return [AffinePoint(x0, None, 1, prime=Poly._raw(base, (c, one))) for x0, c in roots]
    q, m, exp, zero = base.q, ext.q - 1, ext._exp, ext.zero()
    if line:
        orbits = [(1, zero, Poly._raw(base, (base.zero(), base.one())))]  # x = 0, whose prime is x
        tags = [None] * m  # log -> (length, least x, prime) of its orbit
        for n in range(m):
            if tags[n] is None:
                orbit = _cycle(q, m, n)
                least = exp[min(orbit, key=lambda r: exp[r].coeffs)]
                tag = (len(orbit), least, _orbit_prime(orbit, base, ext))
                orbits.append(tag)
                for r in orbit:
                    tags[r] = tag
        if closed:
            orbits.sort(key=lambda tag: monic_rank(tag[2]))
            return [AffinePoint(x0, None, length, prime=prime) for length, x0, prime in orbits]
        points = []
        for x0 in ext.elements():
            length, _, prime = orbits[0] if x0._log is None else tags[x0._log]
            points.append(AffinePoint(x0, None, length, prime=prime))
        return points

    def coordinates(logs):
        lx, ly = logs
        return (zero if lx is None else exp[lx]).coeffs, (zero if ly is None else exp[ly]).coeffs

    walked, points = {}, []  # logs of a point met in an earlier orbit -> (length, least logs)
    for x0, y0 in _cubic_points(curve, ext):
        logs = (x0._log, y0._log)
        if (tag := walked.pop(logs, None)) is None:
            orbit = _conjugates(q, m, *logs)
            tag = (len(orbit), min(orbit, key=coordinates))
            walked.update(dict.fromkeys(orbit[1:], tag))
        if not closed or tag[1] == logs:
            points.append(AffinePoint(x0, y0, tag[0]))
    return points


def _orbit_prime(roots: list, base, ext) -> Poly:
    """The prime of a closed point of the line: the product of x - g^r
    over the logs r of its orbit's nonzero roots, formed on logs with
    Zech sums; its coefficients lie in base, and each is pulled back there
    once (``finfield.pullback_table``)."""
    m, half, zech = ext.q - 1, ext._half, ext._zech
    coeffs = [0]  # logs (None for 0), lowest degree first, of the product so far: 1
    for r in roots:  # c_i becomes c_(i-1) - g^r c_i
        r += half  # the log of -g^r
        out, low = [], None
        for c in coeffs:
            t = None if c is None else (c + r) % m
            if low is not None:
                if t is None:
                    t = low
                else:
                    z = zech[t - low]
                    t = None if z is None else (low + z) % m
            out.append(t)
            low = c
        out.append(low)
        coeffs = out
    pull, zero = pullback_table(ext, base), base.zero()
    return Poly._raw(base, [zero if c is None else pull[c] for c in coeffs])


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
