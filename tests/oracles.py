"""Independent brute-force oracles used to pin expected values.

Everything in here deliberately avoids the library's decision routines:
squares are found by exhaustive squaring, form equivalence by exhaustive
congruence over the full general linear group, point counts by direct
quadratic-character sums.  Keeping these paths separate is what makes
the oracle comparisons meaningful.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import re
import sys
from pathlib import Path

from hasseforms import forms, search
from hasseforms.finfield import FiniteField, embed, make_extension, square_and_multiply
from hasseforms.curvepoints import AffinePoint
from hasseforms.curvering import RingElement, RingFraction, congruence_rows
from hasseforms.funcfield import MAX_TEXT_DEGREE, Poly, factor, monic_polys
from hasseforms.local import FieldForm, PrimePoly, field_isomorphic
from hasseforms.picard import require_on_curve
from hasseforms.serialize import elem_to_json, matrix_to_json, ring_elem_to_json


def benchmark_jobs(workload: str, seeds) -> tuple:
    """(bundled fixtures by name, every job perfbench's generator makes for
    the workload and seeds), from the perfbench directory of this
    checkout."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench))  # gen imports its sibling modules by name
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(bench))
    fixtures = {n: json.loads((Path(forms.__file__).parent / "fixtures" / f"{n}.json").read_text()) for n in gen.FIXTURES}
    return fixtures, [job for seed in seeds for job in gen.generate(workload, seed, fixtures) + gen.setup_probes()]


def polys_up_to(field: FiniteField, max_deg: int):
    """All polynomials of degree <= max_deg, zero first, in canonical
    order: coefficient vectors counted base q, constant term fastest."""
    for digits in itertools.product(tuple(field.elements()), repeat=max_deg + 1):
        yield Poly(field, digits[::-1])


def exhaustive_squares(field: FiniteField):
    """The set of nonzero squares, computed by squaring everything."""
    return {(e * e).coeffs for e in field.nonzero_elements()}


def prime_field_squares(p: int) -> set[int]:
    return {(x * x) % p for x in range(1, p)}


def count_points_char_sum(p: int, a: int, b: int) -> int:
    """Affine point count of y^2 = x^3 + ax + b over F_p via 1 + chi(rhs)."""
    squares = prime_field_squares(p)
    total = 0
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        if rhs == 0:
            total += 1
        elif rhs in squares:
            total += 2
    return total


def affine_count_by_squares(field: FiniteField, a, b) -> int:
    """Affine point count of y^2 = x^3 + ax + b over F_q: one point above
    each root of the cubic, two above each x where it lands in the set of
    squares built by squaring every element."""
    squares = exhaustive_squares(field)
    total = 0
    for x in field.elements():
        rhs = x * x * x + a * x + b
        if rhs.is_zero():
            total += 1
        elif rhs.coeffs in squares:
            total += 2
    return total


def cubic_has_root(field: FiniteField, a, b) -> bool:
    """Whether x^3 + ax + b vanishes somewhere in F_q, by trying every x."""
    return any((x * x * x + a * x + b).is_zero() for x in field.elements())


def _points_and_orbits(curve, degree: int):
    """(x.coeffs, y.coeffs, orbit) of every affine point of a Weierstrass
    curve with coordinates in F_{q^degree}: x in canonical order, and above
    it every y whose square is x^3 + ax + b, smaller coefficient tuple
    first.  Every y is squared once, with no square root or log; the orbit
    lists the point's conjugates as coefficient pairs, each raised to the
    q-th power in turn until it repeats."""
    ext = make_extension(curve.field.p, curve.field.k * degree)
    a, b, q = embed(curve.a, ext), embed(curve.b, ext), curve.field.q
    roots = {}
    for y in ext.elements():
        roots.setdefault((y * y).coeffs, []).append(y)
    for x in ext.elements():
        for y in sorted(roots.get((x * x * x + a * x + b).coeffs, []), key=lambda v: v.coeffs):
            orbit, xe, ye = [(x.coeffs, y.coeffs)], x**q, y**q
            while xe != x or ye != y:
                orbit.append((xe.coeffs, ye.coeffs))
                xe, ye = xe**q, ye**q
            yield x.coeffs, y.coeffs, orbit


def points_by_trying_every_y(curve, degree: int) -> list:
    """(x.coeffs, y.coeffs, closed-point degree) of every affine point of a
    Weierstrass curve with coordinates in F_{q^degree}, in the order of
    ``_points_and_orbits``; the degree is its orbit's length, the least
    e >= 1 with x^(q^e) = x and y^(q^e) = y."""
    return [(x, y, len(orbit)) for x, y, orbit in _points_and_orbits(curve, degree)]


def closed_points_by_trying_every_y(curve, degree: int) -> list:
    """The closed points of exactly this degree, as
    ``points_by_trying_every_y`` lists them: of each Frobenius orbit of
    ``degree`` points, the one whose coordinates (x.coeffs, y.coeffs) are
    least."""
    return [(x, y, degree) for x, y, orbit in _points_and_orbits(curve, degree) if len(orbit) == degree and min(orbit) == orbit[0]]


def _mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def closed_point_counts(field: FiniteField, a, b, d_max: int) -> list[int]:
    """The number of closed points of each degree 1..d_max on the smooth
    affine curve y^2 = x^3 + ax + b over F_q, from its F_q count alone.

    N_1 counts, for each x, the y with y^2 = x^3 + ax + b in a table built
    by squaring every element.  With the trace t = q - N_1, the power sums
    s_0 = 2, s_1 = t, s_e = t s_{e-1} - q s_{e-2} of the Frobenius
    eigenvalues give the affine count N_e = q^e - s_e over F_{q^e}, and
    Moebius inversion of N_e = sum over d | e of d P_d gives P_d."""
    q = field.q
    roots = {}
    for y in field.elements():
        roots[y * y] = roots.get(y * y, 0) + 1
    t = q - sum(roots.get(x * x * x + a * x + b, 0) for x in field.elements())
    s = [2, t]
    for _ in range(2, d_max + 1):
        s.append(t * s[-1] - q * s[-2])
    counts = [None] + [q**e - s[e] for e in range(1, d_max + 1)]
    return [
        sum(_mobius(d // e) * counts[e] for e in range(1, d + 1) if d % e == 0) // d
        for d in range(1, d_max + 1)
    ]


# ---------------------------------------------------------------------------
# Exhaustive congruence search over GL_n(F_p), on plain int matrices mod p.


def _det_int(rows, p):
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    if n == 2:
        return (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p
    raise ValueError("oracle handles n <= 3")


_gl_cache: dict[tuple[int, int], list] = {}


def general_linear_group(p: int, n: int):
    """All invertible n x n matrices over F_p, as tuples of row tuples."""
    key = (p, n)
    if key not in _gl_cache:
        mats = []
        for flat in itertools.product(range(p), repeat=n * n):
            rows = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if _det_int(rows, p) != 0:
                mats.append(rows)
        _gl_cache[key] = mats
    return _gl_cache[key]


def congruent_transform_int(t, f, p):
    n = len(f)
    ft = tuple(
        tuple(sum(f[i][k] * t[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )
    return tuple(
        tuple(sum(t[k][i] * ft[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


_orbit_cache: dict[tuple, frozenset] = {}


def congruence_orbit(f, p: int):
    """The full orbit {T^t F T : T in GL_n(F_p)} of an int matrix."""
    key = (p, f)
    if key not in _orbit_cache:
        orbit = frozenset(
            congruent_transform_int(t, f, p) for t in general_linear_group(p, len(f))
        )
        for member in orbit:
            _orbit_cache[(p, member)] = orbit
    return _orbit_cache[key]


def brute_force_congruent(f, g, p: int) -> bool:
    """Whether some T in GL_n(F_p) carries f to g, by exhaustion."""
    return tuple(map(tuple, g)) in congruence_orbit(tuple(map(tuple, f)), p)


def symmetric_nondegenerate(p: int, n: int):
    """All symmetric nondegenerate n x n int matrices over F_p."""
    out = []
    if n == 2:
        for a, b, d in itertools.product(range(p), repeat=3):
            rows = ((a, b), (b, d))
            if _det_int(rows, p) != 0:
                out.append(rows)
    elif n == 3:
        for a, b, c, d, e, f in itertools.product(range(p), repeat=6):
            rows = ((a, b, c), (b, d, e), (c, e, f))
            if _det_int(rows, p) != 0:
                out.append(rows)
    else:
        raise ValueError("oracle handles n in {2, 3}")
    return out


def field_matrix(field: FiniteField, rows):
    """Lift an int matrix into FieldElement rows."""
    return tuple(tuple(field.element(v) for v in row) for row in rows)


def field_congruence(t_rows, form: FieldForm) -> FieldForm:
    """T^t F T over the field, for plain row-tuple transition matrices."""
    return FieldForm(form.field, congruence_rows(t_rows, form.rows))


# ---------------------------------------------------------------------------
# Local isomorphism by evaluation: both Gram matrices at a geometric
# point of the place, with coordinates in its residue field, compared by
# field_isomorphic (itself pinned against exhaustive congruence search).


def reduce_at(form, x0, y0=None) -> FieldForm:
    """The Gram matrix evaluated at (x0, y0), as a form over the field of
    x0: each entry's numerator at the point over its denominator at x0.
    On the line y0 is None and x0 is a root of the prime in its residue
    field."""
    return FieldForm(x0.field, [[e.num.evaluate(x0, y0) / e.den.evaluate(x0) for e in row] for row in form.matrix.rows])


def local_isomorphic_by_evaluation(f, g, place) -> bool:
    """local_isomorphic at a prime of the line (at a root of the prime in
    its residue field F_{q^degree}, found by scanning that field) or at a
    point of the cubic, whose coordinates must lie in F_{q^degree}, the
    residue field of its closed point."""
    if hasattr(place, "poly"):
        residue = make_extension(place.field.p, place.field.k * place.degree)
        x0, y0 = next(x for x in residue.elements() if place.poly.evaluate(x).is_zero()), None
    else:
        if place.x.field.q != f.curve.field.q**place.degree:
            raise ValueError("point coordinates are not in its residue field")
        x0, y0 = place.x, place.y
    return field_isomorphic(reduce_at(f, x0, y0), reduce_at(g, x0, y0))


def smooth_weierstrass_pairs(q: int):
    """All (a, b) over F_q with -4a^3 - 27b^2 != 0, plus the field."""
    if q == 9:
        field = make_extension(3, 2)
    else:
        field = make_extension(q, 1)
    pairs = []
    for a in field.elements():
        for b in field.elements():
            disc = field.element(-4) * a**3 + field.element(-27) * b * b
            if not disc.is_zero():
                pairs.append((a, b))
    return field, pairs


# ---------------------------------------------------------------------------
# Determinants by the Leibniz formula, for entries of any exact ring
# (FieldElement or RingFraction): a signed sum over all permutations,
# sharing nothing with the library's cofactor expansion.


def dense_product(a, b):
    """The product of two square matrices given as rows, every one of the
    n products of each entry summed, zero factors included."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j]) for j in range(n)] for i in range(n)]


def _inversions(perm) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])


def leibniz_det(rows):
    total = None
    for perm in itertools.permutations(range(len(rows))):
        term = rows[0][perm[0]]
        for i in range(1, len(rows)):
            term = term * rows[i][perm[i]]
        if _inversions(perm) % 2:
            term = -term
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# Witness checks by orders of vanishing at smooth places (Silverman, *The
# Arithmetic of Elliptic Curves*, II.1), from root multiplicities over the
# field of a geometric point; nothing from forms' divisibility tests.  A
# place is a prime of the line or a point (x0, y0) of the cubic.


def _multiplicity(f, prime) -> int:
    """How often prime divides f != 0, by repeated division."""
    m = 0
    while (f % prime).is_zero():
        f, m = f // prime, m + 1
    return m


def _lifted(poly, field) -> list:
    """The ascending coefficients of a polynomial in x, in field."""
    return [embed(c, field) for c in poly.coeffs]


def _value(coeffs, x0):
    acc = x0.field.zero()
    for c in reversed(coeffs):
        acc = acc * x0 + c
    return acc


def _divided(coeffs, x0) -> list:
    """The quotient by x - x0 of a polynomial with root x0, by synthetic
    division; ascending coefficients in and out."""
    acc, out = x0.field.zero(), []
    for c in reversed(coeffs):
        acc = acc * x0 + c
        out.append(acc)
    out.pop()  # the remainder, 0
    return out[::-1]


def _root_order(coeffs, x0) -> int:
    """The multiplicity of x0 as a root of a nonzero polynomial."""
    m = 0
    while _value(coeffs, x0).is_zero():
        coeffs, m = _divided(coeffs, x0), m + 1
    return m


def _is_singular(curve, place) -> bool:
    """y0 = 0 and x0 a repeated root of x^3 + ax + b (3 x0^2 + a = 0)."""
    x0 = place.x
    return place.y.is_zero() and (3 * x0 * x0 + embed(curve.a, x0.field)).is_zero()


def order_at(h, place) -> float:
    """ord_P of a ring element or fraction at a smooth place, inf for 0.

    On the line it is the multiplicity of the prime.  On the cubic, with
    multiplicities of x0 counted over the point's field and P' = (x0, -y0):

    - at y0 != 0, ord_P h is 0 if h(P) != 0; else ord_{x0} N(h) if h(P')
      != 0, since N(h) = A^2 - B^2 (x^3 + ax + b) = h h'; else x - x0
      divides both parts, with order 1 at P, so it is divided out, 1 is
      added and the test repeats;
    - at y0 = 0, where x - x0 has order 2 and y order 1, ord_P (A + By) =
      min(2 ord A, 2 ord B + 1), the two of different parity;

    and a denominator D(x) counts -e ord_{x0} D, e = 2 at y0 = 0, else 1.
    ValueError at a singular point, which has no valuation."""
    if h.is_zero():
        return math.inf
    num, den = (h.num, h.den) if hasattr(h, "den") else (h, None)
    prime = _line_prime(place)
    if prime is not None:
        order = _multiplicity(num.a, prime)
        return order if den is None else order - _multiplicity(den, prime)
    if _is_singular(num.curve, place):
        raise ValueError(f"no valuation at the singular point {place!r}")
    x0, y0 = place.x, place.y
    field = x0.field
    a, b = _lifted(num.a, field), _lifted(num.b, field)
    if y0.is_zero():
        order = min(2 * _root_order(a, x0) if a else math.inf, 2 * _root_order(b, x0) + 1 if b else math.inf)
    else:
        order = 0
        while (_value(a, x0) + _value(b, x0) * y0).is_zero():
            if not (_value(a, x0) - _value(b, x0) * y0).is_zero():
                pa, pb = Poly(field, a), Poly(field, b)
                norm = pa * pa - pb * pb * Poly(field, _lifted(num.curve.cubic(), field))
                order += _root_order(list(norm.coeffs), x0)
                break
            a, b, order = _divided(a, x0) if a else a, _divided(b, x0) if b else b, order + 1
    if den is None:
        return order
    return order - (2 if y0.is_zero() else 1) * _root_order(_lifted(den, field), x0)


@functools.lru_cache(maxsize=None)
def _points_over(curve, prime) -> tuple:
    """The geometric points of a cubic over one root x0 of a prime of
    F_q[x], all in F_{q^(2 deg prime)}: x0 and every y with y^2 = x0^3 +
    a x0 + b, each found by trying every element.  Every closed point over
    the prime has one of them in its Frobenius orbit."""
    field = make_extension(curve.field.p, curve.field.k * 2 * prime.degree)
    m = _lifted(prime, field)
    x0 = next(x for x in field.elements() if _value(m, x).is_zero())
    rhs = _value(_lifted(curve.cubic(), field), x0)
    return tuple(AffinePoint(x0, y, _orbit_length(curve.field.q, x0, y)) for y in field.elements() if y * y == rhs)


def frobenius_orbit_by_powering(q, x0, y0=None) -> list:
    """The conjugates (x0^(q^i), y0^(q^i)), i = 0, 1, ..., of a point over
    F_q until they repeat, each raised to the q-th power in turn (y0 None
    on the line)."""
    orbit, x, y = [(x0, y0)], x0**q, None if y0 is None else y0**q
    while (x, y) != (x0, y0):
        orbit.append((x, y))
        x, y = x**q, None if y is None else y**q
    return orbit


def _orbit_length(q, x0, y0) -> int:
    """The least e >= 1 with x0^(q^e) = x0 and y0^(q^e) = y0."""
    return len(frobenius_orbit_by_powering(q, x0, y0))


# ---------------------------------------------------------------------------
# The chord-tangent group law of a smooth cubic, with the infinite point as
# identity: the tests' check on point counts and Picard orders (Lagrange),
# which nothing in the library needs.


class PointAtInfinity:
    """The distinguished infinite point, the identity of the group law."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = PointAtInfinity()


def ec_add(curve, p1, p2):
    """Chord-tangent addition with the infinite point as identity; the sum
    is tagged with its closed point's degree (``_orbit_length``)."""
    if curve.is_polyline:
        raise ValueError("group law applies to Weierstrass curves")
    if not curve.is_smooth:
        raise ValueError("the group law requires a smooth curve; discriminant is zero")
    if isinstance(p1, PointAtInfinity):
        return p2
    if isinstance(p2, PointAtInfinity):
        return p1
    if p1.x.field != p2.x.field:
        raise ValueError("points must be rational over a common field")
    require_on_curve(curve, p1)
    require_on_curve(curve, p2)
    ext = p1.x.field
    a = embed(curve.a, ext)
    if p1.x == p2.x and p1.y == -p2.y:
        return INFINITY
    if p1.x == p2.x:
        slope = (ext.element(3) * p1.x * p1.x + a) / (ext.element(2) * p1.y)
    else:
        slope = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = slope * slope - p1.x - p2.x
    y3 = slope * (p1.x - x3) - p1.y
    return AffinePoint(x3, y3, _orbit_length(curve.field.q, x3, y3))


def ec_multiply(curve, n: int, point):
    """n-fold sum of a point under the group law (n >= 0), by double and
    add: ``finfield.square_and_multiply`` with ``ec_add`` as product."""
    return square_and_multiply(INFINITY, point, n, functools.partial(ec_add, curve))


def _line_prime(place):
    """The prime of a place of the line, None at a point of a cubic: a
    PrimePoly's polynomial, or the prime a point of the line carries."""
    return place.poly if hasattr(place, "poly") else place.prime


def clearing_exponent(num, den, s):
    """The least k >= 0 with num s^k / den in the coordinate ring of the
    line or of a smooth cubic, or None when there is none.  The ring is the
    intersection of the local rings at its places, and num/den has poles
    only over the roots of den; at each such place with a pole of order m,
    ord_P s = t must be positive and k at least m / t, rounded up.  The
    places come from ``factor(den)``, on the cubic through
    ``_points_over``."""
    if den.degree < 1:
        return 0
    e, k = RingFraction(num.curve, num, den), 0
    for prime, _ in factor(den)[1]:
        places = [PrimePoly.finite(prime)] if num.curve.is_polyline else _points_over(num.curve, prime)
        for place in places:
            pole = -order_at(e, place)
            if pole > 0:
                step = order_at(s, place)
                if step == 0:
                    return None
                k = max(k, -(-pole // step))
    return k


def _vanishes_at(h, place) -> bool:
    """Whether a ring element or a polynomial in x vanishes at a closed
    place: divisible by the prime on the line, zero at the point on a
    cubic."""
    a, b = (h.a, h.b) if isinstance(h, RingElement) else (h, None)
    prime = _line_prime(place)
    if prime is not None:  # a place of the line, where b is 0
        return (a % prime).is_zero()
    value = a.evaluate(place.x)
    if b is not None:
        value = value + b.evaluate(place.x) * place.y
    return value.is_zero()


def covers_by_valuations(q, s, det, place) -> bool:
    """Whether the witness (q, s) reaches a closed place: s does not vanish
    there, and q lies in GL_n of its local ring, i.e. every entry has order
    >= 0 and det q order 0.  det is det q, computed by the caller
    (``leibniz_det``).  At a singular point, where there are no orders, s
    and every denominator must not vanish; q is then regular there, and
    det q is a unit exactly when its numerator does not vanish.  A
    singular point where s does not vanish but a denominator does is not
    decided: ValueError."""
    if _vanishes_at(s, place):
        return False
    if _line_prime(place) is None and _is_singular(s.curve, place):
        if any(_vanishes_at(d, place) for d in [det.den] + [e.den for row in q.rows for e in row]):
            raise ValueError(f"coverage at the singular point {place!r} is not decided here")
        return not _vanishes_at(det.num, place)
    return all(order_at(e, place) >= 0 for row in q.rows for e in row) and order_at(det, place) == 0


# ---------------------------------------------------------------------------
# First isometry by exhaustive depth-first search over columns, with its
# own entry list, order and inner product; nothing from the library's search.


def _search_entries(curve, deg_x: int, deg_y: int):
    """Every A + B y with deg A <= deg_x, deg B <= deg_y over a prime
    field: nonzero before zero, then by the coefficient vector of A,
    constant term first, followed by that of B."""
    p = curve.field.p
    b_vectors = list(itertools.product(range(p), repeat=deg_y + 1)) if deg_y >= 0 else [()]
    entries = []
    for a in itertools.product(range(p), repeat=deg_x + 1):
        for b in b_vectors:
            elem = RingElement(curve, Poly(curve.field, a), Poly(curve.field, b))
            entries.append(((elem.is_zero(), a + b), elem))
    entries.sort(key=lambda pair: pair[0])
    return [elem for _, elem in entries]


def entry_pool(curve, deg_x: int, deg_y: int):
    """Every search entry in search order, over any field: nonzero before
    zero, then by the padded coefficient vectors of A and B, constant
    terms first, each coefficient by its own base-p digits; built whole
    and sorted, as the reference for ``search._pool_entry``."""
    field = curve.field
    zero = field.zero()
    b_polys = [Poly.zero(field)] if deg_y < 0 else list(polys_up_to(field, deg_y))
    pool = [RingElement(curve, a, b) for a in polys_up_to(field, deg_x) for b in b_polys]

    def key(e):
        a = list(e.a.coeffs) + [zero] * (deg_x + 1 - len(e.a.coeffs))
        b = list(e.b.coeffs) + [zero] * (deg_y + 1 - len(e.b.coeffs)) if deg_y >= 0 else []
        return (e.is_zero(), tuple(v for c in a + b for v in c.coeffs))

    return sorted(pool, key=key)


def _inner(f_rows, u, v, zero):
    total = zero
    for i in range(len(u)):
        for j in range(len(v)):
            total = total + u[i] * f_rows[i][j] * v[j]
    return total


def first_isometry(f, g, deg_x: int, deg_y: int = -1):
    """The first integral Q with Q^t F Q = G and unit determinant, its
    columns compared left to right by their tuples of entry positions,
    or None; returned as rows of ring elements."""
    curve = f.curve
    if curve.is_polyline:
        deg_y = -1
    n = f.n
    zero = RingElement.zero(curve)
    f_rows = [[e.as_ring_element() for e in row] for row in f.matrix.rows]
    g_rows = [[e.as_ring_element() for e in row] for row in g.matrix.rows]
    columns = list(itertools.product(_search_entries(curve, deg_x, deg_y), repeat=n))
    fitting = [[c for c in columns if _inner(f_rows, c, c, zero) == g_rows[j][j]] for j in range(n)]
    chosen = []

    def extend(j):
        if j == n:
            rows = [[chosen[c][r] for c in range(n)] for r in range(n)]
            return rows if leibniz_det(rows).is_unit() else None
        for col in fitting[j]:
            if any(_inner(f_rows, chosen[i], col, zero) != g_rows[i][j] for i in range(j)):
                continue
            chosen.append(col)
            found = extend(j + 1)
            if found is not None:
                return found
            chosen.pop()
        return None

    return extend(0)


@contextlib.contextmanager
def recorded_ticks():
    """Inside the block, every budget charge an isometry search makes is
    appended, in order, to the list this yields."""
    ticks = []
    tick = search._EvalCounter.tick

    def recording(self, amount):
        ticks.append(amount)
        return tick(self, amount)

    search._EvalCounter.tick = recording
    try:
        yield ticks
    finally:
        search._EvalCounter.tick = tick


# ---------------------------------------------------------------------------
# Monic irreducibles by trial division: the sieve the library used before
# it switched to marking products, with its own cache.


_trial_cache: dict[tuple, tuple] = {}


def monic_irreducibles_by_trial_division(field: FiniteField, degree: int):
    """The monic irreducibles of the degree in canonical order: every
    monic polynomial not divisible by an irreducible of degree <= d/2."""
    key = (field.p, field.k, field.modulus, degree)
    if key not in _trial_cache:
        divisors = []
        for d in range(1, degree // 2 + 1):
            divisors.extend(monic_irreducibles_by_trial_division(field, d))
        _trial_cache[key] = tuple(
            g for g in monic_polys(field, degree) if not any((g % h).is_zero() for h in divisors)
        )
    return _trial_cache[key]


def factor_by_trial_division(f):
    """(leading coefficient, [(prime, multiplicity), ...]) of f != 0: the
    monic irreducibles of each degree d, listed by trial division, divided
    out in canonical order while d is at most half of what is left, which
    is then 1 or prime."""
    rem, factors, d = f.monic(), [], 1
    while 2 * d <= rem.degree:
        for g in monic_irreducibles_by_trial_division(f.field, d):
            m = _multiplicity(rem, g)
            if m:
                factors.append((g, m))
                rem = rem // g**m
        d += 1
    if rem.degree >= 1:
        factors.append((rem, 1))
    return f.leading_coeff(), factors


# ---------------------------------------------------------------------------
# F_p[t]/(m) on plain coefficient vectors: schoolbook products with long
# division by the modulus, inverses and square roots by exhaustive search.
# Nothing here uses logarithms or the library's elements.


class VectorField:
    """The field with the given odd prime p and monic modulus m, elements
    as coefficient tuples (constant coefficient first)."""

    def __init__(self, p: int, modulus):
        self.p = p
        self.m = tuple(modulus)
        self.k = len(modulus) - 1
        # canonical order: base-p counting, constant coefficient fastest
        self.vectors = [v[::-1] for v in itertools.product(range(p), repeat=self.k)]
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)
        self._inverses = None
        self._roots = None

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, k, m = self.p, self.k, self.m
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * k - 2, k - 1, -1):  # t^top = t^(top-k) (t^k - m)
            c = prod[top] % p
            for i in range(k + 1):
                prod[top - k + i] -= c * m[i]
        return tuple(c % p for c in prod[:k])

    def inverse(self, a):
        if self._inverses is None:
            self._inverses = {}
            for x in self.vectors[1:]:
                for y in self.vectors[1:]:
                    if self.mul(x, y) == self.one:
                        self._inverses[x] = y
                        break
        if a not in self._inverses:
            raise ZeroDivisionError("zero has no inverse")
        return self._inverses[a]

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inverse(a), -e
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def smallest_root(self, a):
        """The smallest (as a tuple) r with r*r = a, or None."""
        if self._roots is None:
            self._roots = {}
            for r in self.vectors:
                sq = self.mul(r, r)
                if sq not in self._roots or r < self._roots[sq]:
                    self._roots[sq] = r
        return self._roots.get(a)


def poly_product_by_vectors(a, b) -> list:
    """The coefficient vectors of a * b for two library polynomials over
    one field, by the full convolution in ``VectorField``: every pair of
    coefficients is multiplied, zero and constant factors included, and
    trailing zero vectors are dropped."""
    field = a.field
    vf = VectorField(field.p, field.modulus)
    out = [vf.zero] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = vf.add(out[i + j], vf.mul(x.coeffs, y.coeffs))
    while out and out[-1] == vf.zero:
        out.pop()
    return out


def log_tables_by_walk(p: int, modulus):
    """(exp, zech) for F_p[t]/(m) by repeated multiplication: g is the
    first element in canonical order whose powers reach every nonzero
    element, exp[n] is the coefficient tuple of g^n and zech[n] the log
    of 1 + g^n (None where it is zero), for 0 <= n < q - 1."""
    field = VectorField(p, modulus)
    q = len(field.vectors)
    for g in field.vectors[1:]:
        exp, power = [field.one], g
        while power != field.one:
            exp.append(power)
            power = field.mul(power, g)
        if len(exp) == q - 1:
            break
    log = {v: n for n, v in enumerate(exp)}
    return exp, [log.get(field.add(field.one, v)) for v in exp]


def reducible_monics_by_products(field: FiniteField, degree: int) -> set:
    """Coefficient tuples of every reducible monic of the degree: each is
    g*h with g, h monic of degrees e and degree - e for some 1 <= e <=
    degree/2.  No bound on q^degree, and no gcd or power is taken."""
    out = set()
    for e in range(1, degree // 2 + 1):
        cofactors = list(monic_polys(field, degree - e))
        for g in monic_polys(field, e):
            out.update((g * h).coeffs for h in cofactors)
    return out


# ---------------------------------------------------------------------------
# Pair files, written back: the tests' round trip through pair_from_json,
# which no command needs.


def field_to_json(field) -> dict:
    return {"p": field.p, "k": field.k}


def curve_to_json(curve) -> dict:
    out = {"type": curve.kind, "field": field_to_json(curve.field)}
    if not curve.is_polyline:
        out["a"] = elem_to_json(curve.a)
        out["b"] = elem_to_json(curve.b)
    return out


def pair_to_json(curve, f, g, witness=None, degree=None, bounds=None) -> dict:
    out = {
        "schema": 1,
        "curve": curve_to_json(curve),
        "F": matrix_to_json(f.matrix),
        "G": matrix_to_json(g.matrix),
    }
    if witness is not None:
        out["witnesses"] = [
            {"Q": matrix_to_json(q), "s": ring_elem_to_json(s)} for q, s in witness.pairs
        ]
    if degree is not None:
        out["degree"] = degree
    if bounds is not None:
        out["isom_bounds"] = dict(bounds)
    return out


# ---------------------------------------------------------------------------
# polynomial text, read by a second statement of the grammar: the whole
# text is matched against a grammar of terms, then read term by term, and
# a refused text is read again to find the term to blame


# a coefficient: digits, or a parenthesized t-polynomial as to_text writes
# one over F_{p^k}
_REFERENCE_T_TERM = r"(?:\d+(?:\*?t(?:\^\d+)?)?|\*?t(?:\^\d+)?)"
_REFERENCE_COEFF = rf"(?:\d+|\({_REFERENCE_T_TERM}(?:\+{_REFERENCE_T_TERM})*\))"
_WHOLE_TEXT_RE = re.compile(rf"(?:[+-]?(?:{_REFERENCE_COEFF}(?:\*?x(?:\^\d+)?)?|\*?x(?:\^\d+)?)(?=[+-]|\Z))+")
_REFERENCE_TERM_RE = re.compile(r"([+-]?)(\([^()]*\)|\d*)(?:\*?(x)(?:\^(\d+))?)?")


def _reference_exponent(x: str, exp: str) -> int:
    e = (int(exp) if exp else 1) if x else 0
    if e > MAX_TEXT_DEGREE:
        raise ValueError(f"exponent {e} exceeds the text grammar's bound {MAX_TEXT_DEGREE}")
    return e


def _reference_coefficient(field: FiniteField, coeff: str, run: str, text: str):
    """A term's coefficient: an int, or the field element a parenthesized
    t-polynomial names, summed term by term in the field once its top
    power of t with a nonzero coefficient mod p is known to be below k;
    otherwise the term's run is refused as a bad term of the text."""
    if not coeff.startswith("("):
        return int(coeff) if coeff else 1
    vector: dict[int, int] = {}
    for term in coeff[1:-1].split("+"):
        digits, t, exp = re.fullmatch(r"(\d*)\*?(t?)(?:\^(\d+))?", term).groups()
        e = _reference_exponent(t, exp)
        vector[e] = (vector.get(e, 0) + (int(digits) if digits else 1)) % field.p
    if max((e for e, c in vector.items() if c), default=0) >= field.k:
        raise ValueError(f"bad term {run!r} in polynomial text {text!r}")
    total = field.zero()
    for e, c in vector.items():
        if c:
            total += c * field.element([0] * e + [1])
    return total


def _reference_refusal(field: FiniteField, text: str, compact: str) -> ValueError:
    """The error for a text outside the whole-text grammar: an empty
    text, a stray sign, or else the first signed run, left to right, a
    parenthesized group kept whole, that is no term or has too large an
    exponent or coefficient (raised here)."""
    if not compact:
        return ValueError("empty polynomial text")
    pieces = re.findall(r"[+-]?(?:[^+\-(]|\([^()]*\))+", compact)
    for piece in pieces if "".join(pieces) == compact else ():
        if not _WHOLE_TEXT_RE.fullmatch(piece):
            return ValueError(f"bad term {piece!r} in polynomial text {text!r}")
        _, coeff, x, exp = _REFERENCE_TERM_RE.fullmatch(piece).groups()
        _reference_exponent(x, exp)
        _reference_coefficient(field, coeff, piece, text)
    return ValueError(f"cannot parse polynomial text {text!r}")


def poly_from_text_by_whole_grammar(field: FiniteField, text: str) -> Poly:
    """``Poly.from_text`` as a whole-text match followed by a term-by-term
    read, raising the same messages."""
    if not isinstance(text, str):
        raise ValueError(f"polynomial text must be a string, got {text!r}")
    compact = text.replace(" ", "")
    if compact.isdecimal():
        return Poly(field, [int(compact)])
    if not _WHOLE_TEXT_RE.fullmatch(compact):
        raise _reference_refusal(field, text, compact)
    coeffs = {}
    for term in _REFERENCE_TERM_RE.finditer(compact):
        sign, coeff, x, exp = term.groups()
        if coeff or x:  # not the empty match at the end
            e = _reference_exponent(x, exp)
            c = _reference_coefficient(field, coeff, term[0], text)
            coeffs[e] = coeffs.get(e, 0) + (-c if sign == "-" else c)
    codes = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        codes[e] = c
    return Poly(field, codes)
