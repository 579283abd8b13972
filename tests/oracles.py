"""Independent brute-force oracles used to pin expected values.

Everything in here deliberately avoids the library's decision routines:
squares are found by exhaustive squaring, form equivalence by exhaustive
congruence over the full general linear group, point counts by direct
quadratic-character sums.  Keeping these paths separate is what makes
the oracle comparisons meaningful.
"""

from __future__ import annotations

import itertools

from hasseforms.finfield import FiniteField, embed, make_extension
from hasseforms.curvering import RingElement
from hasseforms.forms import FieldForm, field_isomorphic
from hasseforms.funcfield import Poly, factor, monic_polys, residue_field


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


def points_by_trying_every_y(curve, degree: int) -> list:
    """(x.coeffs, y.coeffs, closed-point degree) of every affine point of a
    Weierstrass curve with coordinates in F_{q^degree}: x in canonical
    order, and above it every y whose square is x^3 + ax + b, smaller
    coefficient tuple first.  Every y is squared once, with no square
    root or log; the degree is the least e >= 1 with x^(q^e) = x and
    y^(q^e) = y."""
    ext = make_extension(curve.field.p, curve.field.k * degree)
    a, b, q = embed(curve.a, ext), embed(curve.b, ext), curve.field.q
    roots = {}
    for y in ext.elements():
        roots.setdefault((y * y).coeffs, []).append(y)
    points = []
    for x in ext.elements():
        for y in sorted(roots.get((x * x * x + a * x + b).coeffs, []), key=lambda v: v.coeffs):
            e, xe, ye = 1, x**q, y**q
            while xe != x or ye != y:
                e, xe, ye = e + 1, xe**q, ye**q
            points.append((x.coeffs, y.coeffs, e))
    return points


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


# ---------------------------------------------------------------------------
# Local isomorphism by evaluation: both Gram matrices at a geometric
# point of the place, with coordinates in its residue field, compared by
# field_isomorphic (itself pinned against exhaustive congruence search).


def reduce_at(form, x0, y0=None) -> FieldForm:
    """The Gram matrix evaluated at (x0, y0), as a form over the field of
    x0; on the line y0 is None and x0 is a root of the prime in its
    residue field."""
    return FieldForm(x0.field, form.matrix.evaluate(x0, y0))


def local_isomorphic_by_evaluation(f, g, place) -> bool:
    """local_isomorphic at a prime of the line (at the root of the prime
    in its residue field) or at a point of the cubic, whose coordinates
    must lie in F_{q^degree}, the residue field of its closed point."""
    if hasattr(place, "poly"):
        x0, y0 = residue_field(place)[1], None
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
# Witness checks by factoring and valuations: the rules genus verification
# used before it switched to gcd saturation and divisibility tests.


def denominators_divide_power_by_factoring(q, s) -> bool:
    """Every irreducible factor of every entry denominator of q divides
    the norm of s (trial-division factoring, degree <= 24)."""
    norm = s.norm()
    for row in q.rows:
        for e in row:
            if e.den.degree < 1:
                continue
            _, factors = factor(e.den)
            if any(not (norm % prime).is_zero() for prime, _ in factors):
                return False
    return True


def _multiplicity(f, prime) -> int:
    """How often prime divides f != 0, by repeated division."""
    m = 0
    while (f % prime).is_zero():
        f, m = f // prime, m + 1
    return m


def _line_valuation(e, prime) -> int:
    """v_prime of a nonzero line fraction num/den, counted here rather
    than by the library's valuation."""
    return _multiplicity(e.num.a, prime.poly) - _multiplicity(e.den, prime.poly)


def covers_prime_by_valuation(q, s, prime) -> bool:
    """Whether (q, s) reaches a finite prime of the line: v(s) = 0, every
    entry has v >= 0, and v(det q) = 0 for a nonzero determinant."""
    if _multiplicity(s.a, prime.poly) > 0:
        return False
    if any(_line_valuation(e, prime) < 0 for row in q.rows for e in row if not e.is_zero()):
        return False
    d = leibniz_det(q.rows)
    return not d.is_zero() and _line_valuation(d, prime) == 0


def _vanishes_at(h, place) -> bool:
    """Whether a ring element or a polynomial in x vanishes at a closed
    place: divisible by the prime on the line, zero at the point on a
    cubic."""
    a, b = (h.a, h.b) if isinstance(h, RingElement) else (h, None)
    if hasattr(place, "poly"):  # a prime of the line, where b is 0
        return (a % place.poly).is_zero()
    value = a.evaluate(place.x)
    if b is not None:
        value = value + b.evaluate(place.x) * place.y
    return value.is_zero()


def covers_by_every_part(q, s, det, place) -> bool:
    """Whether the witness (q, s) reaches a closed place by the rule
    coverage used before it tested only s, num(det q) and the lcm of the
    denominators: none of s, num(det q), den(det q) and the denominator
    of every entry vanishes there.  det is det q, computed by the caller
    (``leibniz_det``)."""
    parts = [s, det.num, det.den] + [e.den for row in q.rows for e in row]
    return not any(_vanishes_at(h, place) for h in parts)


# ---------------------------------------------------------------------------
# First isometry by exhaustive depth-first search over columns, with its
# own entry list, order and inner product; nothing from forms' search.


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
    and sorted, as the reference for ``forms._pool_entry``."""
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
