"""Integral forms as Gram matrices: unimodularity, residue-field Witt
invariants, local isomorphism, genus witnesses, and bounded isometry
search.

Classification over a finite field of odd order is rank plus the square
class of the determinant, so ``field_isomorphic`` is a two-invariant
comparison; the test suite pins it against exhaustive congruence search
over the full general linear group.  Local isomorphism of unimodular
forms at a closed place reduces to form isomorphism over its residue
field F_{q^e}, which ``local_isomorphic`` reads off the constant Gram
determinants and the place degree e, with no matrix evaluated.

A genus witness is a finite list of fraction-field transition matrices
Q, each with a declared bad locus given by a ring element s: away from
the zero locus of s the matrix must be integral with unit determinant.
Verification is point-based up to an inspection degree d with
q^d <= 14 641, rather than ideal-theoretic.  Each closed place is
examined once: a monic irreducible polynomial on the affine line, one
point of its Frobenius orbit on the cubic.  Whatever no witness reaches
is reported as a gap.

``isom_search`` looks for an integral unit-determinant congruence
between two Gram matrices by column-pruned enumeration inside explicit
degree bounds, returning the first witness in a fixed deterministic
order or none-within-bounds.  A negative answer is bounded-search
evidence, not a proof of non-isomorphism.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .curvepoints import AffinePoint, enumerate_points, frobenius_orbit, is_singular_point, require_on_curve
from .curvering import (
    CurveSpec,
    RingElement,
    RingFraction,
    RingMatrix,
    det,
    matmul,
)
from .finfield import (
    MAX_INSPECTION_SIZE,
    FieldElement,
    FiniteField,
    SquareClass,
    capped_power,
    embed,
    is_square,
    make_extension,
    square_class,
)
from .funcfield import Poly, PrimePoly, monic_irreducibles, poly_gcd
from .records import Record

DEFAULT_SEARCH_BUDGET = 10**8


class MalformedWitnessError(ValueError):
    """A witness denominator does not divide a power of its declared locus."""


class BudgetExceededError(RuntimeError):
    """Estimated search size exceeds the configured evaluation cap."""


# ---------------------------------------------------------------------------
# Forms over finite fields


class FieldForm:
    """A symmetric matrix of field elements; ``det()`` computes once."""

    __slots__ = ("field", "rows", "_det")

    def __init__(self, field: FiniteField, rows):
        coerced = tuple(tuple(field.element(v) for v in row) for row in rows)
        n = len(coerced)
        if any(len(row) != n for row in coerced):
            raise ValueError("form matrix must be square")
        for i in range(n):
            for j in range(i):
                if coerced[i][j] != coerced[j][i]:
                    raise ValueError("form matrix must be symmetric")
        self.field = field
        self.rows = coerced
        self._det = None

    @classmethod
    def diagonal(cls, field, entries) -> FieldForm:
        n = len(entries)
        return cls(field, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.rows)

    def det(self) -> FieldElement:
        if self._det is None:
            self._det = det(self.rows)
        return self._det

    def is_degenerate(self) -> bool:
        return self.det().is_zero()

    @property
    def rank(self) -> int:
        diag, _ = diagonalize(self)
        return sum(1 for d in diag if not d.is_zero())

    def __eq__(self, other):
        return (
            isinstance(other, FieldForm)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return f"FieldForm({[[c.coeffs[0] if self.field.k == 1 else c.coeffs for c in row] for row in self.rows]})"


def field_congruence(t_rows, form: FieldForm) -> FieldForm:
    """T^t F T over the field, for plain row-tuple transition matrices."""
    return FieldForm(form.field, matmul(tuple(zip(*t_rows)), matmul(form.rows, t_rows)))


def diagonalize(form: FieldForm):
    """Congruence diagonalization over a field of odd characteristic.

    Returns (diagonal entries, T) with T^t F T diagonal.  A zero pivot
    with a nonzero off-diagonal partner j is repaired by the basis
    substitution e_i <- e_i + e_j (falling back to e_i - e_j when the
    characteristic-independent cancellation 2F_ij + F_jj = 0 strikes);
    pivots and partners are always taken at the lowest index.
    Degenerate forms simply keep zeros on the diagonal, so the rank is
    preserved.
    """
    field = form.field
    n = form.n
    m = [list(row) for row in form.rows]
    t = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]

    def add_basis(i, j, c):
        # e_i <- e_i + c * e_j
        for r in range(n):
            t[r][i] = t[r][i] + c * t[r][j]
        for r in range(n):
            m[r][i] = m[r][i] + c * m[r][j]
        for r in range(n):
            m[i][r] = m[i][r] + c * m[j][r]

    for i in range(n):
        if m[i][i].is_zero():
            j = next((k for k in range(i + 1, n) if not m[i][k].is_zero()), None)
            if j is None:
                continue  # e_i lies in the radical of the trailing block
            add_basis(i, j, field.one())
            if m[i][i].is_zero():
                add_basis(i, j, field.element(-2))
        inv = m[i][i].inverse()
        for j in range(i + 1, n):
            if not m[i][j].is_zero():
                add_basis(j, i, -(m[i][j] * inv))
    diag = tuple(m[i][i] for i in range(n))
    return diag, tuple(tuple(row) for row in t)


def disc_class(form: FieldForm) -> SquareClass:
    """Square class of the determinant, a congruence invariant."""
    d = form.det()
    if d.is_zero():
        raise ValueError("discriminant class of a degenerate form is undefined")
    return square_class(d)


def field_isomorphic(f: FieldForm, g: FieldForm) -> bool:
    """Rank plus discriminant class decide isomorphism over a finite
    field of odd order (Witt classification)."""
    if f.field != g.field:
        raise ValueError("forms live over different fields")
    if f.is_degenerate() or g.is_degenerate():
        raise ValueError("isomorphism test requires nondegenerate forms")
    return f.n == g.n and disc_class(f) == disc_class(g)


# ---------------------------------------------------------------------------
# Integral forms


class GramMatrix:
    """A nondegenerate symmetric matrix with entries in the coordinate
    ring, representing an integral bilinear form.

    Integrality is checked first, so the determinant is taken over the
    ring (``det`` on the ring entries) and kept as a RingElement.
    """

    __slots__ = ("curve", "matrix", "_det")

    def __init__(self, curve: CurveSpec, matrix: RingMatrix):
        if matrix.curve != curve:
            raise ValueError("matrix lives over a different curve")
        if not matrix.is_symmetric():
            raise ValueError("integral forms are symmetric")
        if not matrix.all_integral():
            raise ValueError("integral forms have no denominators")
        d = det([[e.num for e in row] for row in matrix.rows])
        if d.is_zero():
            raise ValueError("integral forms are nondegenerate")
        self.curve = curve
        self.matrix = matrix
        self._det = d

    @classmethod
    def from_rows(cls, curve, rows) -> GramMatrix:
        return cls(curve, RingMatrix(curve, rows))

    @classmethod
    def identity(cls, curve, n: int) -> GramMatrix:
        return cls(curve, RingMatrix.identity(curve, n))

    @classmethod
    def diagonal(cls, curve, entries) -> GramMatrix:
        return cls(curve, RingMatrix.diagonal(curve, entries))

    @property
    def n(self) -> int:
        return self.matrix.n

    def det(self) -> RingElement:
        return self._det

    def ring_rows(self):
        return tuple(tuple(e.as_ring_element() for e in row) for row in self.matrix.rows)

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self.matrix == other.matrix

    def __repr__(self):
        return f"GramMatrix({self.matrix.rows!r})"


def is_unimodular(form: GramMatrix) -> bool:
    """Whether the determinant is a unit, i.e. a nonzero constant."""
    return form.det().is_unit()


def local_isomorphic(f: GramMatrix, g: GramMatrix, at) -> bool:
    """Whether two unimodular forms agree over the residue field F_{q^e}
    of a closed place: a monic irreducible of the line of degree e, or a
    point of the cubic whose Frobenius orbit has its stated length e.

    Rank and the square class of the determinant classify forms there.
    The determinants are constants c of F_q^x, and c^((q^e - 1)/2) =
    chi(c)^(1 + q + ... + q^(e-1)): for even e every c is a square, for
    odd e c keeps its class in F_q.  No matrix is evaluated.  ValueError
    rejects a prime over another field or at infinity, and a point off
    the curve, singular, or of a wrong stated degree.
    """
    if f.curve != g.curve:
        raise ValueError("forms live over different curves")
    for name, form in (("first", f), ("second", g)):
        if not is_unimodular(form):
            raise ValueError(f"{name} form is not unimodular; its reduction may degenerate")
    curve = f.curve
    if isinstance(at, PrimePoly):
        if not curve.is_polyline:
            raise ValueError("prime reduction applies over the affine line")
        if at.field != curve.field or at.is_infinite:
            raise ValueError(f"{at!r} is not a finite prime over the curve's field")
        e = at.degree
    elif isinstance(at, AffinePoint):
        if curve.is_polyline:
            raise ValueError("affine-line forms reduce at primes, not curve points")
        require_on_curve(curve, at)
        if is_singular_point(curve, at.x, at.y):
            raise ValueError(
                "reduction at the singular point is rejected: the local ring "
                "there is not a discrete valuation ring"
            )
        e = len(frobenius_orbit(curve.field.q, at.x, at.y))
        if e != at.degree:
            raise ValueError(f"point {at!r} has degree {e}, not the stated {at.degree}")
    else:
        raise TypeError(f"cannot localize at {at!r}")
    c_f, c_g = f.det().constant_value(), g.det().constant_value()
    return f.n == g.n and (e % 2 == 0 or is_square(c_f) == is_square(c_g))


# ---------------------------------------------------------------------------
# Genus witnesses


class GenusWitness(Record):
    """Transition matrices with declared bad loci, certifying membership
    in a genus prime by prime."""

    __slots__ = ("target", "pairs")

    def __init__(self, target: GramMatrix, pairs: tuple):  # pairs of (RingMatrix, RingElement)
        self.target = target
        self.pairs = pairs
        self.__post_init__()

    def __post_init__(self):
        pairs = []
        for q, s in self.pairs:
            if not isinstance(q, RingMatrix) or not isinstance(s, RingElement):
                raise TypeError("witness pairs are (matrix, ring element)")
            if q.curve != self.target.curve or s.curve != self.target.curve:
                raise ValueError("witness pieces live over different curves")
            if s.is_zero():
                raise MalformedWitnessError("declared locus must be nonzero")
            _check_denominators(q, s)
            pairs.append((q, s))
        self.pairs = tuple(pairs)


def _check_denominators(q: RingMatrix, s: RingElement):
    """Every denominator must divide a power of s, equivalently of the
    norm N(s): dividing it by its gcd with N(s) until that gcd is 1 must
    leave a constant (gcd saturation; no factoring needed).  All do when
    their lcm does, so it is saturated once; the entries are saturated
    one by one only to name the first failing factor."""
    norm = s.norm()
    if _saturate(_common_denominator(q), norm).degree < 1:
        return
    for row in q.rows:
        for e in row:
            rest = _saturate(e.den, norm)
            if rest.degree >= 1:
                raise MalformedWitnessError(
                    f"denominator factor {rest} does not divide a power "
                    f"of the declared locus"
                )


def _saturate(den: Poly, norm: Poly) -> Poly:
    """den with every factor it shares with norm divided out."""
    while den.degree >= 1 and (g := poly_gcd(den, norm)).degree >= 1:
        den = den // g
    return den


def _common_denominator(q: RingMatrix) -> Poly:
    """delta, the monic lcm of the entry denominators of q."""
    delta = Poly.one(q.curve.field)
    for row in q.rows:
        for e in row:
            if e.den.degree >= 1:
                delta = e.den if delta.degree < 1 else delta // poly_gcd(delta, e.den) * e.den
    return delta


class GenusReport(Record):
    """Outcome of point-based genus verification up to a degree."""

    __slots__ = ("verdict", "degree", "identity_ok", "covered", "uncovered")

    def __init__(self, verdict: str, degree: int, identity_ok: tuple, covered: tuple, uncovered: tuple):
        self.verdict = verdict  # "Certified" | "GapFound"
        self.degree = degree
        self.identity_ok = identity_ok
        self.covered = covered
        self.uncovered = uncovered


def verify_genus_witness(
    f: GramMatrix, g: GramMatrix, witness: GenusWitness, degree: int = 2
) -> GenusReport:
    """Check a genus witness and report coverage up to the given degree.

    Three things are verified: each congruence identity Q^t F Q = G
    exactly, over the ring with one common denominator (which certifies
    isomorphism over the function field), integrality and unit
    determinant of each Q away from its declared locus, and coverage:
    every closed point of degree at most ``degree`` must be reached by
    some witness, one whose support element s * num(det Q) * delta
    (``_support``) does not vanish there.  Each closed point is listed
    once, as a monic irreducible on the line and as one point of its
    Frobenius orbit on the cubic.  q^degree must be at most
    MAX_INSPECTION_SIZE on both, which is checked before any work.
    Points beyond the inspection degree are not examined; a Certified
    verdict means certified up to that degree.
    """
    if f.curve != g.curve:
        raise ValueError("forms live over different curves")
    if f.n != g.n:
        raise ValueError("forms have different ranks")
    if witness.target.matrix != g.matrix:
        raise ValueError("witness targets a different form")
    if degree < 1:
        raise ValueError("inspection degree must be >= 1")
    curve = f.curve
    # the line sieves up to q^degree candidate primes, the cubic scans
    # F_{q^degree}
    if capped_power(curve.field.q, degree, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
        raise ValueError(
            f"inspection degree {degree} over F_{curve.field.q} exceeds the "
            f"enumeration bound q^degree <= {MAX_INSPECTION_SIZE}"
        )

    checks = [witness_identity(q, f, g) for q, _ in witness.pairs]
    identity_ok = tuple(ok for ok, _ in checks)
    supports = [_support(q, s, det) for (q, s), (_, det) in zip(witness.pairs, checks)]
    covered, uncovered = [], []
    for d in range(1, degree + 1):
        for place in _closed_places(curve, d):
            if not all(_vanishes(h, place) for h in supports):
                covered.append(place)
            else:
                uncovered.append(place)

    certified = all(identity_ok) and not uncovered
    return GenusReport(
        verdict="Certified" if certified else "GapFound",
        degree=degree,
        identity_ok=identity_ok,
        covered=tuple(covered),
        uncovered=tuple(uncovered),
    )


def witness_identity(q: RingMatrix, f: GramMatrix, g: GramMatrix):
    """(whether Q^t F Q = G, det Q), both over the ring with one common
    denominator (fraction-free, as in von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 6).  With delta the lcm of Q's denominators,
    P = delta Q is integral, Q^t F Q = G exactly when P^t F P = delta^2 G,
    and det Q = det P / delta^n, reduced once."""
    if not q.n == f.n == g.n:
        raise ValueError("dimension mismatch")
    delta = _common_denominator(q)
    p = [[e.num if e.is_zero() or e.den == delta else e.num * (delta // e.den) for e in row] for row in q.rows]
    lhs = matmul(tuple(zip(*p)), matmul(f.ring_rows(), p))
    scale = delta * delta
    ok = all(x == y * scale for lrow, grow in zip(lhs, g.ring_rows()) for x, y in zip(lrow, grow))
    return ok, RingFraction(q.curve, det(p), delta**q.n)


def _closed_places(curve: CurveSpec, d: int):
    """The closed places of degree d: monic irreducibles on the line; on
    the cubic, one point per Frobenius orbit of length d, the one first
    in canonical order of (x.coeffs, y.coeffs).  s, Q and det Q are
    defined over F_q, so they vanish at every point of an orbit or at
    none, and one point decides for the whole closed point."""
    if curve.is_polyline:
        return [PrimePoly(curve.field, prime) for prime in monic_irreducibles(curve.field, d)]
    points = enumerate_points(curve, d)
    if d == 1:
        return points
    q, reps = curve.field.q, {}  # each orbit of length d walked once, for its first point
    for point in points:
        if point.degree == d and (point.x, point.y) not in reps:
            orbit = frobenius_orbit(q, point.x, point.y)
            reps.update(dict.fromkeys(orbit, min(orbit, key=lambda xy: (xy[0].coeffs, xy[1].coeffs))))
    return [point for point in points if reps.get((point.x, point.y)) == (point.x, point.y)]


def _support(q: RingMatrix, s: RingElement, det: RingFraction) -> RingElement:
    """h = s * num(det q) * delta, delta the lcm of q's denominators.  The
    witness (q, s) reaches a place when the place is off the locus of s,
    q is integral there and det q is a unit there.  An entry's
    denominator vanishes exactly where delta does, and den(det q),
    reduced, divides delta^n, so that is: none of s, num(det q) and delta
    vanishes, which holds exactly where h does not vanish, since the
    residue ring at a closed place is a field."""
    return s * det.num * _common_denominator(q)


def _vanishes(h: RingElement, place) -> bool:
    """Whether h vanishes at the place: on the line (where h has no y
    part) h(r) = 0 at x - r, else divisibility by the prime; on the cubic
    zero at the point."""
    if isinstance(place, PrimePoly):
        if place.poly.degree == 1:
            return h.a.evaluate(-place.poly.coeffs[0]).is_zero()
        return (h.a % place.poly).is_zero()
    return h.evaluate(place.x, place.y).is_zero()


# ---------------------------------------------------------------------------
# Bounded isometry search


def isom_search(
    f: GramMatrix,
    g: GramMatrix,
    deg_x: int,
    deg_y: int = -1,
    budget: Optional[int] = None,
) -> Optional[RingMatrix]:
    """Search for Q integral with Q^t F Q = G and unit determinant.

    Candidate entries are ring elements A(x) + B(x)y with deg A <= deg_x
    and deg B <= deg_y (deg_y < 0, or the affine line, forbids the y
    part), listed nonzero before zero, then by coefficient vectors.
    Columns are found left to right: a column must achieve the matching
    diagonal entry of G, then the inner products against the columns
    already chosen, and a full candidate must have unit determinant.
    Each column's candidates are tried in the order of their tuples of
    entry positions, and the first witness in that order is returned.
    It need not be the identity: over F_5 with deg_x = 0, 1_3 against
    itself gives [[1,1,2],[1,2,1],[2,1,1]].  ``None`` means
    none-within-bounds, which is evidence, not proof.

    Every inner product is compared on its values at D + 1 curve points
    with distinct x, and that comparison is exact.  For h = A + By the
    norm N(h) = A^2 - B^2 (x^3 + ax + b) is 0 only when h is (a cubic is
    not a square), its degree max(2 deg A, 2 deg B + 3) is the pole
    order of h at infinity (on the line N(h) = h, of degree deg A), and
    h(P) = 0 forces N(h)(x(P)) = h(P) h'(P) = 0, h' the conjugate.  Pole
    orders add under products, so D, the largest pole order of u^t F v
    for columns within the bounds, also bounds u^t F v - G_ij, and a
    nonzero difference vanishes at no more than D of the x-values.  A
    G_ij of larger pole order is matched by nothing and needs no points.
    The points are the first D + 1 x-values, in canonical order, of the
    smallest F_{q^k} that has that many (on the cubic, each with the
    smaller square root for y); when no field of at most
    MAX_INSPECTION_SIZE elements has them, ValueError is raised before
    the pool is built.  Only the final witness is built as a matrix over
    the ring, for its determinant.

    ``budget`` caps the estimated number of inner-product evaluations
    (default 10^8); exceeding it raises BudgetExceededError.
    """
    if f.curve != g.curve:
        raise ValueError("forms live over different curves")
    if f.n != g.n:
        raise ValueError("forms have different ranks")
    n = f.n
    if n > 3:
        raise ValueError("search supports rank <= 3")
    if deg_x < -1:
        raise ValueError("degree bound deg_x must be >= -1")
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    curve = f.curve
    if curve.is_polyline:
        deg_y = -1

    # every search path ticks at least the pool size, so refuse before
    # allocating a pool the budget could never pay for
    size = capped_power(curve.field.q, deg_x + 1, budget)
    if deg_y >= 0:
        size *= capped_power(curve.field.q, deg_y + 1, budget)
    if size > budget:
        raise BudgetExceededError(f"entry pool size exceeds budget {budget}")
    f_rows = f.ring_rows()
    g_rows = g.ring_rows()
    reach = _reach(curve, f_rows, deg_x, deg_y)
    points = _evaluation_points(curve, 0 if reach is None else reach + 1)
    diagonal = all(
        f_rows[i][j].is_zero() for i in range(n) for j in range(n) if i != j
    )

    # the scan for each distinct diagonal target is charged before any
    # value is computed; the scans themselves tick nothing
    counter = _EvalCounter(budget)
    for _ in {g_rows[j][j] for j in range(n)}:
        if diagonal:
            counter.tick(size)
            if n > 1:
                counter.tick(size ** (n - 1))
        else:
            counter.tick(size ** n)

    logs = _Logs(curve.field, points)
    coeffs = sorted(curve.field.elements(), key=lambda c: c.coeffs)
    vectors = _pool_vectors(deg_x, deg_y, coeffs, logs)
    f_at = [[logs.values(e) for e in row] for row in f_rows]
    f_cols = _columns(f_rows, f_at)
    # None marks a G entry beyond the reach of u^t F v, matched by nothing
    g_at = [[logs.values(e) if _reachable(e, reach) else None for e in row] for row in g_rows]
    scan = _diagonal_scan(vectors, f_at, logs) if diagonal else _full_scan(vectors, f_cols, logs)
    targets = {}
    for j in range(n):
        t = g_rows[j][j]
        if t not in targets:
            targets[t] = [] if g_at[j][j] is None else scan(g_at[j][j])
    candidates = [targets[g_rows[j][j]] for j in range(n)]

    est = 1
    for cand in candidates:
        est *= max(1, len(cand))
        if est > budget:
            raise BudgetExceededError(
                f"estimated candidate count {est} exceeds budget {budget}"
            )

    cols, images = [], []

    def extend(j: int) -> Optional[RingMatrix]:
        checks = [(images[i], g_at[i][j]) for i in range(j)]
        for col in candidates[j]:
            for image, target in checks:
                counter.tick()
                if target is None or not _agrees(image, col, vectors, target, logs):
                    break
            else:  # col agrees with every column chosen so far
                cols.append(col)
                if j == n - 1:
                    q = RingMatrix(curve, [
                        [_pool_entry(curve, deg_x, deg_y, coeffs, cols[c][r]) for c in range(n)] for r in range(n)
                    ])
                    det = q.det()
                    if det.is_integral() and det.as_ring_element().is_unit():
                        return q
                else:
                    images.append(_image([vectors[k] for k in col], f_cols, logs))
                    found = extend(j + 1)
                    if found is not None:
                        return found
                    images.pop()
                cols.pop()
        return None

    return extend(0)


class _EvalCounter:
    __slots__ = ("count", "budget")

    def __init__(self, budget: int):
        self.count = 0
        self.budget = budget

    def tick(self, amount: int = 1):
        self.count += amount
        if self.count > self.budget:
            raise BudgetExceededError(
                f"evaluation count {self.count} exceeds budget {self.budget}"
            )


def _pool_entry(curve: CurveSpec, deg_x: int, deg_y: int, coeffs, k: int) -> RingElement:
    """The entry at pool position k, built from the position alone.

    Search order lists the base-q numbers 1, 2, ..., q^m - 1 and then 0,
    whose m digits, most significant first, index ``coeffs`` for the
    coefficients of x^0 .. x^deg_x in A and then of x^0 .. x^deg_y in B;
    so position k holds the number (k + 1) mod q^m.
    """
    field = curve.field
    places = deg_x + 1 + max(deg_y + 1, 0)
    number = (k + 1) % field.q**places
    digits = []
    for _ in range(places):
        number, d = divmod(number, field.q)
        digits.append(coeffs[d])
    digits.reverse()
    return RingElement(curve, Poly._raw(field, digits[: deg_x + 1]), Poly._raw(field, digits[deg_x + 1 :]))


def _pole_order(e: RingElement) -> Optional[int]:
    """deg N(e), the pole order of e at infinity, or None for 0."""
    if e.is_zero():
        return None
    if e.curve.is_polyline:
        return e.a.degree
    return max(2 * e.a.degree, 2 * e.b.degree + 3 if not e.b.is_zero() else -1)


def _reach(curve: CurveSpec, f_rows, deg_x: int, deg_y: int) -> Optional[int]:
    """The largest pole order of u^t F v over columns within the bounds,
    or None when the bounds admit only the zero entry."""
    entry = []
    if deg_x >= 0:
        entry.append(deg_x if curve.is_polyline else 2 * deg_x)
    if deg_y >= 0:
        entry.append(2 * deg_y + 3)
    if not entry:
        return None
    return 2 * max(entry) + max(_pole_order(e) for row in f_rows for e in row if not e.is_zero())


def _reachable(target: RingElement, reach: Optional[int]) -> bool:
    order = _pole_order(target)
    return order is None or (reach is not None and order <= reach)


def _evaluation_points(curve: CurveSpec, count: int):
    """``count`` points (x0, y0) of the curve with distinct x0: the first
    x-values in canonical order of the smallest F_{q^k} that has enough,
    with y0 = 0 on the line and the smallest square root on the cubic."""
    if count == 0:
        return []
    base = curve.field
    for k in itertools.count(1):
        if capped_power(base.q, k, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
            raise ValueError(
                f"exact search needs {count} points with distinct x, more than "
                f"any field of at most {MAX_INSPECTION_SIZE} elements has"
            )
        if base.q**k < count:
            continue
        if curve.is_polyline:
            ext = make_extension(base.p, base.k * k)
            return [(x0, ext.zero()) for x0 in itertools.islice(ext.elements(), count)]
        first = {}  # the first point per x, which has the smaller root
        for point in enumerate_points(curve, k):
            first.setdefault(point.x, point.y)
        if len(first) >= count:
            return list(first.items())[:count]


class _Logs:
    """Values at the evaluation points, as tuples with one discrete log
    per point and None for 0: a product is a sum of logs, and a sum is
    one lookup in the evaluation field's Zech table."""

    __slots__ = ("points", "zech", "half", "wrap", "lift")

    def __init__(self, base: FiniteField, points):
        ext = points[0][0].field if points else base
        self.points = points
        self.zech = ext.zech_table()
        self.half = (ext.q - 1) // 2  # the log of -1
        # n mod (q - 1) for 0 <= n < 4(q - 1), as shared int objects, so
        # vectors over a field with logs above 256 hold no int of their own
        self.wrap = list(range(ext.q - 1)) * 4
        # each base coefficient embedded once, not once per point as
        # Poly.evaluate would for entries of degree up to MAX_TEXT_DEGREE
        self.lift = {c: embed(c, ext) for c in base.elements()}

    def values(self, e: RingElement) -> tuple:
        """e at each point, by Horner's rule on the lifted coefficients."""
        out = []
        for x0, y0 in self.points:
            a = b = x0 - x0
            for c in reversed(e.a.coeffs):
                a = a * x0 + self.lift[c]
            for c in reversed(e.b.coeffs):
                b = b * x0 + self.lift[c]
            out.append((a + b * y0).log)
        return tuple(out)

    def mul(self, us, vs) -> tuple:
        wrap = self.wrap
        return tuple([None if a is None or b is None else wrap[a + b] for a, b in zip(us, vs)])

    def add(self, us, vs) -> tuple:
        # g^a + g^b = g^(a + Z(b - a)), and None where that sum is 0
        zech, wrap = self.zech, self.wrap
        return tuple([
            b if a is None else a if b is None else None if (z := zech[b - a]) is None else wrap[a + z]
            for a, b in zip(us, vs)
        ])

    def times_square(self, fs, us, negate: bool = False) -> tuple:
        """f u^2 at each point, or -f u^2."""
        wrap, shift = self.wrap, self.half if negate else 0
        return tuple([None if a is None or c is None else wrap[c + 2 * a + shift] for c, a in zip(fs, us)])


def _pool_vectors(deg_x: int, deg_y: int, coeffs, logs: _Logs):
    """The values at the points of every pool entry, by pool position.

    An entry is the sum of its coefficients times the basis x^i (for A)
    and x^i y (for B).  Adding one coefficient position at a time, each
    over ``coeffs`` (the field sorted by coefficient vector), lists the
    entries by their padded coefficient vectors, A before B and constant
    terms first; moving zero from first to last gives search order, the
    order ``_pool_entry`` indexes.
    """
    points = logs.points
    basis = [tuple((x0**i).log for x0, _ in points) for i in range(deg_x + 1)]
    basis += [tuple((x0**i * y0).log for x0, y0 in points) for i in range(deg_y + 1)]
    vectors = [(None,) * len(points)]
    for values in basis:
        steps = [logs.mul((logs.lift[c].log,) * len(points), values) for c in coeffs]
        vectors = [logs.add(vec, step) for vec in vectors for step in steps]
    return vectors[1:] + vectors[:1]


def _image(entries, f_cols, logs: _Logs):
    """The row vector u^t F at the points, for a column u given by its
    entries' values and F by ``_columns``; computed once per chosen
    column."""
    image = []
    for terms in f_cols:
        acc = None
        for r, f in terms:
            term = entries[r] if f is None else logs.mul(entries[r], f)
            acc = term if acc is None else logs.add(acc, term)
        image.append(acc)
    return image


def _columns(f_rows, f_at):
    """For each column s of F, the pairs (r, values of F_rs) over its
    nonzero entries, with None for the values of an entry equal to 1."""
    n = len(f_rows)
    return [
        [(r, None if f_rows[r][s] == 1 else f_at[r][s]) for r in range(n) if not f_rows[r][s].is_zero()]
        for s in range(n)
    ]


def _agrees(image, col, vectors, target, logs: _Logs) -> bool:
    """Whether u^t F v equals the target at every point, for u given by
    its image u^t F and v by its pool positions; stops at the first
    point that disagrees."""
    zech, wrap = logs.zech, logs.wrap
    for m, t in enumerate(target):
        acc = None
        for w, k in zip(image, col):
            a, b = w[m], vectors[k][m]
            if a is None or b is None:
                continue
            if acc is None:
                acc = a + b
            else:
                z = zech[a + b - acc]
                acc = None if z is None else wrap[acc + z]
        if (acc if acc is None else wrap[acc]) != t:
            return False
    return True


def _diagonal_scan(vectors, f_at, logs: _Logs):
    """For a diagonal F: a function from a target's values to all
    columns c with c^t F c equal to it, as increasing tuples of pool
    positions.  It looks up f_00 c_0^2 by value and scans the other
    n - 1 entries (for rank 1 there is nothing left to scan)."""
    n = len(f_at)
    first = {}
    for k, vec in enumerate(vectors):
        first.setdefault(logs.times_square(f_at[0][0], vec), []).append(k)
    # -f_rr e^2 for r >= 1 and each pool position
    minus = [[logs.times_square(f_at[r][r], vec, negate=True) for vec in vectors] for r in range(1, n)]

    def scan(target):
        out = []
        for rest in itertools.product(range(len(vectors)), repeat=n - 1):
            need = target
            for r, k in enumerate(rest):
                need = logs.add(need, minus[r][k])
            out.extend((k, *rest) for k in first.get(need, ()))
        out.sort()
        return out

    return scan


def _full_scan(vectors, f_cols, logs: _Logs):
    """For any F: a function from a target's values to all columns c with
    c^t F c equal to it, each n-tuple of pool positions checked with
    ``_agrees`` against its own image."""
    n = len(f_cols)

    def scan(target):
        return [
            col
            for col in itertools.product(range(len(vectors)), repeat=n)
            if _agrees(_image([vectors[k] for k in col], f_cols, logs), col, vectors, target, logs)
        ]

    return scan
