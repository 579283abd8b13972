"""Integral forms as Gram matrices: unimodularity, residue-field Witt
invariants, local isomorphism and genus witnesses.  The bounded isometry
search lives in ``search`` and is reached here as ``isom_search``.

Classification over a finite field of odd order is rank plus the square
class of the determinant, so ``field_isomorphic`` is a two-invariant
comparison; the test suite pins it against exhaustive congruence search
over the full general linear group.  Local isomorphism of unimodular
forms at a closed place reduces to form isomorphism over its residue
field F_{q^e}, which ``local_isomorphic`` reads off the constant Gram
determinants and the place degree e, with no matrix evaluated.

A genus witness is a finite list of fraction-field transition matrices
Q, each with a declared bad locus given by a ring element s.  Each
entry (A + By)/D must lie in O[1/s], O the coordinate ring: D divides
both parts of (A + By) s^k for k = 2 deg D, a test in O/(D) with no
factoring.  Off the zeros of s, Q then lies in GL_n of the local ring
exactly where s * s^k * det Q, with s^k det Q in O, does not vanish.
Verification is point-based up to an inspection degree d with q^d <=
14 641.  Each closed place is examined once, on the line as on the
cubic, at one point of its Frobenius orbit, by one zero test per witness
on the logs of its coordinates.  Whatever no witness reaches is reported
as a gap.
"""

from __future__ import annotations

import itertools

from .curvepoints import AffinePoint, enumerate_points, is_singular_point, orbit_degree, require_on_curve
from .curvering import (
    CurveSpec,
    RingElement,
    RingFraction,
    RingMatrix,
    _coerce_entry,
    _ring_entry,
    congruence_rows,
    det,
    diagonal_rows,
    is_symmetric,
    square_rows,
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
    square_and_multiply,
    square_class,
)
from .funcfield import Poly, PrimePoly, _coeff_text, poly_gcd
from .records import Record

DEFAULT_SEARCH_BUDGET = 10**8


class MalformedWitnessError(ValueError):
    """A witness entry is not in O[1/s]: it has a pole off its declared locus s."""


class BudgetExceededError(RuntimeError):
    """Estimated search size exceeds the configured evaluation cap."""


def __getattr__(name):
    # the search is compiled on first use, so commands that never search
    # do not pay for it; the name is then bound here like any other
    if name != "isom_search":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .search import isom_search

    globals()[name] = isom_search
    return isom_search


# ---------------------------------------------------------------------------
# Forms over finite fields


class FieldForm:
    """A symmetric matrix of field elements; ``det()`` computes once."""

    __slots__ = ("field", "rows", "_det")

    def __init__(self, field: FiniteField, rows):
        coerced = tuple(
            tuple([v if type(v) is FieldElement and v.field is field else field.element(v) for v in row]) for row in rows
        )
        if not coerced:
            raise ValueError("form matrix must have at least one row")
        if any(len(row) != len(coerced) for row in coerced):
            raise ValueError("form matrix must be square")
        if not is_symmetric(coerced):
            raise ValueError("form matrix must be symmetric")
        self.field = field
        self.rows = coerced
        self._det = None

    @classmethod
    def diagonal(cls, field, entries) -> FieldForm:
        return cls(field, diagonal_rows(entries))

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
        return "FieldForm([" + ", ".join("[" + ", ".join(map(_coeff_text, row)) + "]" for row in self.rows) + "])"


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
    t = diagonal_rows([field.one()] * n, field.zero())

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
        return isinstance(other, GramMatrix) and self.curve == other.curve and self.rows == other.rows

    def __repr__(self):
        return f"GramMatrix({self.matrix.rows!r})"


def is_unimodular(form: GramMatrix) -> bool:
    """Whether the determinant is a unit, i.e. a nonzero constant."""
    return form.det().is_unit()


def local_isomorphic(f: GramMatrix, g: GramMatrix, at) -> bool:
    """Whether two unimodular forms agree over the residue field F_{q^e}
    of a closed place: a monic irreducible of the line of degree e, or a
    point of the line (y = None, as ``_closed_places`` reports it) or of
    the cubic whose Frobenius orbit has its stated length e.

    Rank and the square class of the determinant classify forms there.
    The determinants are constants c of F_q^x, and c^((q^e - 1)/2) =
    chi(c)^(1 + q + ... + q^(e-1)): for even e every c is a square, for
    odd e c keeps its class in F_q.  No matrix is evaluated.  ValueError
    rejects a prime over another field or at infinity, and a point off
    the curve, over another field, singular, or of a wrong stated degree.
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
            if at.y is not None:
                raise ValueError(f"point {at!r} has a y coordinate, which the affine line has not")
            if at.x.field.p != curve.field.p or at.x.field.k % curve.field.k:
                raise ValueError(f"point {at!r} does not lie over the curve's field")
        else:
            require_on_curve(curve, at)
            if is_singular_point(curve, at.x, at.y):
                raise ValueError(
                    "reduction at the singular point is rejected: the local ring "
                    "there is not a discrete valuation ring"
                )
        e = orbit_degree(curve.field.q, at.x, at.y)
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
            for i, row in enumerate(q.rows, 1):  # every entry must lie in O[1/s]
                for j, e in enumerate(row, 1):
                    if not _times_power(e.num, s, 2 * e.den.degree, e.den).is_zero():
                        raise MalformedWitnessError(f"entry ({i}, {j}) has a pole off the declared locus")
            pairs.append((q, s))
        self.pairs = tuple(pairs)


def _times_power(num: RingElement, s: RingElement, k: int, m: Poly) -> RingElement:
    """num * s^k with both parts reduced mod m, by square and multiply in
    O/(m) (``finfield.square_and_multiply``).  With m = D and k = 2 deg D
    it is 0 iff num/D lies in O[1/s]: the elements of O/(D) killed by s^j
    form a growing chain of subspaces of F_q-dimension at most 2 deg D (O
    is free of rank 2 over F_q[x], singular or not), so if any power of s
    clears num/D, s^(2 deg D) does."""
    if m.degree < 1:  # O/(1) is 0
        return RingElement.zero(num.curve)

    def reduced(e):
        return e if max(e.a.degree, e.b.degree) < m.degree else RingElement._raw(e.curve, e.a % m, e.b % m)

    return square_and_multiply(reduced(num), reduced(s), k, lambda a, b: reduced(a * b))


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
    isomorphism over the function field), entries of each Q in O[1/s],
    integral off its declared locus s (when the witness is built), and
    coverage: every closed point of degree at most ``degree`` must be
    reached by some witness, one whose support s * s^k * det Q
    (``_support``) does not vanish there: s does not, and det Q is a
    unit.  Each closed point is listed once, as one point of its
    Frobenius orbit (``_closed_places``), walked on discrete logs.  For
    each degree d, each support becomes one test on the logs of a point
    of F_{q^d} (``_reaches``), its coefficients embedded in F_{q^d} once,
    so a place costs a few Horner steps on logs and no field element.
    q^degree must be at most MAX_INSPECTION_SIZE, which is checked before
    any work.  Points beyond the inspection degree are not examined; a
    Certified verdict means certified up to that degree.
    """
    if f.curve != g.curve:
        raise ValueError("forms live over different curves")
    if f.n != g.n:
        raise ValueError("forms have different ranks")
    if witness.target != g:
        raise ValueError("witness targets a different form")
    if degree < 1:
        raise ValueError("inspection degree must be >= 1")
    curve = f.curve
    base = curve.field
    # the places of both curves are walked in F_{q^degree}
    if capped_power(base.q, degree, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
        raise ValueError(
            f"inspection degree {degree} over F_{base.q} exceeds the "
            f"enumeration bound q^degree <= {MAX_INSPECTION_SIZE}"
        )

    checks = [witness_identity(q, f, g) for q, _ in witness.pairs]
    identity_ok = tuple(ok for ok, _ in checks)
    supports = [_support(s, det) for (_, s), (_, det) in zip(witness.pairs, checks)]
    covered, uncovered = [], []
    for d in range(1, degree + 1):
        ext = make_extension(base.p, base.k * d)
        tests = [_reaches(support, ext) for support in supports]
        for place in _closed_places(curve, d):
            lx, ly = place.x._log, None if place.y is None else place.y._log
            for reaches in tests:
                if reaches(lx, ly):
                    covered.append(place)
                    break
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
    and det Q = det P / delta^n, reduced once (``_quotient``: with no gcd
    when det P is a constant times delta^n)."""
    if not q.n == f.n == g.n:
        raise ValueError("dimension mismatch")
    delta = Poly.one(q.curve.field)
    for e in itertools.chain.from_iterable(q.rows):
        if e.den.degree >= 1 and e.den != delta:
            delta = e.den if delta.degree < 1 else delta // poly_gcd(delta, e.den) * e.den
    p = [[e.num if e.is_zero() or e.den == delta else e.num * (delta // e.den) for e in row] for row in q.rows]
    lhs = congruence_rows(p, f.rows)
    scale = delta * delta
    ok = all(x == y * scale for lrow, grow in zip(lhs, g.rows) for x, y in zip(lrow, grow))
    return ok, _quotient(det(p), delta**q.n)


def _quotient(num: RingElement, den: Poly) -> RingFraction:
    """num / den, den monic: the curve's shared c/1 when num = c den for a
    constant c, read off den's leading coefficient with no gcd or exact
    division, else the fraction in lowest terms."""
    if not num.b.coeffs and num.a.degree == den.degree:
        c = num.a.coeffs[-1]
        if num.a == den * Poly._raw(den.field, (c,)):
            return _coerce_entry(num.curve, c)
    return RingFraction(num.curve, num, den)


def _closed_places(curve: CurveSpec, d: int):
    """The closed places of degree d, on the line as on the cubic: one
    point per Frobenius orbit of length d in F_{q^d}, each orbit walked
    once on the logs of its coordinates (``enumerate_points``).  s, Q and
    det Q are defined over F_q, so they vanish at every point of an orbit
    or at none, and one point decides for the whole closed place."""
    return [point for point in enumerate_points(curve, d, closed=True) if point.degree == d]


def _support(s: RingElement, det: RingFraction) -> tuple:
    """The support of a valid witness (q, s): h = s * c, c = s^k det q in
    O, k = 2 deg D for det q = N/D (``_times_power``).  The entries of q
    lie in O[1/s], so they are regular off the zeros of s, and the witness
    reaches a place exactly when s does not vanish there and det q is a
    unit there, that is, where h does not vanish: where s does not, c and
    det q differ by a unit.  h, of degree about k deg s, is not formed; it
    is returned as (s N, D, s low), low = (N s^k mod D^2) / D: where D
    does not vanish, h vanishes with s N; where D does, so does s N, and h
    vanishes with s low, since N s^k = D c makes low = c mod D."""
    low, den = _times_power(det.num, s, 2 * det.den.degree, det.den * det.den), det.den
    return s * det.num, RingElement(s.curve, den), s * RingElement._raw(s.curve, low.a // den, low.b // den)


def _zero_test(h: RingElement, ext: FiniteField):
    """Whether h vanishes at a point with coordinates in ext = F_{q^d},
    as a function of their logs (lx, ly): None for a zero coordinate, and
    ly None on the line.  h's coefficients are embedded in ext once, here;
    each call then runs Horner's rule on logs, a product being a sum of
    logs and a sum one Zech lookup, g^i + g^j = g^(i + Z(j - i))."""
    m, zech = ext.q - 1, ext.zech_table()

    def logs(poly):  # of the coefficients in ext, highest degree first
        return [(c if c.field is ext else embed(c, ext))._log for c in reversed(poly.coeffs)]

    a, b = logs(h.a), logs(h.b)

    def value(coeffs, lx):
        # the log of the polynomial with these coefficient logs, highest
        # degree first, at g^lx, by acc -> acc x + c
        if lx is None:
            return coeffs[-1] if coeffs else None
        acc = None
        for c in coeffs:
            if acc is None:
                acc = c
            elif c is None:
                acc = (acc + lx) % m
            else:
                acc += lx
                z = zech[c - acc]
                acc = None if z is None else (acc + z) % m
        return acc

    if not b:
        return lambda lx, ly: value(a, lx) is None

    def vanishes(lx, ly):
        va = value(a, lx)
        vb = None if ly is None else value(b, lx)
        if vb is None:
            return va is None
        if va is None:
            return False
        return zech[vb + ly - va] is None  # g^va + g^(vb + ly) = 0

    return vanishes


def _reaches(support: tuple, ext: FiniteField):
    """Whether a witness with this support (far, den, low) (``_support``)
    reaches a point of ext = F_{q^d}, given by its coordinate logs: far
    does not vanish there, or den does and low does not.  One test per
    support and place field, from the parts' ``_zero_test``s."""
    far, den, low = (_zero_test(h, ext) for h in support)
    return lambda lx, ly: not far(lx, ly) or den(lx, ly) and not low(lx, ly)
