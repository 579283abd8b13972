"""Genus witnesses and their verification, point by point up to a degree.

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

Only ``genus-verify``, ``verify-paper`` and pair files that carry
witnesses load this module; its public names are reached through
``forms`` (the report's JSON through ``serialize``), which import it on
first use.
"""

from __future__ import annotations

from .curvepoints import AffinePoint, enumerate_points
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _cleared, congruence_rows
from .finfield import MAX_INSPECTION_SIZE, FiniteField, capped_power, embed, make_extension, square_and_multiply
from .forms import GramMatrix, MalformedWitnessError
from .funcfield import Poly, to_text
from .records import Record
from .serialize import point_to_json


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
            if q.curve is not self.target.curve or s.curve is not self.target.curve:
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
    if f.curve is not g.curve:
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
    denominator (``curvering._cleared``): with delta the lcm of Q's
    denominators, P = delta Q is integral, and Q^t F Q = G exactly when
    P^t F P = delta^2 G."""
    if not q.n == f.n == g.n:
        raise ValueError("dimension mismatch")
    p, delta, det_q = _cleared(q.rows)
    lhs = congruence_rows(p, f.rows)
    scale = delta * delta
    ok = all(x == y * scale for lrow, grow in zip(lhs, g.rows) for x, y in zip(lrow, grow))
    return ok, det_q


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


def place_to_json(place: AffinePoint) -> object:
    """A closed place: its prime's text on the line, its point on a cubic."""
    return point_to_json(place) if place.prime is None else to_text(place.prime)


def genus_report_to_json(report: GenusReport) -> dict:
    return {
        "schema": 1,
        "verdict": report.verdict,
        "degree": report.degree,
        "identity_ok": list(report.identity_ok),
        "covered": [place_to_json(p) for p in report.covered],
        "uncovered": [place_to_json(p) for p in report.uncovered],
    }
