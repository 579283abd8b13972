"""Genus witnesses and their verification, point by point up to a degree.

A genus witness is a finite list of fraction-field transition matrices
Q, each with a declared bad locus given by a ring element s.  Each
entry (A + By)/D must lie in O[1/s], O the coordinate ring: D divides
both parts of (A + By) s^k for k = 2 deg D, a test in O/(D) with no
factoring.  Off the zeros of s, Q then lies in GL_n of the local ring
exactly where s * s^k * det Q, with s^k det Q in O, does not vanish.
Verification is point-based up to an inspection degree d with q^d <=
14 641.  A closed place of degree d is one Frobenius orbit of d points,
walked here once on the logs of their coordinates and listed as its
least point, with its prime on the line (``enumerate_points``).  Each is
examined there once, on the line as on the cubic, by one zero test per
witness on those logs.  Whatever no witness reaches is reported as a gap.

Only ``genus-verify``, ``verify-paper``, pair files that carry witnesses
and ``local``'s primes of the line load this module.  Its public names
are imported from here, except those that perfbench looks up elsewhere:
``GenusWitness`` and ``verify_genus_witness`` are reached through
``forms``, ``genus_report_to_json`` through ``serialize`` and
``enumerate_points`` through ``curvepoints``, which import this module
on first use.
"""

from __future__ import annotations

from . import curvepoints
from .curvepoints import AffinePoint, _conjugates, _cubic_points, _cycle
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _cleared, congruence_rows, require_det_cost
from .finfield import MAX_INSPECTION_SIZE, FiniteField, capped_power, embed, make_extension, pullback_table, square_and_multiply
from .forms import GramMatrix, MalformedWitnessError, _require_pair
from .funcfield import Poly, monic_rank, to_text
from .records import Record
from .serialize import point_to_json


class GenusWitness(Record):
    """Transition matrices with declared bad loci, certifying membership
    in a genus prime by prime.  Each Q's size, and the cost of the
    determinant ``witness_identity`` takes of its cleared rows, read off
    Q's degrees (``_require_cleared_cost``), are checked before any of
    its entries is validated."""

    __slots__ = ("target", "pairs")

    def __init__(self, target: GramMatrix, pairs: tuple):  # pairs of (RingMatrix, RingElement)
        self.target = target
        self.pairs = pairs
        self.__post_init__()

    def __post_init__(self):
        self.pairs = tuple(self.pairs)
        for q, s in self.pairs:
            if not isinstance(q, RingMatrix) or not isinstance(s, RingElement):
                raise TypeError("witness pairs are (matrix, ring element)")
            if q.curve is not self.target.curve or s.curve is not self.target.curve:
                raise ValueError("witness pieces live over different curves")
            if q.n != self.target.n:
                raise ValueError("dimension mismatch")
            if s.is_zero():
                raise MalformedWitnessError("declared locus must be nonzero")
            if q.n > 2:  # the ranks det estimates
                _require_cleared_cost(q.rows)
            for i, row in enumerate(q.rows, 1):  # every entry must lie in O[1/s]
                for j, e in enumerate(row, 1):
                    if not _times_power(e.num, s, 2 * e.den.degree, e.den).is_zero():
                        raise MalformedWitnessError(f"entry ({i}, {j}) has a pole off the declared locus")


def _require_cleared_cost(rows) -> None:
    """``det``'s cost refusal for ``witness_identity``'s P = delta Q, read
    off Q with no polynomial arithmetic: (A + By)/D becomes (A + By)
    delta/D, and deg delta is taken as the largest deg D.  It is that when
    this D is the lcm, as when the D are equal, and the estimate is then
    ``det``'s on P; otherwise the estimate is low, never high, and ``det``
    checks P itself."""
    live = [e for row in rows for e in row if not e.is_zero()]
    lift = max((e.den.degree for e in live), default=0)
    lifted = [lift - e.den.degree + max(e.num.a.degree, e.num.b.degree + 2 if e.num.b.coeffs else 0) for e in live]
    require_det_cost(rows, max([1] + lifted), any(e.num.b.coeffs for e in live))


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
    unit.  Each closed point is listed once, at its degree, as one point
    of its Frobenius orbit (``enumerate_points``), walked on discrete
    logs; s, Q and det Q are defined over F_q, so they vanish at every
    point of an orbit or at none, and one point decides for it.  For
    each degree d, each support becomes one test on the logs of a point
    of F_{q^d} (``_reaches``), its coefficients embedded in F_{q^d} once,
    so a place costs a few Horner steps on logs and no field element.
    q^degree must be at most MAX_INSPECTION_SIZE, which is checked before
    any work.  Points beyond the inspection degree are not examined; a
    Certified verdict means certified up to that degree.
    """
    _require_pair(f, g)
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
        for place in curvepoints.enumerate_points(curve, d):
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


def enumerate_points(curve: CurveSpec, degree: int = 1):
    """The closed points of exactly this degree, those of a smaller one
    listed at their own: of each Frobenius orbit of ``degree`` points,
    the point with the least coordinates (x.coeffs, y.coeffs), on the
    line with y = None and its prime, in ``monic_polys`` order, and on a
    cubic in canonical order (``_cubic_points``).

    At degree 1 every point is its own orbit and the line's prime is
    x - x0, so nothing is walked.  Above it each orbit is walked once, on
    logs: on the line, the cycle of every log not yet visited (``_cycle``),
    with the prime of each cycle of length ``degree`` formed on logs too
    (``_orbit_prime``); on the cubic, the orbit of every point not yet met
    (``_conjugates``)."""
    base, line = curve.field, curve.is_polyline
    ext = make_extension(base.p, base.k * degree)
    if degree == 1:
        if not line:
            return [AffinePoint(x0, y0, 1) for x0, y0 in _cubic_points(curve, ext)]
        # the prime of x0 is x + c, c = -x0; monic_polys order is c's order
        one = base.one()
        return [AffinePoint(-c, None, 1, prime=Poly._raw(base, (c, one))) for c in base.elements()]
    q, m, exp, zero = base.q, ext.q - 1, ext._exp, ext.zero()
    if line:
        places, visited = [], [False] * m  # (least x, prime) of each orbit of length degree
        for n in range(m):
            if not visited[n]:
                orbit = _cycle(q, m, n)
                for r in orbit:
                    visited[r] = True
                if len(orbit) == degree:
                    places.append((exp[min(orbit, key=lambda r: exp[r].coeffs)], _orbit_prime(orbit, base, ext)))
        places.sort(key=lambda place: monic_rank(place[1]))
        return [AffinePoint(x0, None, degree, prime=prime) for x0, prime in places]

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
        if tag == (degree, logs):
            points.append(AffinePoint(x0, y0, degree))
    return points


def _orbit_prime(roots: list, base, ext) -> Poly:
    """The prime of a line's place of degree >= 2: the product of x - g^r
    over the logs r of its orbit, all nonzero roots (Lidl and Niederreiter,
    *Finite Fields*, section 2.2), formed on logs with Zech sums; its
    coefficients lie in base, and each is pulled back there once
    (``finfield.pullback_table``)."""
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
    m, zech = ext.q - 1, ext._zech

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
