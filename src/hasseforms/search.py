"""Bounded isometry search between Gram matrices.

``isom_search`` looks for an integral unit-determinant congruence
between two Gram matrices by column-pruned enumeration inside explicit
degree bounds, returning the first witness in a fixed deterministic
order or none-within-bounds.  A negative answer is bounded-search
evidence, not a proof of non-isomorphism.

Only the searching commands import this module; ``forms`` binds
``isom_search`` on first access, and callers reach it there.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .curvepoints import _cubic_points
from .curvering import CurveSpec, RingElement, RingMatrix
from .finfield import MAX_INSPECTION_SIZE, capped_power, embed, make_extension
from .forms import DEFAULT_SEARCH_BUDGET, BudgetExceededError, GramMatrix, _require_search_rank
from .funcfield import Poly

# the most values _pool_vectors may hold, at about 17 bytes each
MAX_POOL_VALUES = 50_000_000


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
    the ring, for its determinant.  A pool of more than MAX_POOL_VALUES
    values, one per entry and point, is refused with ValueError before
    any point is found.

    A later column's candidates are first filtered at the first point
    alone: those that agree there with the first column, in order, are
    kept per column and keyed by the first column's values at that point,
    so the memo holds at most min(prefixes, q_e^n) lists per column, q_e
    the evaluation field's size.  Only these survivors are checked
    against every chosen column at every point (at the first one once).

    ``budget`` caps the inner-product evaluations the search charges
    (default 10^8); the first charge past it raises BudgetExceededError
    with the count so far.  The scans are charged first, before any field,
    point or pool is built, with the pool size capped at budget + 1, so a
    refusal there may report a lower bound.  Bounds that admit only the
    zero entry then return None: no such Q has a unit determinant.  Each
    check is charged after that.  A skipped candidate costs one evaluation,
    the check it fails, but each run of them is charged in one step: with
    the next survivor's first check, or before the column gives up.  The
    totals are those of charging every check in turn, so the same searches
    return and the same ones raise; only the count in an error can differ.
    """
    if f.curve is not g.curve:
        raise ValueError("forms live over different curves")
    if f.n != g.n:
        raise ValueError("forms have different ranks")
    n = f.n
    _require_search_rank(n)
    if deg_x < -1:
        raise ValueError("degree bound deg_x must be >= -1")
    if deg_y < -1:
        raise ValueError("degree bound deg_y must be >= -1")
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    curve = f.curve
    if curve.is_polyline:
        deg_y = -1

    # the scan for each distinct diagonal target is charged, at least the
    # pool size each, before any field, point or pool is built; the scans
    # themselves tick nothing
    size = capped_power(curve.field.q, deg_x + 1, budget) * capped_power(curve.field.q, deg_y + 1, budget)
    f_rows, g_rows = f.rows, g.rows
    diagonal = all(f_rows[i][j].is_zero() for i in range(n) for j in range(n) if i != j)
    counter = _EvalCounter(budget)
    for _ in {g_rows[j][j] for j in range(n)}:
        if diagonal:
            counter.tick(size)
            if n > 1:
                counter.tick(size ** (n - 1))
        else:
            counter.tick(size ** n)

    if deg_x < 0 and deg_y < 0:  # only the zero entry, and no unit determinant
        return None
    reach = _reach(curve, f_rows, deg_x, deg_y)
    count = reach + 1
    if size * count > MAX_POOL_VALUES:  # the pool's values, one per entry and point
        raise ValueError(f"entry pool of {size} entries at {count} points exceeds {MAX_POOL_VALUES} values")
    points = _evaluation_points(curve, count)
    logs = _Logs(points)
    coeffs = sorted(curve.field.elements(), key=lambda c: c.coeffs)
    pool = _pool_vectors(deg_x, deg_y, coeffs, logs)
    f_at = [[logs.values(e) for e in row] for row in f_rows]
    f_terms = [(r, s, f_at[r][s]) for r in range(n) for s in range(n) if not f_rows[r][s].is_zero()]
    # None marks a G entry beyond the reach of u^t F v, matched by nothing
    g_at = [[logs.values(e) if _reachable(e, reach) else None for e in row] for row in g_rows]
    scan = _diagonal_scan(pool, f_at, logs) if diagonal else _full_scan(pool, n, f_terms, logs)
    targets = {}
    for j in range(n):
        t = g_rows[j][j]
        if t not in targets:
            targets[t] = [] if g_at[j][j] is None else scan(g_at[j][j])
    candidates = [targets[g_rows[j][j]] for j in range(n)]

    cols = []
    first, rest, every = range(1), range(1, len(points)), range(len(points))
    # per later column: its candidates (with indices) that agree with the
    # first column at the first point, keyed by that column's values there
    fits = [{} for _ in range(n)]

    def extend(j: int) -> Optional[RingMatrix]:
        picks = enumerate(candidates[j])
        if j:
            key = tuple(pool[0][k] for k in cols[0])
            picks = fits[j].get(key)
            if picks is None:
                target = g_at[0][j]
                picks = fits[j][key] = [] if target is None else [
                    (t, col) for t, col in enumerate(candidates[j]) if _agrees(cols[0], col, pool, f_terms, target, logs, first)
                ]
        paid = 0  # candidates before this index are charged
        for t, col in picks:
            skipped, paid = t - paid, t + 1
            for i in range(j):
                # the first charge also pays for the skipped candidates
                # before this one, each of which fails its first check
                counter.tick(1 + skipped if i == 0 else 1)
                target = g_at[i][j]
                if target is None or not _agrees(cols[i], col, pool, f_terms, target, logs, every if i else rest):
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
                    found = extend(j + 1)
                    if found is not None:
                        return found
                cols.pop()
        if len(candidates[j]) > paid:
            counter.tick(len(candidates[j]) - paid)
        return None

    return extend(0)


class _EvalCounter:
    __slots__ = ("count", "budget")

    def __init__(self, budget: int):
        self.count = 0
        self.budget = budget

    def tick(self, amount: int):
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
    places = deg_x + deg_y + 2
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


def _reach(curve: CurveSpec, f_rows, deg_x: int, deg_y: int) -> int:
    """The largest pole order of u^t F v, for bounds that admit a nonzero entry."""
    entry = []
    if deg_x >= 0:
        entry.append(deg_x if curve.is_polyline else 2 * deg_x)
    if deg_y >= 0:
        entry.append(2 * deg_y + 3)
    return 2 * max(entry) + max(_pole_order(e) for row in f_rows for e in row if not e.is_zero())


def _reachable(target: RingElement, reach: int) -> bool:
    order = _pole_order(target)
    return order is None or order <= reach


def _evaluation_points(curve: CurveSpec, count: int):
    """``count`` points (x0, y0) of the curve with distinct x0: the first
    x-values in canonical order of the smallest F_{q^k} that has enough,
    with y0 = 0 on the line and, on the cubic, the first point above x0 of
    the root scan (``curvepoints._cubic_points``)."""
    base = curve.field
    for k in itertools.count(1):
        if capped_power(base.q, k, MAX_INSPECTION_SIZE) > MAX_INSPECTION_SIZE:
            raise ValueError(
                f"exact search needs {count} points with distinct x, more than "
                f"any field of at most {MAX_INSPECTION_SIZE} elements has"
            )
        if base.q**k < count:
            continue
        ext = make_extension(base.p, base.k * k)
        if curve.is_polyline:
            return [(x0, ext.zero()) for x0 in itertools.islice(ext.elements(), count)]
        first = {}  # the first point per x, which has the smaller root
        for x0, y0 in _cubic_points(curve, ext):
            first.setdefault(x0, y0)
            if len(first) == count:
                return list(first.items())


class _Logs:
    """Values at the evaluation points as discrete logs, None for 0: a
    product is a sum of logs, and a sum is one lookup in the evaluation
    field's Zech table.  An element's values are a tuple with one log per
    point; the pool, and every array the scans compute from it, is one
    flat list (or lazy sequence) per point, indexed by pool position, so
    the kernels loop over positions inside one point's list.  Base field
    coefficients reach the evaluation field through ``embed``, whose
    table for the pair is built once."""

    __slots__ = ("points", "zech", "half", "wrap")

    def __init__(self, points):
        ext = points[0][0].field
        self.points = points
        self.zech = ext._zech
        self.half = ext._half  # the log of -1
        # n mod (q - 1) for 0 <= n < 4(q - 1), as shared int objects, so
        # lists over a field with logs above 256 hold no int of their own
        self.wrap = list(range(ext.q - 1)) * 4

    def values(self, e: RingElement) -> tuple:
        """The log of e at each point."""
        return tuple(e.evaluate(x0, y0).log for x0, y0 in self.points)

    def plus(self, t, values):
        """t + v for each log v in ``values`` (one point's), lazily:
        g^t + g^v = g^(t + Z(v - t))."""
        if t is None:
            return values
        zech, wrap = self.zech, self.wrap
        return (t if v is None else None if (z := zech[v - t]) is None else wrap[t + z] for v in values)

    def squares(self, f, values, negate: bool = False):
        """f v^2 for each log v in ``values`` (one point's), or -f v^2,
        lazily."""
        wrap, shift = self.wrap, self.half if negate else 0
        return (None if v is None or f is None else wrap[f + 2 * v + shift] for v in values)


def _pool_vectors(deg_x: int, deg_y: int, coeffs, logs: _Logs):
    """The values of every pool entry: one list per point, indexed by
    pool position.

    An entry is the sum of its coefficients times the basis x^i (for A)
    and x^i y (for B).  Adding one coefficient position at a time, each
    over ``coeffs`` (the field sorted by coefficient vector), lists the
    entries by their padded coefficient vectors, A before B and constant
    terms first; moving zero from first to last gives search order, the
    order ``_pool_entry`` indexes.
    """
    wrap = logs.wrap
    ext = logs.points[0][0].field
    lifted = [embed(c, ext).log for c in coeffs]
    pool = []
    for x0, y0 in logs.points:
        values = [None]
        for b in [(x0**i).log for i in range(deg_x + 1)] + [(x0**i * y0).log for i in range(deg_y + 1)]:
            steps = [None if c is None or b is None else wrap[c + b] for c in lifted]
            grown = [None] * (len(values) * len(steps))
            for i, s in enumerate(steps):  # entry v + s goes to v's slot for s
                grown[i :: len(steps)] = logs.plus(s, values)
            values = grown
        pool.append(values[1:] + values[:1])
    return pool


def _agrees(u, v, pool, f_terms, target, logs: _Logs, points) -> bool:
    """Whether u^t F v equals the target at each index in ``points``, for
    columns u and v given by their pool positions and F by its nonzero
    entries (r, s, values); stops at the first point that disagrees."""
    zech, wrap = logs.zech, logs.wrap
    for m in points:
        values = pool[m]
        acc = None
        for r, s, f in f_terms:
            a, b, c = values[u[r]], values[v[s]], f[m]
            if a is not None and b is not None and c is not None:
                t = wrap[a + b + c]
                acc = t if acc is None else None if (z := zech[t - acc]) is None else wrap[acc + z]
        if acc != target[m]:
            return False
    return True


def _diagonal_scan(pool, f_at, logs: _Logs):
    """For a diagonal F: a function from a target's values to all
    columns c with c^t F c equal to it, as increasing tuples of pool
    positions.  It looks up f_00 c_0^2 by value.  Of the other entries it
    fixes all but the last (the head), and takes the needs
    target - sum f_rr c_r^2 over the last entry's positions as one lazy
    sequence per point, zipped into lookup keys; rank 1 has a single
    empty tail, worth 0."""
    n, size = len(f_at), len(pool[0])
    first = {}
    for k, key in enumerate(zip(*map(logs.squares, f_at[0][0], pool))):
        first.setdefault(key, []).append(k)
    minus = [[list(logs.squares(f, v, negate=True)) for f, v in zip(f_at[r][r], pool)] for r in range(1, n)]
    *middle, last = minus or [[[None]] * len(pool)]
    tails = [(k,) for k in range(size)] if minus else [()]

    def scan(target):
        out = []
        heads = [[t] for t in target]  # per point, the needs over the heads
        for values in middle:
            heads = [[v for h in hs for v in logs.plus(h, vs)] for hs, vs in zip(heads, values)]
        for h, head in enumerate(itertools.product(range(size), repeat=len(middle))):
            keys = zip(*[logs.plus(hs[h], vs) for hs, vs in zip(heads, last)])
            for tail, hits in zip(tails, map(first.get, keys)):
                if hits:
                    out.extend((k, *head, *tail) for k in hits)
        out.sort()
        return out

    return scan


def _full_scan(pool, n, f_terms, logs: _Logs):
    """For any F: a function from a target's values to all columns c with
    c^t F c equal to it, each n-tuple of pool positions checked with
    ``_agrees``."""
    every = range(len(pool))

    def scan(target):
        columns = itertools.product(range(len(pool[0])), repeat=n)
        return [col for col in columns if _agrees(col, col, pool, f_terms, target, logs, every)]

    return scan
