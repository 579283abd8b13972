"""Seeded job lists for the three workloads.

``generate(workload, seed, fixtures)`` returns a list of jobs.  The same
seed gives the same list, and ``job_bytes`` renders each job input
byte-identically.  Every job carries the answer its construction forces
(``expect``), so no recorded program output is ever trusted.

Job strata (field, rank, degree bounds) are fixed per workload; the
seed draws the polynomials, constants and curves inside each stratum,
so the cost of a pass barely depends on the seed while its inputs do.
"""

from __future__ import annotations

import json
import random

from oracle import (
    GF,
    Ring,
    line_place_count,
    pgcd,
    pmul,
    poly_text,
    prime_field_points,
    ptrim,
    ring_elem_json,
    two_torsion,
)

# every odd prime power q <= 121, as (p, k)
FIELDS = [
    (p, k)
    for p in range(3, 122, 2)
    if all(p % d for d in range(2, p))
    for k in (1, 2, 3, 4)
    if p**k <= 121
]

# (curve, p, rank, deg_x, deg_y): each negative search is exhaustive.  A
# line negative costs the same for every non-square c, so the four
# heaviest jobs of a pass (with the cubic fixture) have seed-independent
# cost and job_s.tail falls inside them.
SEARCH_NEGATIVE = [
    ("line", 3, 3, 1, -1),
    ("line", 5, 2, 3, -1),
    ("line", 5, 2, 4, -1),
    ("line", 7, 2, 3, -1),
    ("line", 7, 3, 0, -1),
    ("cubic", 3, 2, 2, 1),
    ("cubic", 5, 2, 1, 1),
    ("cubic", 7, 2, 1, 0),
]

# (curve, p, rank, deg_x, deg_y, count): planted degree = search bound
SEARCH_POSITIVE = [
    ("line", 3, 2, 3, -1, 1),
    ("line", 3, 3, 1, -1, 1),
    ("line", 5, 2, 2, -1, 1),
    ("line", 5, 3, 0, -1, 1),
    ("line", 7, 2, 2, -1, 1),
    ("line", 7, 3, 0, -1, 1),
    ("cubic", 3, 2, 1, 1, 1),
    ("cubic", 5, 2, 1, 0, 1),
    ("cubic", 7, 2, 1, 0, 1),
]

# (p, k, inspection degree) for genus pairs on the line: prime fields get
# a coprime and a planted-gap pair, extension fields one of the two
GENUS_LINE = [(3, 1, 3), (5, 1, 3), (7, 1, 3), (11, 1, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2), (7, 2, 2)]
# (p, k, inspection degree) for genus pairs on cubics, q^d <= 121
GENUS_CUBIC = [(3, 1, 4), (5, 1, 2), (3, 2, 2), (3, 3, 1), (7, 2, 1), (11, 2, 1)]

FIXTURES = ("singular_cubic_pair", "polyline_pair")


def job_bytes(job) -> bytes:
    return json.dumps(job["input"], sort_keys=True, indent=1).encode() + b"\n"


def generate(workload: str, seed: int, fixtures: dict):
    rng = random.Random(f"hasseforms-bench:{workload}:{seed}")
    if workload == "search":
        return _search_jobs(rng, fixtures)
    if workload == "genus":
        return _genus_jobs(rng, fixtures)
    if workload == "session":
        return _session_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def setup_probes():
    """Trivial CLI commands timed for setup_s; they also touch the layers
    a workload's jobs would otherwise skip."""
    tiny_search = {
        "schema": 1,
        "curve": {"type": "polyline", "field": {"p": 3, "k": 1}},
        "F": [[1]],
        "G": [[1]],
    }
    rng = random.Random("hasseforms-bench:probe")
    tiny_genus = _genus_line_job(rng, 3, 1, 1, gap=False, name="probe-genus")
    return [
        {"id": "probe-curve", "argv": ["curve", "--q", "3", "--polyline"], "check": "fields", "expect": {"total": 4}},
        {
            "id": "probe-hasse",
            "argv": ["hasse", "--q", "3", "--polyline", "--rank", "1"],
            "check": "fields",
            "expect": {"verdict": "Holds"},
        },
        {
            "id": "probe-search",
            "argv": ["isom-search", "--input", "{input}", "--degree-bound", "0"],
            "input": tiny_search,
            "check": "search",
            "expect": {"found": True, "p": 3, "ab": None, "F": [[[[1], []]]], "G": [[[[1], []]]]},
        },
        tiny_genus,
    ]


# ---------------------------------------------------------------------------
# helpers


def _rand_poly(rng, p, degree):
    """A polynomial of exact degree over F_p."""
    return [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]


def _nonsquare(rng, p):
    return rng.choice([c for c in range(1, p) if pow(c, (p - 1) // 2, p) != 1])


def _smooth_curve(rng, gf: GF):
    while True:
        a = gf.from_index(rng.randrange(gf.q))
        b = gf.from_index(rng.randrange(gf.q))
        if gf.is_smooth(a, b):
            return a, b


def _curve_json(kind, p, k=1, ab=None):
    out = {"type": "polyline" if kind == "line" else "weierstrass", "field": {"p": p, "k": k}}
    if kind != "line":
        out["a"], out["b"] = list(ab[0]), list(ab[1])
    return out


def _rand_ring_elem(rng, p, deg_x, deg_y):
    a = ptrim(rng.randrange(p) for _ in range(deg_x + 1))
    b = ptrim(rng.randrange(p) for _ in range(deg_y + 1)) if deg_y >= 0 else []
    return (a, b)


def _as_json_matrix(m):
    return [[ring_elem_json(e) for e in row] for row in m]


# ---------------------------------------------------------------------------
# search


def _search_jobs(rng, fixtures):
    jobs = []
    for curve, p, n, dx, dy in SEARCH_NEGATIVE:
        ab = _smooth_curve(rng, GF(p, 1)) if curve == "cubic" else None
        c = _nonsquare(rng, p)
        f = [[([1] if i == j else [], []) for j in range(n)] for i in range(n)]
        g = [[([1 if i < n - 1 else c] if i == j else [], []) for j in range(n)] for i in range(n)]
        jobs.append(_search_job(f"neg-{curve}-F{p}-n{n}-d{dx}.{dy}", curve, p, ab, f, g, dx, dy, found=False))
    for curve, p, n, dx, dy, count in SEARCH_POSITIVE:
        for t in range(count):
            ab = _smooth_curve(rng, GF(p, 1)) if curve == "cubic" else None
            ring = Ring(p, ab[0][0], ab[1][0]) if ab else Ring(p)
            f = [[([rng.randrange(1, p)] if i == j else [], []) for j in range(n)] for i in range(n)]
            q = [[([1] if i == j else [], []) for j in range(n)] for i in range(n)]
            for j in range(n):
                for i in range(j):
                    q[i][j] = _rand_ring_elem(rng, p, dx, dy)
            g = ring.congruence(q, f)
            name = f"pos-{curve}-F{p}-n{n}-d{dx}.{dy}-{t}"
            jobs.append(_search_job(name, curve, p, ab, f, g, dx, dy, found=True))
    for name in FIXTURES:
        jobs.append(
            {
                "id": f"fixture-{name}",
                "argv": ["isom-search", "--input", "{input}"],
                "input": fixtures[name],
                "check": "search",
                "expect": {"found": False},
            }
        )
    rng.shuffle(jobs)
    return jobs


def _search_job(name, curve, p, ab, f, g, dx, dy, found):
    pair = {
        "schema": 1,
        "curve": _curve_json(curve, p, 1, ab),
        "F": _as_json_matrix(f),
        "G": _as_json_matrix(g),
        "isom_bounds": {"deg_x": dx, "deg_y": dy},
    }
    expect = {"found": found}
    if found:
        expect.update(
            p=p,
            ab=[ab[0][0], ab[1][0]] if ab else None,
            F=[[list(e) for e in row] for row in f],
            G=[[list(e) for e in row] for row in g],
        )
    return {"id": name, "argv": ["isom-search", "--input", "{input}"], "input": pair, "check": "search", "expect": expect}


# ---------------------------------------------------------------------------
# genus


def _coprime_pair(rng, p, df, dg):
    while True:
        f = _rand_poly(rng, p, df)
        g = _rand_poly(rng, p, dg)
        if pgcd(f, g, p) == [1]:
            return f, g


def genus_pair(rng, p, gap):
    """(f, g, r): coprime f, g, or f, g whose gcd is exactly x - r."""
    if not gap:
        f, g = _coprime_pair(rng, p, rng.randint(1, 2), rng.randint(1, 2))
        return f, g, None
    r = rng.randrange(p)
    lin = [(-r) % p, 1]
    while True:
        f1, g1 = _coprime_pair(rng, p, rng.randint(0, 1), rng.randint(0, 1))
        f, g = pmul(lin, f1, p), pmul(lin, g1, p)
        if pgcd(f, g, p) == lin:
            return f, g, r


def genus_pair_json(curve_json, p, f, g, degree):
    """F = diag(f^2 g^2, 1), G = diag(f^2, g^2), witnesses
    ([[1/g, 0], [0, g]], s = g) and ([[0, 1/f], [f, 0]], s = f)."""
    ft, gt = poly_text(f), poly_text(g)
    return {
        "schema": 1,
        "curve": curve_json,
        "F": [[poly_text(pmul(pmul(f, f, p), pmul(g, g, p), p)), 0], [0, 1]],
        "G": [[poly_text(pmul(f, f, p)), 0], [0, poly_text(pmul(g, g, p))]],
        "witnesses": [
            {"Q": [[{"num": "1", "den": gt}, 0], [0, gt]], "s": {"A": gt}},
            {"Q": [[0, {"num": "1", "den": ft}], [ft, 0]], "s": {"A": ft}},
        ],
        "degree": degree,
    }


def _genus_line_job(rng, p, k, degree, gap, name):
    f, g, r = genus_pair(rng, p, gap)
    uncovered = [[(-r) % p, 1]] if gap else []
    return {
        "id": name,
        "argv": ["genus-verify", "--input", "{input}"],
        "input": genus_pair_json(_curve_json("line", p, k), p, f, g, degree),
        "check": "genus",
        "expect": {
            "kind": "line",
            "p": p,
            "verdict": "GapFound" if gap else "Certified",
            "uncovered": uncovered,
            "covered": line_place_count(p**k, degree) - len(uncovered),
        },
    }


def cubic_gap_degrees(gf: GF, a, b, r, degree):
    """The accepted sorted lists of degrees of the uncovered points over
    x = r, up to degree.  Two rational points must both be listed.  The
    two conjugate points of a degree-2 closed point may be listed once or
    twice: coverage lists them twice today (ROADMAP item 3(a)), and a
    fix lists the closed point once."""
    rhs = gf.cubic(a, b, gf.elem(r))
    if gf.is_zero(rhs):
        return [[1]]
    if gf.is_square(rhs):
        return [[1, 1]]
    return [[2], [2, 2]] if degree >= 2 else [[]]


def _genus_cubic_job(rng, p, k, degree, gap, name):
    gf = GF(p, k)
    a, b = _smooth_curve(rng, gf)
    f, g, r = genus_pair(rng, p, gap)
    degrees = cubic_gap_degrees(gf, a, b, r, degree) if gap else [[]]
    return {
        "id": name,
        "argv": ["genus-verify", "--input", "{input}"],
        "input": genus_pair_json(_curve_json("cubic", p, k, (a, b)), p, f, g, degree),
        "check": "genus",
        "expect": {
            "kind": "cubic",
            "r": r,
            "verdict": "Certified" if degrees == [[]] else "GapFound",
            "uncovered_degrees": degrees,
        },
    }


def _genus_jobs(rng, fixtures):
    jobs = []
    for index, (p, k, d) in enumerate(GENUS_LINE):
        # extension fields get one job each, alternately certified and gapped
        for gap in (False, True) if k == 1 else (index % 2 == 1,):
            jobs.append(_genus_line_job(rng, p, k, d, gap, f"line-F{p**k}-d{d}-{'gap' if gap else 'cert'}"))
    for p, k, d in GENUS_CUBIC:
        for gap in (False, True):
            jobs.append(_genus_cubic_job(rng, p, k, d, gap, f"cubic-F{p**k}-d{d}-{'gap' if gap else 'cert'}"))
    jobs.append(
        {
            "id": "fixture-polyline_pair",
            "argv": ["genus-verify", "--input", "{input}"],
            "input": fixtures["polyline_pair"],
            "check": "genus",
            "expect": {"kind": "line", "p": 5, "verdict": "Certified", "uncovered": [], "covered": line_place_count(5, 3)},
        }
    )
    jobs.append(
        {
            "id": "fixture-singular_cubic_pair",
            "argv": ["genus-verify", "--input", "{input}"],
            "input": fixtures["singular_cubic_pair"],
            "check": "genus",
            "expect": {"kind": "cubic", "r": 4, "verdict": "GapFound", "uncovered_degrees": [[1]]},
        }
    )
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# session


SESSION_GENUS_FIELDS = 12
SESSION_SEARCHES = 4
SESSION_CLI_CALLS = 5


def _session_jobs(rng):
    """Strata (which field gets which rank, degrees and tail jobs) are
    fixed; the seed draws the entries, curves and forms inside them and
    the order of the jobs."""
    per_field, tail_jobs = [], []
    for index, (p, k) in enumerate(FIELDS):
        gf = GF(p, k)
        for _ in range(2):
            per_field.append(_session_curve(rng, gf))
        per_field.append(_session_gram(rng, p, k, rank=4 + index % 3))
        per_field.append(_session_fieldform(rng, gf, n=3 + index % 2))
        per_field.append(_session_local(rng, gf, "line"))
        per_field.append(_session_local(rng, gf, "cubic"))
    rng.shuffle(per_field)
    spaced = FIELDS[:: len(FIELDS) // SESSION_GENUS_FIELDS]
    for t, (p, k) in enumerate(spaced[:SESSION_GENUS_FIELDS]):
        gap = t % 2 == 1
        if t % 3 == 0:
            job = _genus_line_job(rng, p, k, 1, gap, f"genus-line-F{p**k}")
        else:
            job = _genus_cubic_job(rng, p, k, 1, gap, f"genus-cubic-F{p**k}")
        tail_jobs.append({"kind": "genus", "pair": job["input"], "expect": job["expect"]})
    for t in range(SESSION_SEARCHES):
        p = (3, 5, 7)[t % 3]
        f = [[([rng.randrange(1, p)] if i == j else [], []) for j in range(2)] for i in range(2)]
        q = [[([1], []), _rand_ring_elem(rng, p, 1, -1)], [([], []), ([1], [])]]
        g = Ring(p).congruence(q, f)
        job = _search_job(f"session-search-{t}", "line", p, None, f, g, 1, -1, found=True)
        tail_jobs.append({"kind": "search", "pair": job["input"], "expect": job["expect"]})
    for p, k in FIELDS[1 :: len(FIELDS) // SESSION_CLI_CALLS][:SESSION_CLI_CALLS]:
        gf = GF(p, k)
        tail_jobs.append(dict(_session_curve(rng, gf), kind="cli"))
    rng.shuffle(tail_jobs)
    return per_field + tail_jobs


def _session_curve(rng, gf: GF):
    """point_report + hasse_principle on a random smooth cubic."""
    a, b = _smooth_curve(rng, gf)
    total = prime_field_points(gf.p, a[0], b[0]) if gf.k == 1 else None
    return {
        "kind": "curve",
        "p": gf.p,
        "k": gf.k,
        "a": list(a),
        "b": list(b),
        "rank": rng.randint(1, 4),
        "expect": {"total": total, "two_torsion": two_torsion(gf, a, b)},
    }


def _session_gram(rng, p, k, rank):
    """GramMatrix.diagonal on the line; det is the product of the entries."""
    entries = [_rand_poly(rng, p, i % 3) for i in range(rank)]
    det = [1]
    for e in entries:
        det = pmul(det, e, p)
    return {"kind": "gram", "p": p, "k": k, "entries": entries, "expect": {"det": det}}


def _unipotent(rng, gf: GF, n):
    return [
        [gf.elem(1) if i == j else (gf.from_index(rng.randrange(gf.q)) if i < j else gf.elem(0)) for j in range(n)]
        for i in range(n)
    ]


def _nonzero(rng, gf: GF):
    return gf.from_index(rng.randrange(1, gf.q))


def _session_fieldform(rng, gf: GF, n):
    """F = M^t D M and G = N^t D' N, with D' = D except one entry times m:
    F and G are isomorphic exactly when m is a square."""
    d = [_nonzero(rng, gf) for _ in range(n)]
    m = _nonzero(rng, gf)
    d2 = list(d)
    i = rng.randrange(n)
    d2[i] = gf.mul(d2[i], m)
    diag = lambda v: [[v[i] if i == j else gf.elem(0) for j in range(n)] for i in range(n)]  # noqa: E731
    f = gf.congruence(_unipotent(rng, gf, n), diag(d))
    g = gf.congruence(_unipotent(rng, gf, n), diag(d2))
    return {
        "kind": "fieldform",
        "p": gf.p,
        "k": gf.k,
        "F": [[list(e) for e in row] for row in f],
        "G": [[list(e) for e in row] for row in g],
        "expect": {"isomorphic": gf.is_square(m)},
    }


def _session_local(rng, gf: GF, curve):
    """local_isomorphic(1_2, U^t diag(1, c) U) at a closed place of degree e:
    the forms agree there exactly when c is a square in F_{q^e}."""
    p = gf.p
    c = _nonzero(rng, gf)
    u = _rand_poly(rng, p, rng.randint(1, 2))
    u2 = [gf.elem(v) for v in pmul(u, u, p)]
    u2[0] = gf.add(u2[0], c)
    job = {
        "kind": "local",
        "p": p,
        "k": gf.k,
        "curve": curve,
        "u": [list(gf.elem(v)) for v in u],
        "u2c": [list(v) for v in u2],
    }
    if curve == "line":
        if gf.k == 1 and gf.q**2 <= 121 and rng.random() < 0.5:
            prime = [[(-_nonsquare(rng, p)) % p], [0], [1]]  # x^2 - n, n a nonsquare mod p
            degree = 2
        else:
            prime = [list(gf.neg(gf.from_index(rng.randrange(gf.q)))), list(gf.elem(1))]
            degree = 1
        job["prime"] = prime
    else:
        x = None
        while x is None:  # a smooth cubic over F_3 may have no affine point
            a, b = _smooth_curve(rng, gf)
            xs = gf.elements()
            rng.shuffle(xs)
            rhs = [gf.cubic(a, b, x) for x in xs]
            x = next((x for x, v in zip(xs, rhs) if gf.is_zero(v) or gf.is_square(v)), None)
        y = next(y for y in gf.elements() if gf.mul(y, y) == gf.cubic(a, b, x))
        job.update(a=list(a), b=list(b), point=[list(x), list(y)])
        degree = 1
    job["expect"] = {"isomorphic": gf.is_square(c) or degree % 2 == 0}
    return job
