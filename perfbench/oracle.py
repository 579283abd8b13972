"""Reference arithmetic and per-job checks for the benchmark.

Nothing here imports hasseforms: every expected verdict is fixed by how
the generator built the job, and every returned object is re-checked
with the small, slow arithmetic below.

Polynomials over F_p are int lists, constant term first, with no
trailing zeros.  Elements of F_{p^k} are int tuples of length k in the
basis of the modulus that hasseforms documents for ``make_extension``:
the first irreducible monic degree-k polynomial when the coefficient
vectors are counted in base p, constant coefficient least significant.
"""

from __future__ import annotations

import json
import re


# ---------------------------------------------------------------------------
# F_p[x]


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(a, b, p):
    n = max(len(a), len(b))
    return ptrim(
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)
    )


def pneg(a, p):
    return [(-c) % p for c in a]


def psub(a, b, p):
    return padd(a, pneg(b, p), p)


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return ptrim(out)


def pdivmod(a, b, p):
    b = ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], p - 2, p)
    rem = ptrim(a)
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] * inv % p
        shift = len(rem) - len(b)
        quo[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = (rem[shift + i] - c * y) % p
        rem = ptrim(rem)
    return ptrim(quo), rem


def pgcd(a, b, p):
    """Monic gcd over F_p."""
    a, b = ptrim(a), ptrim(b)
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def poly_text(a) -> str:
    """Render in the pair-file grammar, highest degree first."""
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xp = "x" if i == 1 else f"x^{i}"
            parts.append(xp if c == 1 else f"{c}*{xp}")
    return "+".join(parts)


_TERM = re.compile(r"^([+-]?)(\d+)?(?:\*?(x)(?:\^(\d+))?)?$")


def parse_poly(text: str, p: int):
    """Read the grammar above (integer coefficients only) mod p."""
    compact = text.replace(" ", "")
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if not compact or "".join(pieces) != compact:
        raise ValueError(f"cannot parse {text!r}")
    out = {}
    for piece in pieces:
        m = _TERM.match(piece)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse {text!r}")
        c = int(m.group(2)) if m.group(2) is not None else 1
        e = 0 if m.group(3) is None else int(m.group(4) or 1)
        out[e] = out.get(e, 0) + (-c if m.group(1) == "-" else c)
    return ptrim(out.get(i, 0) % p for i in range(max(out) + 1))


def mobius(n: int) -> int:
    result, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    return -result if n > 1 else result


def line_place_count(q: int, degree: int) -> int:
    """Monic irreducibles of degree <= d over F_q (Gauss's formula)."""
    total = 0
    for e in range(1, degree + 1):
        total += sum(mobius(k) * q ** (e // k) for k in range(1, e + 1) if e % k == 0) // e
    return total


# ---------------------------------------------------------------------------
# F_{p^k}


class GF:
    """F_{p^k} with the modulus hasseforms documents for make_extension."""

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        self.mod = [0, 1] if k == 1 else self._first_irreducible()

    def _first_irreducible(self):
        p, k = self.p, self.k
        for n in range(p**k):
            cand = [(n // p**i) % p for i in range(k)] + [1]
            if all(
                pdivmod(cand, [(m // p**i) % p for i in range(d)] + [1], p)[1]
                for d in range(1, k // 2 + 1)
                for m in range(p**d)
            ):
                return cand
        raise ValueError("no irreducible modulus")

    def elem(self, value):
        if isinstance(value, int):
            value = [value]
        v = [int(c) % self.p for c in value] + [0] * self.k
        return tuple(v[: self.k])

    def from_index(self, n: int):
        return tuple((n // self.p**i) % self.p for i in range(self.k))

    def elements(self):
        return [self.from_index(n) for n in range(self.q)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        r = pdivmod(pmul(ptrim(a), ptrim(b), self.p), self.mod, self.p)[1]
        return self.elem(r)

    def pow(self, a, e: int):
        out, base = self.elem(1), a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def is_zero(self, a) -> bool:
        return not any(a)

    def is_square(self, a) -> bool:
        """Euler's criterion; zero is not a square here."""
        return not self.is_zero(a) and self.pow(a, (self.q - 1) // 2) == self.elem(1)

    def cubic(self, a, b, x):
        return self.add(self.add(self.mul(self.mul(x, x), x), self.mul(a, x)), b)

    def is_smooth(self, a, b) -> bool:
        """Whether 4a^3 + 27b^2 is nonzero."""
        d = self.add(
            self.mul(self.elem(4), self.mul(self.mul(a, a), a)),
            self.mul(self.elem(27), self.mul(b, b)),
        )
        return not self.is_zero(d)

    def matmul(self, x, y):
        n = len(x)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.elem(0)
                for t in range(n):
                    acc = self.add(acc, self.mul(x[i][t], y[t][j]))
                row.append(acc)
            out.append(row)
        return out

    def congruence(self, t, f):
        """T^t F T."""
        tt = [list(r) for r in zip(*t)]
        return self.matmul(self.matmul(tt, f), t)


def two_torsion(gf: GF, a, b) -> bool:
    return any(gf.is_zero(gf.cubic(a, b, x)) for x in gf.elements())


def prime_field_points(p: int, a: int, b: int) -> int:
    """Projective count of y^2 = x^3 + ax + b over F_p by a character sum."""
    total = 1
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        total += 1 if v == 0 else (2 if pow(v, (p - 1) // 2, p) == 1 else 0)
    return total


# ---------------------------------------------------------------------------
# The coordinate ring over a prime field: (A, B) means A(x) + B(x) y.


class Ring:
    def __init__(self, p: int, a=None, b=None):
        self.p = p
        self.cubic = None if a is None else ptrim([b % p, a % p, 0, 1])

    def mul(self, u, v):
        p = self.p
        a = pmul(u[0], v[0], p)
        if self.cubic is not None:
            a = padd(a, pmul(pmul(u[1], v[1], p), self.cubic, p), p)
        return (a, padd(pmul(u[0], v[1], p), pmul(v[0], u[1], p), p))

    def add(self, u, v):
        return (padd(u[0], v[0], self.p), padd(u[1], v[1], self.p))

    def sub(self, u, v):
        return (psub(u[0], v[0], self.p), psub(u[1], v[1], self.p))

    def congruence(self, q, f):
        """Q^t F Q for square lists of ring elements."""
        n = len(q)
        zero = ([], [])
        fq = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = zero
                for t in range(n):
                    acc = self.add(acc, self.mul(f[i][t], q[t][j]))
                fq[i][j] = acc
        out = [[zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = zero
                for t in range(n):
                    acc = self.add(acc, self.mul(q[t][i], fq[t][j]))
                out[i][j] = acc
        return out

    def det(self, m):
        n = len(m)
        if n == 1:
            return m[0][0]
        acc = ([], [])
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = self.mul(m[0][j], self.det(minor))
            acc = self.sub(acc, term) if j % 2 else self.add(acc, term)
        return acc


def ring_elem_json(e) -> dict:
    return {"A": poly_text(e[0]), "B": poly_text(e[1])}


def parse_entry(entry, p: int):
    """An integral entry of an output matrix; fractions must have den 1."""
    if isinstance(entry, dict) and "num" in entry:
        if parse_poly(entry["den"], p) != [1]:
            raise ValueError("entry is not integral")
        entry = entry["num"]
    return (parse_poly(entry["A"], p), parse_poly(entry.get("B", "0"), p))


# ---------------------------------------------------------------------------
# Per-job checks.  Each returns None when the output is right, or a
# one-line reason.


def check_search(expect: dict, code: int, out: str):
    try:
        res = json.loads(out)
    except ValueError:
        return f"exit {code}, output is not JSON"
    if expect["found"]:
        if code != 0 or res.get("found") is not True:
            return f"expected a witness, got exit {code} found={res.get('found')}"
        p = expect["p"]
        ring = Ring(p, *expect["ab"]) if expect["ab"] else Ring(p)
        try:
            q = [[parse_entry(e, p) for e in row] for row in res["witness"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable witness: {exc}"
        f = [[tuple(e) for e in row] for row in expect["F"]]
        g = [[tuple(e) for e in row] for row in expect["G"]]
        if ring.congruence(q, f) != g:
            return "witness fails Q^t F Q = G"
        det = ring.det(q)
        if len(det[0]) != 1 or det[1]:
            return "witness determinant is not a nonzero constant"
        return None
    if code != 1 or res.get("found") is not False:
        return f"expected none-within-bounds, got exit {code} found={res.get('found')}"
    return None


def check_genus(expect: dict, code: int, out: str):
    try:
        res = json.loads(out)
    except ValueError:
        return f"exit {code}, output is not JSON"
    want = expect["verdict"]
    if res.get("verdict") != want or code != (0 if want == "Certified" else 1):
        return f"expected {want}, got exit {code} verdict={res.get('verdict')}"
    if res.get("identity_ok") != [True, True]:
        return "a congruence identity was reported false"
    uncovered = res.get("uncovered", [])
    if expect["kind"] == "line":
        p = expect["p"]
        got = sorted(tuple(parse_poly(t, p)) for t in uncovered)
        if got != sorted(tuple(u) for u in expect["uncovered"]):
            return f"uncovered {uncovered} differs from the planted places"
        if "covered" in expect and len(res.get("covered", [])) != expect["covered"]:
            return f"covered count {len(res.get('covered', []))} != {expect['covered']}"
        return None
    # cubic: only the planted x-coordinate may be uncovered, with one of
    # the accepted lists of point degrees
    degrees = []
    for pt in uncovered:
        if ptrim(pt["x"]) != ptrim([expect["r"]]):
            return f"uncovered point {pt} is not over the planted root"
        degrees.append(pt["degree"])
    if sorted(degrees) not in expect["uncovered_degrees"]:
        return f"uncovered degrees {degrees} not in {expect['uncovered_degrees']}"
    return None


def check_fields(expect: dict, code: int, out: str):
    """Exit 0 and the given top-level fields in the JSON output."""
    try:
        res = json.loads(out)
    except ValueError:
        return f"exit {code}, output is not JSON"
    if code != 0 or any(res.get(k) != v for k, v in expect.items()):
        return f"expected exit 0 with {expect}, got exit {code}"
    return None


CHECKS = {"search": check_search, "genus": check_genus, "fields": check_fields}


def check_cli_job(job: dict, code: int, out: str):
    """None when the job's output is right, else a one-line reason.  A
    check that trips over malformed output is that job's failure."""
    try:
        return CHECKS[job["check"]](job["expect"], code, out)
    except Exception as exc:
        return f"malformed output (exit {code}): {type(exc).__name__}: {exc}"
