"""A tour of the exact arithmetic layers.

Everything downstream (point counts, witnesses, searches) reduces to
these operations: finite fields with deterministic extensions,
distinct-degree polynomial factorization, valuations at primes and
at infinity, and residue-field reduction.  A rational function in
F_q(x) is a fraction over the affine line's coordinate ring F_q[x].
"""

from hasseforms import (
    CurveSpec,
    Poly,
    PrimePoly,
    RingElement,
    RingFraction,
    factor,
    is_square,
    embed,
    make_extension,
    valuation,
)
from hasseforms.finfield import smallest_root
from hasseforms.funcfield import to_text

F5 = make_extension(5, 1)
F9 = make_extension(3, 2)

print("fields")
print(f"  squares of F_5: {[v for v in range(1, 5) if is_square(F5.element(v))]}")
modulus = "+".join(
    ("t" if i == 1 else f"t^{i}" if i else str(c)) if c == 1 or i == 0 else f"{c}*t^{i}"
    for i, c in enumerate(F9.modulus)
    if c
)
print(f"  F_9 is F_3[t]/({modulus}), t*t = {F9.gen() * F9.gen()!r}")

print("\nfactorization over F_5")
cubic = Poly.from_text(F5, "x^3+2*x+3")
lead, factors = factor(cubic)
pretty = " * ".join(f"({to_text(g)})^{e}" if e > 1 else f"({to_text(g)})" for g, e in factors)
print(f"  x^3+2x+3 = {pretty}")

print("\nvaluations")
line = CurveSpec.polyline(F5)
r = RingFraction(line, RingElement(line, Poly.from_text(F5, "x^2+2*x+1")), Poly.from_text(F5, "x+3"))
p = PrimePoly.finite(Poly.from_text(F5, "x+1"))
print(f"  v_(x+1) of (x+1)^2/(x+3) = {valuation(r, p)}")
x3 = RingFraction.from_ring(RingElement(line, Poly.from_text(F5, "x^3")))
print(f"  v_inf of x^3 = {valuation(x3, PrimePoly.infinite(F5))}")


def reduce_at(poly, prime):
    """poly mod prime: its value at the smallest root of the prime in the
    residue field F_{q^deg}, built as make_extension(p, k * deg)."""
    field = prime.field
    residue = make_extension(field.p, field.k * prime.degree)
    return poly.evaluate(smallest_root([embed(c, residue) for c in prime.poly.coeffs], residue))


print("\nresidue fields")
print(f"  x^2 mod (x+1) over F_5 -> {reduce_at(Poly.from_text(F5, 'x^2'), p)!r}")
quad = PrimePoly.finite(Poly.from_text(make_extension(3, 1), "x^2+1"))
print(f"  x mod (x^2+1) over F_3 -> {reduce_at(Poly.x(make_extension(3, 1)), quad)!r} (a generator of F_9)")

print("\ncoordinate rings")
curve = CurveSpec.weierstrass(F5, 2, 3)
y = RingElement.y(curve)
print(f"  y * y rewrites to {to_text((y * y).a)}")
print(f"  N(y) = {to_text(y.norm())}")
print(f"  units are the nonzero constants: is_unit(3) = {RingElement.constant(curve, 3).is_unit()}, is_unit(y) = {y.is_unit()}")
