"""Bounded search for integral unit-determinant isometries.

The search enumerates candidate columns inside explicit degree bounds,
pruning with the diagonal targets and the pairwise inner products.  It
compares inner products exactly, on their values at D + 1 curve points,
where D bounds the pole order of every inner product within the bounds,
so two that differ cannot agree at all of those points.  A found witness
is a proof; an exhausted search only says none-within-bounds.

The singular-cubic pair makes the caveat concrete: no isometry exists
with entries of x-degree at most 2, yet one does exist at degree 3, so
the negative result below is genuinely a statement about its bounds.
"""

from hasseforms import GramMatrix, RingMatrix, congruence, isom_search, make_extension
from hasseforms.curvering import CurveSpec
from hasseforms.funcfield import Poly
from hasseforms.serialize import load_bundled_pair, matrix_to_json

ec = load_bundled_pair("singular_cubic_pair")
line = load_bundled_pair("polyline_pair")

print("positive control: 1_2 vs 1_2 over F_5[x]")
f = GramMatrix.identity(CurveSpec.polyline(make_extension(5, 1)), 2)
print("  found:", matrix_to_json(isom_search(f, f, deg_x=1)))

print("\nsingular-cubic pair, deg_x <= 2, deg_y <= 1")
found = isom_search(ec["F"], ec["G"], deg_x=2, deg_y=1)
print("  result:", "found" if found else "none-within-bounds (evidence, not proof)")

print("\naffine-line pair, deg <= 2")
found = isom_search(line["F"], line["G"], deg_x=2)
print("  result:", "found" if found else "none-within-bounds (evidence, not proof)")

# And here is why "evidence, not proof" matters: one degree higher, an
# integral unit-determinant isometry between the same two forms exists.
curve = ec["curve"]
F5 = curve.field
q = RingMatrix(curve, [
    [1, Poly.from_text(F5, "2*x^3+4*x+2")],
    [2, Poly.from_text(F5, "4*x^3+3*x")],
])
print("\na degree-3 isometry for the singular-cubic pair:")
print("  Q^t Q == G:", congruence(q, ec["F"].matrix) == ec["G"].matrix)
print("  det(Q):", q.det().as_ring_element().constant_value().coeffs[0])
