"""Bounded search for integral unit-determinant isometries.

The search enumerates candidate columns inside explicit degree bounds,
pruning with the diagonal targets and the pairwise inner products.  It
compares inner products exactly, on their values at D + 1 curve points,
where D bounds the pole order of every inner product within the bounds,
so two that differ cannot agree at all of those points.  A found witness
is a proof; an exhausted search only says none-within-bounds.

The singular-cubic pair makes the caveat concrete: the search finds no
isometry with entries of x-degree at most 2, yet finds one at degree 3,
so the negative result below is genuinely a statement about its bounds.
"""

from hasseforms import GramMatrix, congruence, isom_search, make_extension
from hasseforms.curvering import CurveSpec
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

# And here is why "evidence, not proof" matters: one degree higher, the
# same search finds an integral unit-determinant isometry between the
# same two forms.
print("\nsingular-cubic pair, deg_x <= 3, deg_y <= 1")
q = isom_search(ec["F"], ec["G"], deg_x=3, deg_y=1)
print("  found:", matrix_to_json(q))
isometric = congruence(q, ec["F"].matrix) == ec["G"].matrix
det = q.det().as_ring_element()
print("  Q^t Q == G:", isometric)
print("  det(Q):", det.constant_value().coeffs[0], "(a unit)" if det.is_unit() else "(not a unit)")
if not (isometric and det.is_unit()):
    raise SystemExit("the found matrix is not an integral unit-determinant isometry")
