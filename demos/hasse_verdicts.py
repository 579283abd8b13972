"""Local-global verdicts across small base fields.

Rank 2 asks for a trivial Picard group (a UFD coordinate ring); every
other rank only asks for odd order.  On a smooth Weierstrass curve the
order is the rational point count and its parity is visible on the
x-axis: an even group has a rational 2-torsion point there.
"""

from hasseforms import CurveSpec, hasse_principle, make_extension
from hasseforms.picard import binary_genus_lower_bound

print(f"{'curve':<28}{'rank':>6}{'verdict':>10}   reason")
print("-" * 76)

F5 = make_extension(5, 1)
cases = [
    (CurveSpec.polyline(F5), "line over F_5"),
    (CurveSpec.weierstrass(F5, 1, 1), "y^2 = x^3 + x + 1 / F_5"),
    (CurveSpec.weierstrass(F5, -1, 0), "y^2 = x^3 - x / F_5"),
    (CurveSpec.weierstrass(make_extension(7, 1), 1, 1), "y^2 = x^3 + x + 1 / F_7"),
]
for curve, label in cases:
    for rank in (1, 2, 3):
        decision = hasse_principle(curve, rank)
        r = decision.reason
        note = f"pic order {r.pic_order} ({r.pic_parity})" + (", UFD" if r.ufd else "")
        print(f"{label:<28}{rank:>6}{decision.verdict:>10}   {note}")
    print()

# When -1 is a square the rank-2 torus splits and the Picard order
# bounds the number of classes in the genus of the identity form.
curve = CurveSpec.weierstrass(F5, 1, 1)
bound = binary_genus_lower_bound(curve)
print(f"classes in the genus of 1_2 over y^2 = x^3+x+1 / F_5: at least {bound}")
