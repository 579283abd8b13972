"""Counting points on affine Weierstrass cubics by exhaustive x-scan.

For each x in F_q the equation y^2 = x^3 + ax + b contributes 0, 1 or 2
points depending on whether the right-hand side is a nonsquare, zero,
or a nonzero square.  Adding the removed point at infinity gives the
projective count, which for a smooth curve is also the order of the
Picard group of the affine curve.
"""

from hasseforms import CurveSpec, enumerate_points, make_extension, point_report

F5 = make_extension(5, 1)

print("Three cubics over F_5")
print("=" * 60)
for a, b in ((2, 3), (1, 1), (-1, 0)):
    curve = CurveSpec.weierstrass(F5, a, b)
    report = point_report(curve)
    print(f"\ny^2 = x^3 + {a}x + {b}:")
    print(f"  affine points     {report.affine}")
    print(f"  projective total  {report.total}")
    print(f"  smooth            {report.smooth}")
    if report.smooth:
        print(f"  Picard order      {report.pic_order} ({report.pic_parity})")
        print(f"  2-torsion         {report.two_torsion}")
    else:
        locus = [(p.x, p.y) for p in report.singular_points]
        print(f"  singular at       {locus}")

# The singular cubic factors as (x+1)^2 (x-2); its repeated root is the
# singular point (4, 0), and the projective count is still 7.

print("\nPoints of the singular cubic, listed:")
curve = CurveSpec.weierstrass(F5, 2, 3)
for p in enumerate_points(curve):
    print(f"  ({p.x.coeffs[0]}, {p.y.coeffs[0]})")

# enumerate_points(curve, d) lists the closed points of degree d, one
# point of each Frobenius orbit of d points; a closed point of degree 2
# stands for two points of F_25, so F_25 holds a + 2b of them.

print("\nClosed points of y^2 = x^3 + x + 1 of degrees 1 and 2:")
curve = CurveSpec.weierstrass(F5, 1, 1)
a, b = len(enumerate_points(curve)), len(enumerate_points(curve, degree=2))
print(f"  {a} of degree 1, {b} of degree 2 (over F_25)")
print(f"  so F_25 holds a + 2b = {a + 2 * b} points")
