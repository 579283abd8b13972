"""Verifying genus membership with explicit transition matrices.

A witness pair (Q, s) claims: away from the zero locus of s, the
fraction-field matrix Q is integral with unit determinant and satisfies
Q^t F Q = G exactly.  A list of witnesses certifies that F and G lie in
one genus if every closed point (up to the inspected degree) avoids
some declared locus.

The two bundled pairs behave differently: the affine-line pair is fully
certified, while both witnesses of the singular-cubic pair degenerate
at the curve's singular point (4, 0), so a gap is reported there.
"""

from hasseforms import verify_genus_witness
from hasseforms.paper import load_bundled_pair
from hasseforms.serialize import genus_report_to_json


def show(name, degree):
    pair = load_bundled_pair(name)
    report = verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=degree)
    data = genus_report_to_json(report)
    print(f"{name} (inspection degree {degree})")
    print(f"  identities   {data['identity_ok']}")
    print(f"  verdict      {data['verdict']}")
    print(f"  covered      {len(data['covered'])} places")
    if data["uncovered"]:
        print(f"  uncovered    {data['uncovered']}")
    print()


# diag((1-x^2)^2, 1) vs diag((1-x)^2, (1+x)^2) over F_5[x]: same genus,
# witnessed at every prime by one of the two matrices
show("polyline_pair", degree=3)

# 1_2 vs [[0,2],[2,3y^2]] over F_5[x,y]/(y^2-x^3-2x-3): both witnesses
# declare loci that contain the singular point, so coverage has a gap;
# the 14 covered places are 5 rational points and 9 closed points of
# degree 2, each listed once by one point of its Frobenius orbit
show("singular_cubic_pair", degree=2)
