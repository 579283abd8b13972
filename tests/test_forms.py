import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hasseforms import curvepoints, curvering, finfield, forms, funcfield, genus, local, search
from hasseforms.curvepoints import AffinePoint, enumerate_points
from hasseforms.curvering import CurveSpec, RingElement, RingFraction, RingMatrix, congruence, diagonal_rows
from hasseforms.finfield import embed, is_square, make_extension
from hasseforms.forms import (
    BudgetExceededError,
    GenusWitness,
    GramMatrix,
    MalformedWitnessError,
    diagonalize,
    isom_search,
    is_unimodular,
    local_isomorphic,
    verify_genus_witness,
)
from hasseforms.funcfield import Poly, monic_irreducibles
from hasseforms.genus import witness_identity
from hasseforms.local import FieldForm, PrimePoly, field_isomorphic
from hasseforms.serialize import genus_report_to_json, load_bundled_pair, pair_from_json

from oracles import (
    _vanishes_at,
    benchmark_jobs,
    brute_force_congruent,
    closed_point_counts,
    clearing_exponent,
    covers_by_valuations,
    entry_pool,
    field_congruence,
    field_matrix,
    first_isometry,
    frobenius_orbit_by_powering,
    leibniz_det,
    local_isomorphic_by_evaluation,
    monic_irreducibles_by_trial_division,
    polys_up_to,
    recorded_ticks,
    symmetric_nondegenerate,
)

F3 = make_extension(3, 1)
F5 = make_extension(5, 1)
EC = CurveSpec.weierstrass(F5, 2, 3)
LINE5 = CurveSpec.polyline(F5)


def P(field, text):
    return Poly.from_text(field, text)


def ec_g_matrix():
    return GramMatrix.from_rows(EC, [[0, 2], [2, P(F5, "3*x^3+6*x+9")]])


def ec_witness_pairs():
    y = RingElement.y(EC)
    inv_y = RingFraction.make(RingElement.one(EC), y)
    q = RingMatrix(EC, [[inv_y, RingElement(EC, Poly.zero(F5), P(F5, "3"))],
                        [inv_y * 2, RingElement(EC, Poly.zero(F5), P(F5, "2"))]])
    p = RingMatrix(EC, [[RingFraction(EC, RingElement.constant(EC, 3), P(F5, "x+1")),
                         RingElement(EC, P(F5, "x^2+x"))],
                        [RingFraction(EC, RingElement.one(EC), P(F5, "x+1")),
                         RingElement(EC, P(F5, "2*x^2+4*x+2"))]])
    return (q, y), (p, RingElement(EC, P(F5, "x+1")))


def remark_fixture(field):
    line = CurveSpec.polyline(field)
    f = GramMatrix.diagonal(line, [P(field, "x^4-2*x^2+1"), Poly.one(field)])
    g = GramMatrix.diagonal(line, [P(field, "x^2-2*x+1"), P(field, "x^2+2*x+1")])
    q = RingMatrix(line, [
        [RingFraction(line, RingElement.one(line), P(field, "x+1")), 0],
        [0, RingElement(line, P(field, "x+1"))],
    ])
    p = RingMatrix(line, [
        [0, RingFraction(line, RingElement.one(line), P(field, "1-x"))],
        [RingElement(line, P(field, "1-x")), 0],
    ])
    pairs = ((q, RingElement(line, P(field, "x+1"))),
             (p, RingElement(line, P(field, "1-x"))))
    return line, f, g, pairs


# -- unimodularity ----------------------------------------------------------


def test_unimodular_worked_matrix():
    g = ec_g_matrix()
    assert g.det() == RingElement.constant(EC, 1)  # -4 = 1 mod 5
    assert is_unimodular(g)


def test_unimodular_rejects_nonconstant_det():
    f = GramMatrix.diagonal(LINE5, [P(F5, "x^4-2*x^2+1"), Poly.one(F5)])
    assert not is_unimodular(f)


def test_unimodular_identity():
    assert is_unimodular(GramMatrix.identity(EC, 3))


def rand_symmetric_rows(rng, curve, n):
    """Symmetric rows of ring elements with x- and y-parts of degree <= 1."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a = Poly(F5, [rng.randrange(5) for _ in range(2)])
            b = Poly.zero(F5) if curve.is_polyline else Poly(F5, [rng.randrange(5) for _ in range(2)])
            rows[i][j] = rows[j][i] = RingElement(curve, a, b)
    return rows


@pytest.mark.parametrize("curve", [LINE5, EC], ids=["line", "cubic"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gram_det_is_the_ring_determinant(curve, n):
    rng = random.Random(f"gram-det:{n}:{curve.is_polyline}")
    checked = 0
    for _ in range(4):
        rows = rand_symmetric_rows(rng, curve, n)
        expected = leibniz_det(rows)
        if expected.is_zero():
            with pytest.raises(ValueError, match="nondegenerate"):
                GramMatrix.from_rows(curve, rows)
            continue
        gram = GramMatrix.from_rows(curve, rows)
        assert gram.det() == expected == gram.matrix.det().as_ring_element()
        checked += 1
    assert checked >= 2


def test_unit_denominator_forms_run_no_gcd(monkeypatch):
    calls = []
    gcd = curvering.poly_gcd

    def counting(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(curvering, "poly_gcd", counting)
    for curve in (LINE5, EC):
        GramMatrix.identity(curve, 5).det()
        GramMatrix.diagonal(curve, [1, 2, P(F5, "x^2+1"), P(F5, "3*x+4")]).det()
        GramMatrix.from_rows(curve, [[1, P(F5, "x")], [P(F5, "x"), RingElement.one(curve)]]).det()
    GramMatrix.diagonal(EC, [RingElement.y(EC), P(F5, "x")]).det()
    assert calls == []


def test_integral_entries_skip_fraction_normalisation(monkeypatch):
    # an int, Poly or RingElement entry is num/1 from the start, so integral
    # Gram matrices are built without RingFraction.__init__ and its reduction
    calls = []
    init = RingFraction.__init__

    def counting(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(RingFraction, "__init__", counting)
    for curve in (LINE5, EC):
        x = RingElement.x(curve)
        GramMatrix.identity(curve, 3)
        GramMatrix.diagonal(curve, [1, P(F5, "x^2+1"), x])
        GramMatrix.from_rows(curve, [[2, x], [x, P(F5, "x+3")]])
    assert calls == []
    assert RingFraction.from_ring(RingElement.x(EC)).den is Poly.one(F5)


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix.from_rows(LINE5, [[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        GramMatrix.from_rows(LINE5, [[1, 1], [1, 1]])  # degenerate


def test_gram_refusals_keep_their_order():
    # the curve, then symmetry, then integrality, then nondegeneracy: a
    # matrix both non-symmetric and fractional reads as non-symmetric
    inv_x = RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x"))
    with pytest.raises(ValueError, match="^integral forms are symmetric$"):
        GramMatrix.from_rows(LINE5, [[1, inv_x], [2, 1]])
    with pytest.raises(ValueError, match="^integral forms are symmetric$"):
        GramMatrix(LINE5, RingMatrix(LINE5, [[inv_x, 0], [1, inv_x]]).rows)
    with pytest.raises(ValueError, match="^integral forms have no denominators$"):
        GramMatrix.from_rows(LINE5, [[inv_x, 0], [0, 0]])  # degenerate too
    with pytest.raises(ValueError, match="^integral forms are nondegenerate$"):
        GramMatrix.from_rows(LINE5, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="^mismatched curves$"):
        GramMatrix(EC, RingMatrix(LINE5, [[inv_x, 1], [0, 0]]).rows)
    with pytest.raises(ValueError, match="at least one row"):
        GramMatrix.from_rows(LINE5, [])
    with pytest.raises(ValueError, match="must be square"):
        GramMatrix.from_rows(LINE5, [[1, 0], [0]])
    with pytest.raises(TypeError, match="cannot place"):
        GramMatrix.from_rows(LINE5, [[1.5]])
    with pytest.raises(ValueError, match="mismatched curves"):
        GramMatrix.from_rows(LINE5, [[RingElement.one(EC)]])
    with pytest.raises(ValueError, match="mismatched curves"):
        GramMatrix.from_rows(LINE5, [[RingFraction.from_ring(RingElement.one(EC))]])
    with pytest.raises(ValueError, match="curve's field"):
        GramMatrix.from_rows(LINE5, [[Poly.one(F3)]])


def test_gram_rows_hold_ring_elements():
    y = RingElement.y(EC)
    twin = CurveSpec.weierstrass(F5, 2, 3)  # equal to EC, another object
    entries = [
        [1, F5.element(2), P(F5, "x")],
        [2, RingFraction(EC, y * 2, P(F5, "2")), RingElement(twin, Poly.zero(F5), Poly.one(F5))],
        [RingElement.x(EC), RingFraction.from_ring(y), RingFraction.from_ring(RingElement.constant(twin, 4))],
    ]
    m = RingMatrix(EC, entries)
    g = GramMatrix.from_rows(EC, entries)
    assert all(type(e) is RingElement for row in g.rows for e in row)
    assert g.rows == tuple(tuple(e.as_ring_element() for e in row) for row in m.rows)
    assert g.matrix == m and g.n == 3
    assert g.det() == m.det().as_ring_element() == leibniz_det(g.rows)
    from_matrix = GramMatrix(EC, m.rows)
    assert from_matrix.matrix == m and from_matrix == g and from_matrix.rows == g.rows
    assert GramMatrix(twin, m.rows) == g
    assert g != GramMatrix.identity(EC, 3) and g != GramMatrix.identity(LINE5, 3)


# the line and a cubic over each of F_3, F_5, F_9 and F_25
SHAPE_CURVES = [
    curve
    for field in (F3, F5, make_extension(3, 2), make_extension(5, 2))
    for curve in (CurveSpec.polyline(field), CurveSpec.weierstrass(field, 1, 2))
]


@st.composite
def diagonal_entries(draw):
    """(curve, entries): one to six diagonal entries, each an int, a field
    element, a polynomial, a ring element (with a y part on the cubic) or
    a fraction over 1; any of them may be zero."""
    curve = draw(st.sampled_from(SHAPE_CURVES))
    field = curve.field
    coeff = st.sampled_from(list(field.elements()))
    poly = st.lists(coeff, max_size=3).map(lambda cs: Poly(field, cs))
    ring = st.builds(lambda a, b: RingElement(curve, a, b), poly, st.just(Poly.zero(field)) if curve.is_polyline else poly)
    entry = st.one_of(st.integers(-3, 3), coeff, poly, ring, ring.map(RingFraction.from_ring))
    return curve, draw(st.lists(entry, min_size=1, max_size=6))


def _built(make):
    """The rows and determinant of the form ``make`` builds, or the type
    and message of its refusal."""
    try:
        form = make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return form.rows, form.det()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(diagonal_entries())
def test_diagonal_form_matches_the_generic_constructor(case):
    curve, entries = case
    built = _built(lambda: GramMatrix.diagonal(curve, entries))
    assert built == _built(lambda: GramMatrix.from_rows(curve, diagonal_rows(entries, 0)))
    if type(built[0]) is tuple:  # a form, with the curve's shared zero off its diagonal
        zero = RingElement.zero(curve)
        assert all(e is zero for i, row in enumerate(built[0]) for j, e in enumerate(row) if i != j)


def test_diagonal_form_refuses_as_the_generic_constructor():
    # each entry is coerced in order, then denominators, then zeros are
    # refused: the order and the messages of GramMatrix.__init__
    inv_x = RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x"))
    cases = [
        ([], ValueError, "matrix must have at least one row"),
        ([P(F5, "x"), 0], ValueError, "integral forms are nondegenerate"),
        ([inv_x], ValueError, "integral forms have no denominators"),
        ([0, inv_x], ValueError, "integral forms have no denominators"),
        ([1, Poly.one(F3)], ValueError, "polynomial parts must live over the curve's field"),
        ([inv_x, RingElement.one(EC)], ValueError, "mismatched curves"),
        ([1.5], TypeError, "cannot place 1.5 in a matrix"),
    ]
    for entries, kind, message in cases:
        assert _built(lambda: GramMatrix.diagonal(LINE5, entries)) == (kind, message)
        assert _built(lambda: GramMatrix.from_rows(LINE5, diagonal_rows(entries, 0))) == (kind, message)


def test_diagonal_and_identity_forms_run_no_generic_check(monkeypatch):
    # a diagonal form is built from its shape: no pass over n^2 entries,
    # no symmetry test and no cofactor expansion
    calls = []
    for name in ("square_rows", "is_symmetric", "det"):
        real = getattr(forms, name)
        monkeypatch.setattr(forms, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    for curve in (LINE5, EC):
        GramMatrix.diagonal(curve, [1, P(F5, "x^2+1"), RingElement.x(curve), 3, F5.element(2)])
        GramMatrix.identity(curve, 4)
    assert calls == []
    GramMatrix.from_rows(LINE5, [[1, 0], [0, 2]])
    assert calls == ["square_rows", "is_symmetric", "det"]


def test_field_congruence_refuses_a_transition_of_another_size():
    # a 2 x 2 T against a 3 x 3 F used to be truncated to a 2 x 2 form
    one, zero = F5.one(), F5.zero()
    with pytest.raises(ValueError, match="dimension mismatch"):
        field_congruence(((one, zero), (zero, one)), FieldForm.diagonal(F5, [1, 2, 3]))


def test_field_form_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="at least one row"):
        FieldForm(F5, [])
    with pytest.raises(ValueError, match="square"):
        FieldForm(F5, [[1, 2]])
    with pytest.raises(ValueError, match="form matrix must be symmetric"):
        FieldForm(F5, [[1, 2], [3, 1]])


# -- diagonalization ----------------------------------------------------------


def test_diagonalize_hyperbolic_plane_f3():
    form = FieldForm(F3, [[0, 1], [1, 0]])
    diag, t = diagonalize(form)
    assert diag == (F3.element(2), F3.element(1))
    assert t == ((F3.element(1), F3.element(1)), (F3.element(1), F3.element(2)))
    assert field_congruence(t, form) == FieldForm.diagonal(F3, diag)


def test_diagonalize_zero_pivot_fallback_multiplier():
    # 2F_01 + F_11 = 0, so e_0 <- e_0 + e_1 would leave a zero pivot and
    # the repair takes e_0 <- e_0 - e_1
    for field, rows, want_diag, want_t in (
        (F3, [[0, 1], [1, 1]], (2, 1), ((1, 0), (2, 1))),
        (F5, [[0, 1, 2], [1, 3, 0], [2, 0, 1]], (1, 4, 3), ((1, 2, 1), (4, 4, 3), (0, 0, 1))),
    ):
        form = FieldForm(field, rows)
        diag, t = diagonalize(form)
        assert diag == tuple(field.element(c) for c in want_diag)
        assert t == tuple(tuple(field.element(c) for c in row) for row in want_t)
        assert field_congruence(t, form) == FieldForm.diagonal(field, diag)


def test_diagonalize_fixed_point_on_diagonals():
    form = FieldForm.diagonal(F5, [1, 2, 3])
    diag, t = diagonalize(form)
    assert diag == tuple(form.rows[i][i] for i in range(3))
    assert t == tuple(tuple(F5.element(1 if i == j else 0) for j in range(3)) for i in range(3))


def test_diagonalize_degenerate():
    form = FieldForm(F5, [[1, 2], [2, 4]])
    diag, t = diagonalize(form)
    assert diag == (F5.element(1), F5.zero())
    assert field_congruence(t, form) == FieldForm.diagonal(F5, diag)
    assert form.rank == 1


def test_diagonalize_random_forms():
    rng = random.Random(3)
    for field in (F3, F5):
        for n in (2, 3):
            for _ in range(25):
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        v = rng.randrange(field.q)
                        rows[i][j] = v
                        rows[j][i] = v
                form = FieldForm(field, rows)
                diag, t = diagonalize(form)
                assert field_congruence(t, form) == FieldForm.diagonal(field, diag)


# -- discriminant classes -------------------------------------------------------


def test_disc_class_examples():
    assert is_square(FieldForm.diagonal(F5, [1, 1]).det())
    assert not is_square(FieldForm.diagonal(F5, [1, 2]).det())
    # det of the hyperbolic plane is -1 = 2, a nonsquare mod 3
    assert not is_square(FieldForm(F3, [[0, 1], [1, 0]]).det())


def test_disc_class_rejects_degenerate():
    with pytest.raises(ValueError, match="square class of zero"):
        is_square(FieldForm(F5, [[1, 2], [2, 4]]).det())


@pytest.mark.parametrize("p", [3, 5])
def test_disc_class_congruence_invariant_exhaustive_rank2(p):
    from oracles import general_linear_group

    field = make_extension(p, 1)
    for f_int in symmetric_nondegenerate(p, 2):
        form = FieldForm(field, f_int)
        square = is_square(form.det())
        for t_int in general_linear_group(p, 2):
            moved = field_congruence(field_matrix(field, t_int), form)
            assert is_square(moved.det()) == square


def test_disc_class_congruence_invariant_sampled_rank3():
    from oracles import general_linear_group

    rng = random.Random(8)
    pool = symmetric_nondegenerate(3, 3)
    gl = general_linear_group(3, 3)
    for _ in range(40):
        form = FieldForm(F3, rng.choice(pool))
        square = is_square(form.det())
        moved = field_congruence(field_matrix(F3, rng.choice(gl)), form)
        assert is_square(moved.det()) == square


# -- field isomorphism ------------------------------------------------------------


def test_field_isomorphic_examples():
    assert field_isomorphic(FieldForm.diagonal(F5, [1, 1]), FieldForm.diagonal(F5, [4, 4]))
    assert not field_isomorphic(FieldForm.diagonal(F5, [1]), FieldForm.diagonal(F5, [2]))
    g = FieldForm(F5, [[1, 2], [2, 0]])
    assert field_isomorphic(g, g)


def test_field_isomorphic_oracle_exhaustive_f3_rank2():
    forms = [FieldForm(F3, rows) for rows in symmetric_nondegenerate(3, 2)]
    ints = symmetric_nondegenerate(3, 2)
    for fi, f in zip(ints, forms):
        for gi, g in zip(ints, forms):
            assert field_isomorphic(f, g) == brute_force_congruent(fi, gi, 3)


def test_field_isomorphic_oracle_sampled_f3_rank3():
    rng = random.Random(41)
    pool = symmetric_nondegenerate(3, 3)
    for _ in range(25):
        fi, gi = rng.choice(pool), rng.choice(pool)
        f, g = FieldForm(F3, fi), FieldForm(F3, gi)
        assert field_isomorphic(f, g) == brute_force_congruent(fi, gi, 3)


def test_field_isomorphic_rejects_mixed_fields():
    with pytest.raises(ValueError):
        field_isomorphic(FieldForm.diagonal(F5, [1]), FieldForm.diagonal(F3, [1]))
    one, degenerate = FieldForm.diagonal(F5, [1, 1]), FieldForm(F5, [[1, 2], [2, 4]])
    for f, g in ((one, degenerate), (degenerate, one)):
        with pytest.raises(ValueError, match="isomorphism test requires nondegenerate forms"):
            field_isomorphic(f, g)


# -- local isomorphism ---------------------------------------------------------------


def test_local_isomorphic_constants_at_prime():
    f = GramMatrix.diagonal(LINE5, [1, 1])
    g = GramMatrix.diagonal(LINE5, [4, 4])
    at = PrimePoly.finite(Poly.x(F5))
    assert local_isomorphic(f, g, at)


def test_local_isomorphic_at_degree_two_prime_over_f13():
    # the residue field F_169 is above the base-field cap of 121
    field = make_extension(13, 1)
    line = CurveSpec.polyline(field)
    prime = PrimePoly.finite(monic_irreducibles(field, 2)[0])
    assert field.q**prime.degree == 169  # its residue field
    one = GramMatrix.identity(line, 2)
    assert local_isomorphic(one, one, prime)
    c = next(a for a in field.nonzero_elements() if not is_square(a))
    other = GramMatrix.diagonal(line, [1, c])
    assert local_isomorphic(one, other, prime)  # c is a square in F_169
    rational = PrimePoly.finite(Poly.x(field))
    assert not local_isomorphic(one, other, rational)


def test_local_isomorphic_at_curve_point():
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    pt = AffinePoint(F5.element(1), F5.element(1), 1)
    assert local_isomorphic(f, g, pt)  # disc 1 vs -4 = 1, both square


def test_local_isomorphic_reflexive():
    f = GramMatrix.diagonal(LINE5, [1, 2])
    for text in ("x", "x+1", "x^2+2"):
        at = PrimePoly.finite(P(F5, text))
        assert local_isomorphic(f, f, at)


def test_local_isomorphic_rejects_non_unimodular():
    f = GramMatrix.diagonal(LINE5, [P(F5, "x"), Poly.one(F5)])
    with pytest.raises(ValueError):
        local_isomorphic(f, f, PrimePoly.finite(P(F5, "x+1")))


def test_local_isomorphic_rejects_singular_point():
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    with pytest.raises(ValueError, match="singular"):
        local_isomorphic(f, g, AffinePoint(F5.element(4), F5.zero(), 1))


def test_local_isomorphic_rejects_off_curve_point():
    # 0 != 0^3 + 2*0 + 3, so (0, 0) is no place of the cubic
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    with pytest.raises(ValueError, match=r"\(F5\(0\), F5\(0\)\) is not on the curve"):
        local_isomorphic(f, g, AffinePoint(F5.element(0), F5.element(0), 1))


def test_local_isomorphic_singular_test_is_pointwise():
    # (4, 0) stays singular when embedded in F_25; (2, 0), the simple
    # root of the cubic, is a smooth point with y = 0
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    F25 = make_extension(5, 2)
    with pytest.raises(ValueError, match="singular"):
        local_isomorphic(f, g, AffinePoint(embed(F5.element(4), F25), F25.zero(), 1))
    for field in (F5, F25):
        assert local_isomorphic(f, g, AffinePoint(embed(F5.element(2), field), field.zero(), 1))


def test_local_isomorphic_across_certified_genus():
    # two forms in one genus agree locally at every smooth rational point
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    from hasseforms.curvepoints import enumerate_points

    for pt in enumerate_points(EC):
        if pt.x == F5.element(4) and pt.y == F5.zero():
            continue
        assert local_isomorphic(f, g, pt)


def test_local_isomorphic_answers_over_the_residue_field():
    # 2 is a nonsquare of F_5, so 1_2 and diag(1, 2) differ at every place
    # of odd degree, whatever field the point's coordinates are written in
    from hasseforms.curvepoints import enumerate_points

    curve = CurveSpec.weierstrass(F5, 1, 1)
    f, g = GramMatrix.identity(curve, 2), GramMatrix.diagonal(curve, [1, 2])
    rational = AffinePoint(F5.zero(), F5.one(), 1)
    written_in_f25 = next(
        pt for pt in enumerate_points(curve, 2) if pt.x == embed(F5.zero(), pt.x.field) and pt.y == embed(F5.one(), pt.y.field)
    )
    assert written_in_f25.x.field.q == 25 and written_in_f25.degree == 1
    assert not local_isomorphic(f, g, rational)
    assert not local_isomorphic(f, g, written_in_f25)
    degree_two = next(pt for pt in enumerate_points(curve, 2) if pt.degree == 2)
    assert local_isomorphic(f, g, degree_two)  # 2 is a square in F_25


def _unimodular_gram(curve, rng, n, square_det):
    """U^t diag(c) U for a random unipotent U (entries of degree <= 1 in x,
    plus a constant y part on a cubic) and nonzero constants c whose
    product is a square exactly when square_det is set."""
    field = curve.field
    nonzero = list(field.nonzero_elements())
    cs = [rng.choice(nonzero) for _ in range(n)]
    det = cs[0]
    for c in cs[1:]:
        det = det * c
    if is_square(det) != square_det:
        cs[-1] = cs[-1] * next(c for c in nonzero if not is_square(c))

    def entry():
        a = Poly(field, [rng.choice(list(field.elements())) for _ in range(2)])
        b = Poly.zero(field) if curve.is_polyline else Poly(field, [rng.choice(list(field.elements()))])
        return RingElement(curve, a, b)

    u = RingMatrix(curve, [[1 if i == j else entry() if i < j else 0 for j in range(n)] for i in range(n)])
    return GramMatrix(curve, congruence(u, RingMatrix(curve, diagonal_rows(cs))).rows)


def _places_up_to_degree_two(curve):
    """Every prime of degree 1 or 2 on the line; on a cubic every point of
    degree e <= 2, with coordinates in F_{q^e}."""
    from hasseforms.curvepoints import enumerate_points

    if curve.is_polyline:
        return [PrimePoly(curve.field, prime) for d in (1, 2) for prime in monic_irreducibles(curve.field, d)]
    return [pt for e in (1, 2) for pt in enumerate_points(curve, e) if pt.degree == e]


F9 = make_extension(3, 2)


@pytest.mark.parametrize(
    "curve",
    [
        CurveSpec.polyline(F3),
        LINE5,
        CurveSpec.polyline(F9),
        CurveSpec.weierstrass(F5, 1, 1),
        CurveSpec.weierstrass(F9, [1, 1], [0, 1]),
    ],
    ids=["line-F3", "line-F5", "line-F9", "cubic-F5", "cubic-F9"],
)
def test_local_isomorphic_matches_evaluation_at_every_place(curve):
    assert curve.is_smooth
    rng = random.Random(curve.field.q * 10 + (not curve.is_polyline))
    places = _places_up_to_degree_two(curve)
    assert {1, 2} <= {place.degree for place in places}
    answers = set()
    for n in (1, 2, 3):
        for square_f, square_g in ((True, True), (True, False), (False, True), (False, False)):
            f = _unimodular_gram(curve, rng, n, square_f)
            g = _unimodular_gram(curve, rng, n, square_g)
            assert is_square(f.det().constant_value()) == square_f
            for place in places:
                answer = local_isomorphic(f, g, place)
                assert answer == local_isomorphic_by_evaluation(f, g, place)
                answers.add(answer)
    assert answers == {True, False}


@pytest.mark.parametrize("field", [F5, F9], ids=["F5", "F9"])
def test_local_isomorphic_at_line_places_matches_their_primes(field):
    # verify_genus_witness reports a line place as one x of its Frobenius
    # orbit, y = None; localizing there answers as at its prime
    line = CurveSpec.polyline(field)
    rng = random.Random(field.q)
    grams = [_unimodular_gram(line, rng, n, square) for n in (1, 2) for square in (True, False)]
    answers = set()
    for d in (1, 2):
        places = genus._closed_places(line, d)
        assert places and all(place.y is None and place.degree == d for place in places)
        for place in places:
            prime = PrimePoly.finite(place.prime)
            for f in grams:
                for g in grams:
                    answer = local_isomorphic(f, g, place)
                    assert answer == local_isomorphic(f, g, prime)
                    answers.add(answer)
    assert answers == {True, False}


def test_local_isomorphic_rejects_malformed_line_points():
    f = GramMatrix.identity(LINE5, 2)
    place = genus._closed_places(LINE5, 2)[0]
    with pytest.raises(ValueError, match="has degree 2, not the stated 1"):
        local_isomorphic(f, f, AffinePoint(place.x, None, 1))
    with pytest.raises(ValueError, match="y coordinate"):
        local_isomorphic(f, f, AffinePoint(F5.one(), F5.one(), 1))
    with pytest.raises(ValueError, match="does not lie over the curve's field"):
        local_isomorphic(f, f, AffinePoint(F3.one(), None, 1))


def test_local_isomorphic_rejects_a_stated_degree_off_the_orbit():
    from hasseforms.curvepoints import enumerate_points

    curve = CurveSpec.weierstrass(F5, 1, 1)
    f = GramMatrix.identity(curve, 2)
    rational = AffinePoint(F5.zero(), F5.one(), 2)
    with pytest.raises(ValueError, match="has degree 1, not the stated 2"):
        local_isomorphic(f, f, rational)
    pt = next(pt for pt in enumerate_points(curve, 2) if pt.degree == 2)
    with pytest.raises(ValueError, match="has degree 2, not the stated 1"):
        local_isomorphic(f, f, AffinePoint(pt.x, pt.y, 1))


def test_local_isomorphic_rejects_foreign_and_infinite_primes():
    f = GramMatrix.identity(LINE5, 2)
    for at in (PrimePoly.finite(Poly.x(F3)), PrimePoly.infinite(F5)):
        with pytest.raises(ValueError, match="is not a finite prime over the curve's field"):
            local_isomorphic(f, f, at)
    at, cubic = PrimePoly.finite(Poly.x(F5)), GramMatrix.identity(EC, 2)
    with pytest.raises(ValueError, match="forms live over different curves"):
        local_isomorphic(f, cubic, at)
    with pytest.raises(ValueError, match="prime reduction applies over the affine line"):
        local_isomorphic(cubic, cubic, at)
    with pytest.raises(TypeError, match="cannot localize at"):
        local_isomorphic(f, f, Poly.x(F5))


def test_local_isomorphic_evaluates_nothing(monkeypatch):
    calls = []
    evaluate, init, diagonalize = Poly.evaluate, FieldForm.__init__, local.diagonalize
    monkeypatch.setattr(Poly, "evaluate", lambda *a: calls.append("evaluate") or evaluate(*a))
    monkeypatch.setattr(FieldForm, "__init__", lambda *a: calls.append("FieldForm") or init(*a))
    for owner in (local, forms):  # a form's det and rank reduce through forms (local's docstring)
        monkeypatch.setattr(owner, "diagonalize", lambda form: calls.append("diagonalize") or diagonalize(form))
    for curve, at in ((LINE5, PrimePoly.finite(P(F5, "x^2+2"))), (EC, AffinePoint(F5.element(1), F5.element(1), 1))):
        f = GramMatrix.identity(curve, 2)
        g = GramMatrix.from_rows(curve, [[1, P(F5, "x")], [P(F5, "x"), P(F5, "x^2+2")]])
        calls.clear()
        local_isomorphic(f, g, at)
        assert calls == []


def test_field_form_keeps_elements_of_its_field():
    F25 = make_extension(5, 2)
    t = F25.gen()
    form = FieldForm(F25, [[t, 1], [F25.one(), 3]])
    assert form.rows[0][0] is t and form.rows[0][1] is form.rows[1][0]
    assert form == FieldForm(F25, [[t.coeffs, 1], [1, 3]])
    with pytest.raises(ValueError, match="different field"):
        FieldForm(F25, [[F5.one()]])


def test_witness_determinant_skips_the_gcd_for_a_constant_quotient(monkeypatch):
    calls = []
    gcd = curvering.poly_gcd
    monkeypatch.setattr(curvering, "poly_gcd", lambda *a: calls.append(a) or gcd(*a))
    delta = P(F5, "x^2+3*x+1")
    for curve in (LINE5, EC):
        for n in (0, 1, 2, 3):
            den = delta**n
            for c in (1, 2, 4):  # det P = c delta^n: det Q = c/1, no gcd
                num = RingElement(curve, den * Poly.constant(F5, c))
                calls.clear()
                got = curvering._quotient(num, den)
                assert calls == [] and got.is_integral()
                assert got == RingFraction(curve, num, den) == RingFraction.from_ring(RingElement.constant(curve, c))
            others = [den * P(F5, "x+1"), den + Poly.one(F5), P(F5, "2*x+1"), Poly.zero(F5)]
            for a in others:  # not a constant times delta^n: reduced as before
                num = RingElement(curve, a)
                assert curvering._quotient(num, den) == RingFraction(curve, num, den)
            if not curve.is_polyline:  # a y part never takes the shortcut
                num = RingElement(curve, den * Poly.constant(F5, 2), den)
                assert curvering._quotient(num, den) == RingFraction(curve, num, den)
    # the witnesses of both fixtures have constant det Q and run no gcd
    for f, g, pairs in (remark_fixture(F5)[1:], (GramMatrix.identity(EC, 2), ec_g_matrix(), ec_witness_pairs())):
        for q, _ in pairs:
            calls.clear()
            ok, det_q = witness_identity(q, f, g)
            assert ok and det_q.is_integral() and calls == []
            assert det_q == q.det() == leibniz_det(q.rows)
    # a non-constant det Q still runs the gcd
    q = RingMatrix(LINE5, [[RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x+1")), 0], [0, 1]])
    calls.clear()
    ok, det_q = witness_identity(q, GramMatrix.identity(LINE5, 2), GramMatrix.identity(LINE5, 2))
    assert not ok and calls
    assert det_q == q.det() == leibniz_det(q.rows) == RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x+1"))


def test_field_isomorphic_computes_one_det_per_form(monkeypatch):
    # det, rank and the square class of det read one reduction per form
    reductions = []
    diagonalize = local.diagonalize

    def counted(form):
        if form._reduced is None:  # a kept reduction is returned, not redone
            reductions.append(form.rows)
        return diagonalize(form)

    monkeypatch.setattr(forms, "diagonalize", counted)  # the binding FieldForm.det calls
    f = FieldForm(F5, [[1, 2], [2, 3]])
    g = FieldForm.diagonal(F5, [1, 4])
    assert field_isomorphic(f, g) == (is_square(f.det()) == is_square(g.det()))
    assert reductions == [f.rows, g.rows]
    field_isomorphic(f, g)
    assert f.rank == g.rank == 2 and len(reductions) == 2


# -- genus witnesses ----------------------------------------------------------------------


def test_remark_witness_certified_degree_three():
    line, f, g, pairs = remark_fixture(F5)
    report = verify_genus_witness(f, g, GenusWitness(g, pairs), degree=3)
    assert report.identity_ok == (True, True)
    assert report.verdict == "Certified"
    assert report.uncovered == ()
    # coverage looked at all 5 + 10 + 40 monic irreducibles
    assert len(report.covered) == 55


def test_ec_witness_gap_at_singular_point():
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    report = verify_genus_witness(f, g, GenusWitness(g, ec_witness_pairs()), degree=2)
    assert report.identity_ok == (True, True)
    assert report.verdict == "GapFound"
    assert [(p.x, p.y) for p in report.uncovered] == [(F5.element(4), F5.zero())]


@pytest.mark.parametrize(
    "p, k, a, b, d_max",
    [(5, 1, 1, 1, 4), (3, 1, 2, 1, 6), (11, 1, 1, 3, 4), (7, 2, 1, 3, 2)],
)
def test_cubic_closed_places_one_per_orbit(p, k, a, b, d_max):
    # one entry per closed point, counted against the oracle's count from
    # the F_q point count alone; over F_11 at d = 4 that is 3645 places
    field = make_extension(p, k)
    curve = CurveSpec.weierstrass(field, a, b)
    expected = closed_point_counts(field, field.element(a), field.element(b), d_max)
    for d, count in enumerate(expected, 1):
        places = genus._closed_places(curve, d)
        assert len(places) == count
        assert all(place.degree == d for place in places)


def test_trivial_self_witness():
    for gram in (GramMatrix.identity(EC, 2), GramMatrix.diagonal(LINE5, [1, 2])):
        witness = GenusWitness(
            gram, ((RingMatrix(gram.curve, diagonal_rows([1] * gram.n)), RingElement.one(gram.curve)),)
        )
        report = verify_genus_witness(gram, gram, witness, degree=2)
        assert report.verdict == "Certified"


def test_malformed_witness_rejected():
    line, f, g, pairs = remark_fixture(F5)
    bad = RingMatrix(line, [
        [RingFraction(line, RingElement.one(line), P(F5, "x")), 0],
        [0, 1],
    ])
    with pytest.raises(MalformedWitnessError):
        GenusWitness(g, ((bad, RingElement(line, P(F5, "x+1"))),))


def _accepts_denominators(q, s) -> bool:
    try:
        GenusWitness(GramMatrix.identity(q.curve, q.n), ((q, s),))
    except MalformedWitnessError:
        return False
    return True


def _monic(rng, field, degree):
    return Poly(field, [rng.randrange(field.p) for _ in range(degree)] + [1])


def _witness_piece(curve, den, s, num=None):
    """A witness matrix with one entry num/den (1/den by default), and
    its locus s."""
    num = RingElement.one(curve) if num is None else num
    q = RingMatrix(curve, [[RingFraction(curve, num, den), 0], [0, 1]])
    return q, s


# smooth cubics over F_5: y^2 = x^3 - x has y = 0 over x = 0, 1 and 4;
# y^2 = x^3 + x + 1 has no point with y = 0
CUBIC5 = CurveSpec.weierstrass(F5, 4, 0)
EC11 = CurveSpec.weierstrass(F5, 1, 1)


def _entries_clear(q, s) -> bool:
    """Whether every entry of q lies in O[1/s], by orders at places."""
    return all(clearing_exponent(e.num, e.den, s) is not None for row in q.rows for e in row)


def test_denominator_check_matches_factoring_rule():
    # the check against orders at every place over each factor of each
    # denominator; a witness is valid iff s vanishes wherever an entry has
    # a pole, so the y part of s and of the entry both count
    x1_line = RingElement(LINE5, P(F5, "x+1"))
    y, y11 = RingElement.y(CUBIC5), RingElement.y(EC11)
    known = [
        (_witness_piece(LINE5, P(F5, "x^2+x"), x1_line), False),  # x is off the locus
        (_witness_piece(LINE5, P(F5, "x+1") ** 3, x1_line), True),
        (_witness_piece(CUBIC5, P(F5, "x+1") ** 2, RingElement(CUBIC5, P(F5, "x+1"))), True),
        (_witness_piece(CUBIC5, P(F5, "x^3+4*x"), y), True),  # x^3 - x = y^2
        (_witness_piece(CUBIC5, P(F5, "x"), y), True),  # y^2 = x (x^2 - 1), one zero over x = 0
        (_witness_piece(CUBIC5, P(F5, "x+2"), y), False),  # y = ±2 over x = 3
        (_witness_piece(CUBIC5, P(F5, "x+2"), y + 2, y - 2), True),  # the pole is at (3, 3) alone
        (_witness_piece(CUBIC5, P(F5, "x+2"), y - 2, y - 2), False),
        (_witness_piece(EC11, P(F5, "x"), y11 + 1, y11 - 1), True),  # (y - 1)/x = (x^2 + 1)/(y + 1)
        (_witness_piece(EC11, P(F5, "x"), y11 - 1, y11 - 1), False),  # a pole at (0, 4), where y - 1 = 3
        (_witness_piece(EC11, P(F5, "x"), y11 - 1), False),  # N(y - 1) = -(x^3 + x) vanishes at both
    ]
    for (q, s), accepted in known:
        assert _entries_clear(q, s) == accepted
        assert _accepts_denominators(q, s) == accepted
    rng = random.Random(41)
    verdicts = set()
    for _ in range(60):
        curve = rng.choice((LINE5, CUBIC5, EC11))
        roots = rng.sample(range(5), rng.randrange(1, 3))
        # s vanishes over some of the roots, by x - r or, on a cubic, by
        # y - c through a point (r, c); den has powers of x - r and
        # sometimes a monic quadratic
        s = RingElement.constant(curve, rng.randrange(1, 5))
        for r in rng.sample(roots, rng.randrange(0, len(roots) + 1)):
            options = [RingElement(curve, Poly(F5, [-r, 1]))]
            if not curve.is_polyline:
                value = curve.cubic().evaluate(F5.element(r))
                options += [RingElement.y(curve) - c for c in F5.elements() if c * c == value]
            s = s * rng.choice(options)
        den = Poly.one(F5)
        for r in roots:
            den = den * Poly(F5, [-r, 1]) ** rng.randrange(1, 3)
        if rng.random() < 0.3:
            den = den * _monic(rng, F5, 2)
        b = [] if curve.is_polyline else [rng.randrange(5) for _ in range(2)]
        num = RingElement(curve, Poly(F5, [rng.randrange(5) for _ in range(2)]), Poly(F5, b))
        if num.is_zero():
            continue
        q, s = _witness_piece(curve, den, s, num)
        expected = _entries_clear(q, s)
        assert _accepts_denominators(q, s) == expected, (num, den, s)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_denominator_check_beyond_factoring_degree_bound():
    # trial-division factoring refused denominators of degree above 24;
    # clearing by powers of s needs no factoring and no bound
    s = RingElement(LINE5, P(F5, "x+1"))
    assert _accepts_denominators(*_witness_piece(LINE5, P(F5, "x+1") ** 25, s))
    assert not _accepts_denominators(*_witness_piece(LINE5, P(F5, "x+1") ** 25 * P(F5, "x"), s))


def test_clearing_needs_no_bound_on_the_power_of_s():
    # 1/(x + 1)^128 clears by s = x^127 (x + 1) only at k = 128, and 1/x^256
    # by no power of x^256 + 1; both are decided on residues mod the
    # denominator, with no power of s formed
    s = RingElement(LINE5, P(F5, "x^128+x^127"))
    assert _accepts_denominators(*_witness_piece(LINE5, P(F5, "x+1") ** 128, s))
    s = RingElement(LINE5, P(F5, "x^256+1"))
    assert not _accepts_denominators(*_witness_piece(LINE5, P(F5, "x^256"), s))


def test_support_clears_det_q_beyond_every_entry():
    # each entry 1/x^128 clears by s = x^2 + x at k = 128, det Q = 1/x^384
    # only at k = 384; the witness is valid, so its support never refuses
    # it, and it reaches every place off x (x + 1)
    f = GramMatrix.diagonal(LINE5, [RingElement(LINE5, P(F5, "x^256"))] * 3)
    e = RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x^128"))
    q = RingMatrix(LINE5, [[e if i == j else 0 for j in range(3)] for i in range(3)])
    g = GramMatrix.identity(LINE5, 3)
    witness = GenusWitness(g, ((q, RingElement(LINE5, P(F5, "x^2+x"))),))
    report = _check_coverage_by_every_part(f, g, witness, 2)
    assert report.identity_ok == (True,)
    assert [place.prime for place in report.uncovered] == [P(F5, "x"), P(F5, "x+1")]
    assert len(report.covered) == 13


# the line and two smooth cubics over F_5 and F_9, both cubics with points
# at y = 0: y^2 = x^3 - x over x = 0, 1, 4, and y^2 = x^3 + x over x = 0, ±i
CLEARING_CURVES = [LINE5, CurveSpec.polyline(F9), CUBIC5, CurveSpec.weierstrass(F9, 1, 0)]


@st.composite
def clearing_cases(draw):
    """(num, den, s) in lowest terms: den a product of powers of x - r
    and perhaps a monic quadratic; s a nonzero constant times factors
    that vanish over some r, x - r or, on a cubic, y - c with c^2 = r^3 +
    ar + b (c = 0 included); num small, or one such factor."""
    curve = draw(st.sampled_from(CLEARING_CURVES))
    field = curve.field
    elements = list(field.elements())
    element = st.sampled_from(elements)
    roots = draw(st.lists(element, min_size=1, max_size=3, unique=True))

    def through(r):
        options = [RingElement(curve, Poly(field, [-r, field.one()]))]
        if not curve.is_polyline:
            value = curve.cubic().evaluate(r)
            options += [RingElement.y(curve) - c for c in elements if c * c == value]
        return draw(st.sampled_from(options))

    s = RingElement.constant(curve, draw(element.filter(lambda c: not c.is_zero())))
    for r in draw(st.lists(st.sampled_from(roots), max_size=4)):
        s = s * through(r)
    den = Poly.one(field)
    for r in roots:
        den = den * Poly(field, [-r, field.one()]) ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        den = den * Poly(field, [draw(element), draw(element), field.one()])
    if not curve.is_polyline and draw(st.booleans()):
        num = through(draw(st.sampled_from(roots)))
    else:
        parts = st.lists(element, max_size=3)
        num = RingElement(curve, Poly(field, draw(parts)), Poly(field, () if curve.is_polyline else draw(parts)))
    assume(not num.is_zero())
    e = RingFraction(curve, num, den)
    return e.num, e.den, s


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(clearing_cases())
def test_clearing_matches_orders_at_smooth_places(case):
    # num s^(2 deg den) is 0 mod den exactly when orders at the places over
    # den's roots say some num s^k / den lies in the ring, and then the
    # support's residue mod den^2, divided by den, is that element mod den
    num, den, s = case
    k = clearing_exponent(num, den, s)
    top = 2 * den.degree
    assert genus._times_power(num, s, top, den).is_zero() == (k is not None)
    if k is not None:
        assert k <= top
        c = num * s**top
        c = RingElement(num.curve, c.a // den, c.b // den)
        assert c * RingElement(num.curve, den) == num * s**top
        _, _, low = genus._support(s, RingFraction.make(num, RingElement(num.curve, den)))
        assert low.a % den == (s * c).a % den and low.b % den == (s * c).b % den


def test_line_coverage_matches_valuation_rule():
    # valid witnesses only: every denominator is built from factors of s
    rng = random.Random(43)
    checked = set()
    for _ in range(25):
        factors = [_monic(rng, F5, rng.randrange(1, 3)) for _ in range(rng.randrange(0, 3))]
        s = RingElement.constant(LINE5, rng.randrange(1, 5))
        for factor in factors:
            s = s * factor
        entries = []
        for _ in range(4):
            num = RingElement(LINE5, Poly(F5, [rng.randrange(5) for _ in range(3)]))
            den = Poly.one(F5)
            for factor in factors:
                den = den * factor ** rng.randrange(0, 3)
            entries.append(RingFraction(LINE5, num, den))
        q = RingMatrix(LINE5, [entries[:2], entries[2:]])
        assert _accepts_denominators(q, s)
        g = GramMatrix.identity(LINE5, 2)
        report = _check_coverage_by_every_part(g, g, GenusWitness(g, ((q, s),)), 2)
        checked.update((bool(report.covered), not report.uncovered))
    assert checked == {True, False}


def _check_coverage_by_every_part(f, g, witness, degree):
    """verify_genus_witness's coverage lists, each place checked against
    the every-part rule: s, every entry and det Q, each judged by its
    order at the place (``covers_by_valuations``); returns the report."""
    report = verify_genus_witness(f, g, witness, degree=degree)
    dets = [leibniz_det(q.rows) for q, _ in witness.pairs]
    for places, expected in ((report.covered, True), (report.uncovered, False)):
        for place in places:
            got = any(covers_by_valuations(q, s, d, place) for (q, s), d in zip(witness.pairs, dets))
            assert got is expected, place
    return report


@pytest.mark.parametrize("fixture", ["polyline_pair", "singular_cubic_pair"])
def test_fixture_coverage_matches_every_part_rule(fixture):
    pair = load_bundled_pair(fixture)
    report = _check_coverage_by_every_part(pair["F"], pair["G"], pair["witness"], pair["degree"])
    assert report.covered


def _generated_genus_pairs(seeds):
    """The input pairs of every generated benchmark genus job and set-up
    probe of the seeds, parsed."""
    _, jobs = benchmark_jobs("genus", seeds)
    return [(job["id"], pair_from_json(job["input"])) for job in jobs if job["argv"][0] == "genus-verify"]


def test_generated_genus_coverage_matches_every_part_rule():
    pairs = _generated_genus_pairs((1, 2))
    assert len(pairs) == 2 * (26 + 1)
    for name, pair in pairs:
        _check_coverage_by_every_part(pair["F"], pair["G"], pair["witness"], pair["degree"])


@st.composite
def shared_factor_witnesses(draw):
    """(g, witness, degree): valid witnesses of one or two pieces over the
    line, two smooth cubics and the singular cubic over F_5, ranks 1-3,
    denominators sharing factors (so their lcm is not their product).
    On a cubic an entry over x + 1 or x + 2 is sometimes (y - c)/(x - r),
    c^2 = r^3 + ar + b, whose only pole over r is at (r, -c) (c = 0
    included).  s takes one factor per denominator prime x - r: y + c,
    which vanishes there and at no other point over r, when every entry
    over r is that one, and otherwise x - r itself."""
    curve = draw(st.sampled_from([LINE5, EC11, CUBIC5, EC]))
    n = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, 4), max_size=2)
    nonzero = st.lists(st.integers(0, 4), min_size=1, max_size=2).filter(any)
    primes = {"1": (), "x+1": ("x+1",), "x^2+2*x+1": ("x+1",), "x^2+x": ("x", "x+1"), "x+2": ("x+2",),
              "x^2+3*x+2": ("x+1", "x+2")}
    pieces = []
    for _ in range(draw(st.integers(1, 2))):
        rows, over = [], {}  # over: per prime, the c of each entry (y - c)/(x - r), None for the others
        for _ in range(n):
            row = []
            for _ in range(n):
                d = draw(st.sampled_from(SHARED_DENOMINATORS))
                r = -P(F5, d).coeffs[0]
                roots = [] if curve.is_polyline or d not in ("x+1", "x+2") else [
                    c for c in F5.elements() if c * c == curve.cubic().evaluate(r)]
                if roots and draw(st.booleans()):
                    c = draw(st.sampled_from(roots))
                    num = RingElement.y(curve) - c
                else:
                    c = None
                    num = RingElement(curve, Poly(F5, draw(nonzero)), Poly(F5, () if curve.is_polyline else draw(coeffs)))
                for prime in primes[d]:
                    over.setdefault(prime, set()).add(c)
                row.append(RingFraction(curve, num, P(F5, d)))
            rows.append(row)
        s = RingElement(curve, P(F5, draw(st.sampled_from(["1", "x+3", "2*x^2+1"]))))
        for prime, cs in sorted(over.items()):
            (c,) = cs if len(cs) == 1 else (None,)
            s = s * (RingElement(curve, P(F5, prime)) if c is None else RingElement.y(curve) + c)
        pieces.append((RingMatrix(curve, rows), s))
    g = GramMatrix.identity(curve, n)
    return g, GenusWitness(g, tuple(pieces)), draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(shared_factor_witnesses())
def test_shared_factor_coverage_matches_every_part_rule(case):
    g, witness, degree = case
    _check_coverage_by_every_part(g, g, witness, degree)


def test_coverage_has_no_false_gap_at_a_regular_point():
    # (y - 1)/x = (x^2 + 1)/(y + 1) is regular at (0, 1) on y^2 = x^3 + x + 1
    # over F_5, with value 3, and y + 1 = 2 there, so the witness covers
    # (0, 1) although the denominator x vanishes there; its pole at
    # (0, 4), where y + 1 vanishes, is on the declared locus
    y = RingElement.y(EC11)
    q = RingMatrix(EC11, [[RingFraction(EC11, y - 1, P(F5, "x"))]])
    g = GramMatrix.identity(EC11, 1)
    witness = GenusWitness(g, ((q, y + 1),))
    report = _check_coverage_by_every_part(g, g, witness, 1)
    assert AffinePoint(F5.zero(), F5.one(), 1) in report.covered
    assert AffinePoint(F5.zero(), F5.element(4), 1) in report.uncovered
    assert RingFraction.make(RingElement(EC11, P(F5, "x^2+1")), y + 1) == q.rows[0][0]


def test_coverage_tests_at_most_three_parts_per_witness_and_place(monkeypatch):
    calls = []
    zero_test = genus._zero_test

    def counting(h, ext):
        vanishes = zero_test(h, ext)
        return lambda lx, ly: calls.append((lx, ly)) or vanishes(lx, ly)

    monkeypatch.setattr(genus, "_zero_test", counting)
    d = RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x^2+x"))
    rank3 = RingMatrix(LINE5, [[d, d * 2, 0], [0, 1, d], [d * 3, 0, 1]])
    cases = [load_bundled_pair(name) for name in ("polyline_pair", "singular_cubic_pair")]
    cases.append({"F": GramMatrix.identity(LINE5, 3), "G": GramMatrix.identity(LINE5, 3), "degree": 2,
                  "witness": GenusWitness(GramMatrix.identity(LINE5, 3), ((rank3, RingElement(LINE5, P(F5, "x^2+x"))),))})
    for pair in cases:
        calls.clear()
        report = verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=pair["degree"])
        places = len(report.covered) + len(report.uncovered)
        assert 0 < len(calls) <= 3 * len(pair["witness"].pairs) * places


# prime and extension fields for the line, as (p, k), each with the
# inspection degrees up to 3 that keep q^d <= 121^2
LINE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (11, 2), (3, 3)]
LINE_PLACES = {}  # (p, k, d) -> genus._closed_places of the line, listed once


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vanishing_by_evaluation_matches_division(data):
    p, k = data.draw(st.sampled_from(LINE_FIELDS))
    field = make_extension(p, k)
    d = data.draw(st.sampled_from([d for d in (1, 2, 3) if field.q**d <= 121**2]))
    line = CurveSpec.polyline(field)
    if (p, k, d) not in LINE_PLACES:
        LINE_PLACES[p, k, d] = genus._closed_places(line, d)
    place = data.draw(st.sampled_from(LINE_PLACES[p, k, d]))
    element = st.sampled_from(list(field.elements()))
    h = RingElement(line, Poly(field, data.draw(st.lists(element, max_size=7))))
    if data.draw(st.booleans()):  # a root at the place, possibly repeated
        h = h * RingElement(line, place.prime ** data.draw(st.integers(1, 3)))
    assert genus._zero_test(h, place.x.field)(place.x.log, None) == (h.a % place.prime).is_zero()


# the line and cubics over F_5, F_9 and F_25, the singular cubic
# y^2 = x^3 + 2x + 3 over F_5 (EC) included; their places of degree <= 2
F25 = make_extension(5, 2)
ZERO_TEST_CURVES = {
    "line-F5": LINE5,
    "line-F9": CurveSpec.polyline(F9),
    "line-F25": CurveSpec.polyline(F25),
    "cubic-F5": EC11,
    "singular-F5": EC,
    "cubic-F9": CurveSpec.weierstrass(F9, [1, 1], [0, 1]),
    "cubic-F25": CurveSpec.weierstrass(F25, [1, 1], [0, 3]),
}
ZERO_TEST_PLACES = {}  # (name, d) -> genus._closed_places


@pytest.mark.parametrize("name", sorted(ZERO_TEST_CURVES))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_zero_tests_match_the_vanishing_oracle(name, data):
    # each part of a support, and the support's coverage rule, read on the
    # logs of a place's coordinates, against oracles._vanishes_at, which
    # divides by the prime on the line and evaluates on the cubic
    curve = ZERO_TEST_CURVES[name]
    field = curve.field
    element = st.sampled_from(tuple(field.elements()))

    def part():
        a = Poly(field, data.draw(st.lists(element, max_size=4)))
        if data.draw(st.booleans()):  # vanish above a rational x
            a = a * Poly(field, [data.draw(element), 1])
        b = Poly.zero(field) if curve.is_polyline else Poly(field, data.draw(st.lists(element, max_size=3)))
        return RingElement(curve, a, b)

    support = (part(), part(), part())
    for d in (1, 2):
        ext = make_extension(field.p, field.k * d)
        if (name, d) not in ZERO_TEST_PLACES:
            ZERO_TEST_PLACES[name, d] = genus._closed_places(curve, d)
        tests, reaches = [genus._zero_test(h, ext) for h in support], genus._reaches(support, ext)
        for place in ZERO_TEST_PLACES[name, d]:
            lx, ly = place.x.log, None if place.y is None else place.y.log
            far, den, low = [_vanishes_at(h, place) for h in support]
            assert [test(lx, ly) for test in tests] == [far, den, low]
            assert reaches(lx, ly) == (not far or den and not low)


def test_coverage_embeds_each_coefficient_once_per_place_field(monkeypatch):
    # the supports' coefficients are embedded once per place field above
    # F_q and never per place: on the line fixture the places go 5, 15, 55
    # as the degree goes 1, 2, 3, and finfield.embed runs 0, C, 2C times
    pair = load_bundled_pair("polyline_pair")
    verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=3)  # fields and tables built
    real, calls = finfield.embed, []
    for module in (finfield, funcfield, curvepoints, genus):
        if getattr(module, "embed", None) is real:
            monkeypatch.setattr(module, "embed", lambda a, target: calls.append(a) or real(a, target))
    counts, places = [], []
    for d in (1, 2, 3):
        calls.clear()
        report = verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=d)
        counts.append(len(calls))
        places.append(len(report.covered) + len(report.uncovered))
    assert places == [5, 15, 55]
    assert counts[1] > 0 and counts == [0, counts[1], 2 * counts[1]]


@pytest.mark.parametrize("p, k, d", [(3, 1, 1), (3, 1, 4), (5, 1, 3), (7, 1, 2), (11, 1, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2)])
def test_line_places_are_frobenius_orbits_named_by_their_primes(p, k, d):
    # a closed place of the line is one orbit of length d in F_{q^d}, a
    # root x of its prime with y = None; the primes come in the order of
    # the trial-division oracle, which shares no code with the orbit walk
    field = make_extension(p, k)
    places = genus._closed_places(CurveSpec.polyline(field), d)
    assert [place.prime for place in places] == list(monic_irreducibles_by_trial_division(field, d))
    for place in places:
        assert place.y is None and place.x.field.q == field.q**d
        orbit = frobenius_orbit_by_powering(field.q, place.x, place.y)
        assert len(orbit) == place.degree == d
        assert all(place.prime.evaluate(x).is_zero() for x, _ in orbit)


def test_curve_and_form_reprs_write_coefficients_as_text():
    # extension-field coefficients print as t-polynomials, as in to_text;
    # prime-field ones as before
    F25 = make_extension(5, 2)
    t = F25.gen()
    assert repr(CurveSpec.weierstrass(F25, t, 1)) == "CurveSpec(y^2=x^3+(t)*x+1/F25)"
    assert repr(FieldForm(F25, [[t, 1], [1, 2]])) == "FieldForm([[(t), 1], [1, 2]])"
    assert repr(CurveSpec.weierstrass(F5, 2, 3)) == "CurveSpec(y^2=x^3+2*x+3/F5)"
    assert repr(FieldForm(F5, [[1, 2], [2, 3]])) == "FieldForm([[1, 2], [2, 3]])"


@pytest.mark.parametrize("p, k, a, b", [(3, 1, 2, 1), (5, 1, 1, 1), (5, 1, 2, 3), (3, 2, (0, 1), (1, 1)), (7, 1, 0, 3)])
@pytest.mark.parametrize("d", [2, 3])
def test_closed_places_list_one_point_per_frobenius_orbit(p, k, a, b, d):
    field = make_extension(p, k)
    curve = CurveSpec.weierstrass(field, field.element(a), field.element(b))
    points = [pt for pt in enumerate_points(curve, d) if pt.degree == d]
    places = genus._closed_places(curve, d)
    orbits = [frobenius_orbit_by_powering(field.q, pt.x, pt.y) for pt in places]
    key = lambda xy: (xy[0].coeffs, xy[1].coeffs)  # noqa: E731
    # each place is the first point of its orbit, in enumeration order, and
    # the orbits are disjoint and cover every point of degree d
    assert [(pt.x, pt.y) for pt in places] == [min(orbit, key=key) for orbit in orbits]
    listed = {(place.x, place.y) for place in places}
    assert places == [pt for pt in points if (pt.x, pt.y) in listed]
    assert all(len(orbit) == d for orbit in orbits)
    assert sorted((xy for orbit in orbits for xy in orbit), key=key) == sorted(((pt.x, pt.y) for pt in points), key=key)


# sha256 of json.dumps([covered, uncovered], sort_keys=True) from the
# genus report of each bundled fixture at inspection degrees 1, 2 and 3
FIXTURE_COVERAGE = {
    "polyline_pair": [(5, 0, "f65f2f32736846ca"), (15, 0, "863c2317aaa3ae12"), (55, 0, "3102edc404a1f89e")],
    "singular_cubic_pair": [(5, 1, "402add7d3ffa9436"), (14, 1, "c6b76fa6e4829a59"), (54, 1, "313ed51f442a0456")],
}


@pytest.mark.parametrize("name", sorted(FIXTURE_COVERAGE))
def test_fixture_coverage_lists_are_pinned(name):
    pair = load_bundled_pair(name)
    for degree, (covered, uncovered, digest) in enumerate(FIXTURE_COVERAGE[name], start=1):
        report = genus_report_to_json(verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=degree))
        text = json.dumps([report["covered"], report["uncovered"]], sort_keys=True)
        assert (len(report["covered"]), len(report["uncovered"])) == (covered, uncovered)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_malformed_witness_names_the_first_failing_entry():
    # both off-diagonal entries have a pole off the locus x + 1; the
    # message names the first in row order, by row and column from 1
    q = RingMatrix(LINE5, [
        [1, RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x^2+x"))],
        [RingFraction(LINE5, RingElement.one(LINE5), P(F5, "x+2")), 1],
    ])
    with pytest.raises(MalformedWitnessError) as error:
        GenusWitness(GramMatrix.identity(LINE5, 2), ((q, RingElement(LINE5, P(F5, "x+1"))),))
    assert str(error.value) == "entry (1, 2) has a pole off the declared locus"


def test_genus_verification_runs_no_fraction_congruence(monkeypatch):
    # the identity and det Q are taken over the ring (P = delta Q), so
    # neither the fraction-field congruence nor RingMatrix.det runs
    calls = []
    for owner, name in ((curvering, "congruence"), (RingMatrix, "det")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counting)
        for module in [m for n, m in sys.modules.items() if n.startswith("hasseforms.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    for fixture in ("polyline_pair", "singular_cubic_pair"):
        pair = load_bundled_pair(fixture)
        verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=1)
    assert calls == []


@pytest.mark.parametrize("fixture", ["polyline_pair", "singular_cubic_pair"])
def test_fixture_identities_hold_over_the_ring(fixture):
    pair = load_bundled_pair(fixture)
    report = verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=1)
    assert report.identity_ok == (True, True)
    for q, _ in pair["witness"].pairs:
        assert witness_identity(q, pair["F"], pair["G"]) == (True, q.det())


def test_witness_identity_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        witness_identity(RingMatrix(LINE5, [[1]]), GramMatrix.identity(LINE5, 2), GramMatrix.identity(LINE5, 2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        witness_identity(RingMatrix(LINE5, diagonal_rows([1, 1])), GramMatrix.identity(LINE5, 2), GramMatrix.identity(LINE5, 3))


# denominators over F_5 sharing the factor x + 1, so that their lcm is a
# proper divisor of their product
SHARED_DENOMINATORS = ["1", "x+1", "x^2+2*x+1", "x^2+x", "x+2", "x^2+3*x+2"]


@st.composite
def witness_identity_cases(draw):
    """(Q, F, G, perturbed): F = D^2 F0 with D the product of Q's distinct
    denominators (``product``), so Q^t F Q is integral; G is that target, or it with
    one symmetric pair of entries moved by a nonzero constant."""
    curve = draw(st.sampled_from([LINE5, CurveSpec.weierstrass(F5, 1, 1), EC]))
    n = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, 4), max_size=3)

    def elem():
        b = () if curve.is_polyline else draw(coeffs)[:2]
        return RingElement(curve, Poly(F5, draw(coeffs)), Poly(F5, b))

    dens = [[draw(st.sampled_from(SHARED_DENOMINATORS)) for _ in range(n)] for _ in range(n)]
    q = RingMatrix(curve, [[RingFraction(curve, elem(), P(F5, d)) for d in row] for row in dens])
    product = RingElement.one(curve)
    for text in {text for row in dens for text in row}:
        product = product * P(F5, text)
    f0 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            f0[i][j] = f0[j][i] = elem()
    try:
        f = GramMatrix.from_rows(curve, [[product * product * e for e in row] for row in f0])
        rows = [list(row) for row in congruence(q, f.matrix).rows]
        perturbed = draw(st.booleans())
        if perturbed:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = rows[j][i] = rows[i][j] + draw(st.integers(1, 4))
        g = GramMatrix.from_rows(curve, rows)
    except ValueError:  # a degenerate F0 or Q
        assume(False)
    return q, f, g, perturbed


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(witness_identity_cases())
def test_witness_identity_matches_fraction_field(case):
    q, f, g, perturbed = case
    ok, det_q = witness_identity(q, f, g)
    assert ok is (congruence(q, f.matrix) == g.matrix) is (not perturbed)
    assert det_q == q.det()


def test_witness_identity_failure_reported():
    line, f, g, pairs = remark_fixture(F5)
    wrong = RingMatrix(line, diagonal_rows([1, 1]))
    witness = GenusWitness(g, ((wrong, RingElement.one(line)),))
    report = verify_genus_witness(f, g, witness, degree=1)
    assert report.identity_ok == (False,)
    assert report.verdict == "GapFound"


# -- isometry search ------------------------------------------------------------------------


def test_isom_search_identity_control():
    for curve in (LINE5, EC):
        f = GramMatrix.identity(curve, 2)
        found = isom_search(f, f, deg_x=1, deg_y=1)
        assert found == RingMatrix(curve, diagonal_rows([1, 1]))


def test_isom_search_negative_ec_within_stated_bounds():
    f = GramMatrix.identity(EC, 2)
    g = ec_g_matrix()
    assert isom_search(f, g, deg_x=2, deg_y=1) is None


def test_isom_search_negative_polyline():
    line, f, g, _ = remark_fixture(F5)
    assert isom_search(f, g, deg_x=2) is None


def test_isom_search_positive_nontrivial():
    # G = Q0^t Q0 for an integral unit-determinant Q0; the search must
    # produce some witness, and the witness must be independently valid
    q0 = RingMatrix(LINE5, [[1, P(F5, "x")], [0, 1]])
    g = GramMatrix(LINE5, congruence(q0, RingMatrix(LINE5, diagonal_rows([1, 1]))).rows)
    f = GramMatrix.identity(LINE5, 2)
    found = isom_search(f, g, deg_x=1)
    assert found is not None
    assert congruence(found, f.matrix) == g.matrix
    det = found.det()
    assert det.is_integral() and det.as_ring_element().is_unit()


def test_isom_search_positive_on_curve_ring():
    q0 = RingMatrix(EC, [[1, P(F5, "x")], [0, 1]])
    g = GramMatrix(EC, congruence(q0, RingMatrix(EC, diagonal_rows([1, 1]))).rows)
    f = GramMatrix.identity(EC, 2)
    found = isom_search(f, g, deg_x=1, deg_y=0)
    assert found is not None
    assert congruence(found, f.matrix) == g.matrix


def test_integral_isometry_exists_beyond_search_bounds():
    # at deg_x = 3 the two forms of the singular-cubic pair actually are
    # congruent over the coordinate ring; the bounded negative above is
    # therefore evidence about the stated bounds only, which is exactly
    # how reports must phrase it
    b = P(F5, "2*x^3+4*x+2")
    d = P(F5, "4*x^3+3*x")
    q = RingMatrix(EC, [[1, b], [2, d]])
    assert congruence(q, RingMatrix(EC, diagonal_rows([1, 1]))) == ec_g_matrix().matrix
    det = q.det()
    assert det.as_ring_element().is_unit()


def test_isom_search_rank_one():
    f = GramMatrix.diagonal(LINE5, [1])
    g = GramMatrix.diagonal(LINE5, [4])
    found = isom_search(f, g, deg_x=0)
    assert found is not None
    assert congruence(found, f.matrix) == g.matrix
    assert isom_search(f, GramMatrix.diagonal(LINE5, [2]), deg_x=1) is None


def test_isom_search_budget_cap():
    f = GramMatrix.identity(EC, 2)
    with pytest.raises(BudgetExceededError):
        isom_search(f, f, deg_x=2, deg_y=1, budget=100)


def test_isom_search_budget_checked_before_pool(monkeypatch):
    def no_call(*args):
        raise AssertionError("the search built its points or its pool")

    monkeypatch.setattr(search, "_pool_vectors", no_call)
    monkeypatch.setattr(search, "_evaluation_points", no_call)
    f = GramMatrix.identity(LINE5, 2)
    with pytest.raises(BudgetExceededError):
        isom_search(f, f, deg_x=4, budget=1)
    with pytest.raises(BudgetExceededError):
        isom_search(f, f, deg_x=10**9, budget=10**8)
    # 5^5 entries fit the budget, but the scans charge 3125 + 3125
    with pytest.raises(BudgetExceededError, match="^evaluation count 6250 exceeds budget 5000$"):
        isom_search(f, f, deg_x=4, budget=5000)
    g = GramMatrix.identity(EC, 2)
    with pytest.raises(BudgetExceededError):
        isom_search(g, g, deg_x=2, deg_y=1, budget=5**3 * 5**2 - 1)
    # bounds that admit only the zero entry answer None once the scans are
    # charged: no such Q has a unit determinant
    hyperbolic = GramMatrix.from_rows(LINE5, [[0, 1], [1, 0]])
    assert isom_search(f, f, deg_x=-1) is None
    assert isom_search(f, hyperbolic, deg_x=-1, budget=2) is None
    assert isom_search(g, g, deg_x=-1, deg_y=-1) is None
    with pytest.raises(BudgetExceededError, match="^evaluation count 2 exceeds budget 1$"):
        isom_search(f, f, deg_x=-1, budget=1)


def test_isom_search_refuses_a_pool_too_large_to_hold(monkeypatch, capsys):
    # over F_3 at deg_x = 13 the pool would hold 3^14 entries at 27 points,
    # 129 M values at about 17 bytes each; the search ran 46 s and exited 1
    from hasseforms.cli import run

    def no_call(*args):
        raise AssertionError("the search went past its refusal")

    monkeypatch.setattr(search, "_pool_vectors", no_call)
    monkeypatch.setattr(search, "_evaluation_points", no_call)
    line = CurveSpec.polyline(F3)
    f, g = GramMatrix.diagonal(line, [1]), GramMatrix.diagonal(line, [2])
    with pytest.raises(ValueError, match="^entry pool of 4782969 entries at 27 points exceeds 50000000 values$"):
        isom_search(f, g, deg_x=13)
    pair = {"schema": 1, "curve": {"type": "polyline", "field": {"p": 3, "k": 1}}, "F": [[1]], "G": [[2]]}
    assert run(["isom-search", "--json", json.dumps(pair), "--degree-bound", "13"]) == 2
    assert json.loads(capsys.readouterr().err)["error"].startswith("entry pool of 4782969 entries")
    # the cap counts entries times points: 3^2 entries at 3 points at deg_x = 1
    monkeypatch.undo()
    monkeypatch.setattr(search, "MAX_POOL_VALUES", 27)
    assert isom_search(f, f, deg_x=1) is not None
    monkeypatch.setattr(search, "MAX_POOL_VALUES", 26)
    with pytest.raises(ValueError, match="^entry pool of 9 entries at 3 points exceeds 26 values$"):
        isom_search(f, f, deg_x=1)


@pytest.mark.parametrize(
    "curve, deg_x, deg_y",
    [
        (LINE5, -1, -1),
        (LINE5, 0, -1),
        (LINE5, 2, -1),
        (CurveSpec.polyline(make_extension(3, 2)), 1, -1),
        (EC, 0, -1),
        (EC, 1, 0),
        (EC, -1, 1),
        (EC, 2, 1),
        (CurveSpec.weierstrass(make_extension(3, 2), 1, 1), 1, 0),
    ],
)
def test_pool_entries_follow_reference_pool(curve, deg_x, deg_y):
    reference = entry_pool(curve, deg_x, deg_y)
    coeffs = sorted(curve.field.elements(), key=lambda c: c.coeffs)
    built = [search._pool_entry(curve, deg_x, deg_y, coeffs, k) for k in range(len(reference))]
    assert built == reference


def test_isom_search_rejects_degree_bound_below_minus_one():
    f = GramMatrix.identity(LINE5, 1)
    with pytest.raises(ValueError, match="deg_x must be >= -1"):
        isom_search(f, f, deg_x=-2)


def test_isom_search_pool_at_budget_runs():
    f = GramMatrix.diagonal(LINE5, [1])
    found = isom_search(f, GramMatrix.diagonal(LINE5, [4]), deg_x=0, budget=5)
    assert found is not None


def test_isom_search_first_witness_order():
    # columns are taken left to right, each in the order of its tuple of
    # entry positions (nonzero entries 1..4 before 0), so the first
    # witness for 1_3 over F_5 is not the identity
    f = GramMatrix.identity(LINE5, 3)
    found = isom_search(f, f, deg_x=0)
    assert found == RingMatrix(LINE5, [[1, 1, 2], [1, 2, 1], [2, 1, 1]])


def _non_diagonal_cases():
    cases = []
    for curve in (CurveSpec.polyline(F3), CurveSpec.weierstrass(F3, 1, 1)):
        f = GramMatrix.from_rows(curve, [[0, 1], [1, 0]])
        q0 = RingMatrix(curve, [[1, P(F3, "x")], [0, 1]])
        cases.append((f, GramMatrix(curve, congruence(q0, f.matrix).rows), 1, 0))
    f3 = GramMatrix.from_rows(CurveSpec.polyline(F3), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    cases.append((f3, f3, 0, -1))
    cases.append((f3, f3, 1, -1))
    return cases


@pytest.mark.parametrize(
    "f, g, deg_x, deg_y", _non_diagonal_cases(), ids=["line", "cubic", "rank3-deg0", "rank3-deg1"]
)
def test_isom_search_non_diagonal_matches_brute_force(f, g, deg_x, deg_y):
    expected = first_isometry(f, g, deg_x, deg_y)
    assert expected is not None
    assert isom_search(f, g, deg_x=deg_x, deg_y=deg_y) == RingMatrix(f.curve, expected)


def _diagonal_cases():
    # distinct diagonal entries of F, and distinct diagonal targets of G
    cases = []
    for curve, deg_y in ((CurveSpec.polyline(F5), -1), (CurveSpec.weierstrass(F3, 1, 1), 0)):
        f = GramMatrix.diagonal(curve, [1, 2])
        q0 = RingMatrix(curve, [[1, P(curve.field, "x")], [0, 1]])
        cases.append((f, GramMatrix(curve, congruence(q0, f.matrix).rows), 1, deg_y))
    f3 = GramMatrix.diagonal(CurveSpec.polyline(F3), [1, 2, 2])
    cases.append((f3, f3, 0, -1))
    return cases


@pytest.mark.parametrize("f, g, deg_x, deg_y", _diagonal_cases(), ids=["line", "cubic", "rank3"])
def test_isom_search_diagonal_matches_brute_force(f, g, deg_x, deg_y):
    expected = first_isometry(f, g, deg_x, deg_y)
    assert expected is not None
    assert isom_search(f, g, deg_x=deg_x, deg_y=deg_y) == RingMatrix(f.curve, expected)


def test_inspection_degree_capped_before_any_work():
    line, f, g, pairs = remark_fixture(F5)
    witness = GenusWitness(g, pairs)
    # mismatched arguments are refused before the degree is read
    for args, message in (
        ((GramMatrix.identity(EC, 2), g, witness), "forms live over different curves"),
        ((GramMatrix.identity(line, 3), g, witness), "forms have different ranks"),
        ((f, g, GenusWitness(f, pairs)), "witness targets a different form"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_genus_witness(*args, degree=1)
    with pytest.raises(ValueError, match="inspection degree"):
        verify_genus_witness(f, g, witness, degree=6)  # 5^6 = 15625 > 121^2
    with pytest.raises(ValueError, match="inspection degree"):
        verify_genus_witness(f, g, witness, degree=10**9)
    assert verify_genus_witness(f, g, witness, degree=5).degree == 5  # 5^5 = 3125


def test_cubic_inspection_degree_capped_before_any_work(monkeypatch):
    # the cubic lists each closed point once, so it shares the line's
    # bound q^degree <= 121^2: over F_5 degree 6 (15625) is refused
    # before the identity check or points, and degree 5 (3125) runs
    pair = load_bundled_pair("singular_cubic_pair")

    def no_work(*args):
        raise AssertionError("verification started")

    monkeypatch.setattr(genus, "witness_identity", no_work)
    monkeypatch.setattr(genus, "enumerate_points", no_work)
    for degree in (6, 10**9):
        with pytest.raises(ValueError, match="inspection degree"):
            verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=degree)
    monkeypatch.undo()
    assert verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=5).degree == 5


def test_no_ring_product_before_first_determinant(monkeypatch):
    # the checks run on values at points; the ring is only entered for
    # the determinant of a full candidate
    curve = CurveSpec.weierstrass(F5, 1, 1)
    hyperbolic = GramMatrix.from_rows(curve, [[0, 1], [1, 0]])
    fixture = load_bundled_pair("singular_cubic_pair")
    events = []
    ring_mul, matrix_det = RingElement.__mul__, RingMatrix.det

    def mul(self, other):
        events.append("mul")
        return ring_mul(self, other)

    def det(self):
        events.append("det")
        return matrix_det(self)

    monkeypatch.setattr(RingElement, "__mul__", mul)
    monkeypatch.setattr(RingMatrix, "det", det)
    assert isom_search(hyperbolic, hyperbolic, deg_x=0, deg_y=0) == RingMatrix(curve, [[1, 0], [0, 1]])
    assert events[0] == "det"
    events.clear()
    assert isom_search(fixture["F"], fixture["G"], deg_x=1, deg_y=1) is None
    assert events == []  # no full candidate, so no ring arithmetic at all


def _pinned_search(name, budget=None):
    hyperbolic = GramMatrix.from_rows(CurveSpec.weierstrass(F5, 1, 1), [[0, 1], [1, 0]])
    identity = GramMatrix.identity(LINE5, 3)
    if name == "cubic fixture":
        pair = load_bundled_pair("singular_cubic_pair")
        return isom_search(pair["F"], pair["G"], deg_x=2, deg_y=1, budget=budget)
    if name == "line fixture":
        pair = load_bundled_pair("polyline_pair")
        return isom_search(pair["F"], pair["G"], deg_x=2, budget=budget)
    if name == "identity rank 3":
        return isom_search(identity, identity, deg_x=0, budget=budget)
    return isom_search(hyperbolic, hyperbolic, deg_x=0, deg_y=0, budget=budget)


def _run_lengths(ticks):
    encoded = []
    for amount in ticks:
        if encoded and encoded[-1][0] == amount:
            encoded[-1] = (amount, encoded[-1][1] + 1)
        else:
            encoded.append((amount, 1))
    return encoded


# the budget charges as run-length encoded (amount, repeats): they decide
# where a search that runs out of budget stops, and the count it reports.
# After the scans, a column charges each run of candidates that fail at
# the first point in one step, with the next survivor's first check.  The
# cubic fixture's 11 003 charges (in 4 876 runs, starting (3125, 4),
# (20, 8), (4, 1), (16, 1)) are pinned by the SHA-256 of their repr.
PINNED_TICKS = {
    "cubic fixture": "b738c1e66eba4d32c4caba28fb77875874cb9bfa4b1975ed5421675cff693244",
    "line fixture": [(125, 4), (2, 2)],
    "identity rank 3": [(5, 1), (25, 1), (3, 2), (1, 1), (7, 1), (1, 1)],
    "hyperbolic plane": [
        (625, 1), (25, 1), (4, 1), (9, 1), (4, 2), (3, 1), (27, 1), (4, 3), (9, 1), (1, 1),
        (26, 1), (4, 2), (9, 1), (4, 1), (2, 1), (28, 1), (4, 4), (5, 1), (25, 1), (4, 1),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_TICKS))
def test_isom_search_tick_sequence_pinned(name):
    with recorded_ticks() as ticks:
        _pinned_search(name)
    encoded = _run_lengths(ticks)
    pinned = PINNED_TICKS[name]
    if isinstance(pinned, str):
        encoded = hashlib.sha256(repr(encoded).encode()).hexdigest()
    assert encoded == pinned


# the total charge of each search, which bulk charging must not change:
# these were measured when every check was charged on its own
PINNED_TICK_TOTALS = {"cubic fixture": 137480, "hyperbolic plane": 850, "identity rank 3": 45, "line fixture": 504}


@pytest.mark.parametrize("name", sorted(PINNED_TICK_TOTALS))
def test_isom_search_tick_totals_unchanged(name):
    with recorded_ticks() as ticks:
        _pinned_search(name)
    assert sum(ticks) == PINNED_TICK_TOTALS[name]


# the budget counts only what the search charges: a budget equal to a
# search's charge total returns its result, and one less is refused on
# the evaluation count
@pytest.mark.parametrize("name", sorted(PINNED_TICK_TOTALS))
def test_isom_search_budget_edge(name):
    total = PINNED_TICK_TOTALS[name]
    assert _pinned_search(name, budget=total) == _pinned_search(name)
    with pytest.raises(BudgetExceededError, match=f"^evaluation count [0-9]+ exceeds budget {total - 1}$"):
        _pinned_search(name, budget=total - 1)


SEARCH_CURVES = [
    CurveSpec.polyline(F3),
    CurveSpec.polyline(F5),
    CurveSpec.weierstrass(F3, 1, 1),
    CurveSpec.weierstrass(F5, 1, 1),
]


@st.composite
def _search_pairs(draw):
    """(F, G, deg_x, deg_y) with constant F, diagonal or not, of rank 2
    or 3, and G = Q^t F' Q for an upper unipotent Q within the bounds:
    F' = F plants a positive, F' = diag(c det F, 1, ...) with c a
    non-square a negative (det G / det F = c)."""
    curve = draw(st.sampled_from(SEARCH_CURVES))
    field = curve.field
    n = draw(st.sampled_from([2, 3]))
    deg_x = draw(st.sampled_from([0, 1]))
    deg_y = -1 if curve.is_polyline else draw(st.sampled_from([-1, 0]))
    pool = entry_pool(curve, deg_x, deg_y)
    assume(len(pool) ** n <= 729)
    units = [c for c in field.elements() if not c.is_zero()]
    if draw(st.booleans()):
        rows = [[draw(st.sampled_from(units)) if r == s else 0 for s in range(n)] for r in range(n)]
    else:
        rows = [[0] * n for _ in range(n)]
        for r in range(n):
            for s in range(r, n):
                rows[r][s] = rows[s][r] = draw(st.sampled_from(list(field.elements())))
    det = FieldForm(field, rows).det()
    assume(not det.is_zero())
    target = rows
    if draw(st.booleans()):
        c = draw(st.sampled_from([u for u in units if not is_square(u)]))
        target = [[c * det if r == s == 0 else int(r == s) for s in range(n)] for r in range(n)]
    q = RingMatrix(curve, [
        [1 if r == s else draw(st.sampled_from(pool)) if r < s else 0 for s in range(n)] for r in range(n)
    ])
    g = GramMatrix(curve, congruence(q, RingMatrix(curve, target)).rows)
    return GramMatrix.from_rows(curve, rows), g, deg_x, deg_y


@settings(max_examples=25, deadline=None)
@given(_search_pairs())
def test_isom_search_matches_brute_force_first_witness(pair):
    f, g, deg_x, deg_y = pair
    expected = first_isometry(f, g, deg_x, deg_y)
    found = isom_search(f, g, deg_x=deg_x, deg_y=deg_y)
    assert found == (None if expected is None else RingMatrix(f.curve, expected))


SEARCH_PEAK_PROBE = """
import resource, sys
import hasseforms
if sys.argv[1] == "search":
    from hasseforms.curvering import CurveSpec
    from hasseforms.finfield import make_extension
    from hasseforms.forms import GramMatrix, isom_search
    from hasseforms.funcfield import Poly
    F3 = make_extension(3, 1)
    f = GramMatrix.diagonal(CurveSpec.polyline(F3), [Poly.from_text(F3, "x^256+1")])
    assert isom_search(f, f, deg_x=8) is not None
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_isom_search_peak_memory_pinned():
    # rank 1 over F_3 at deg_x = 8: a pool of 3^9 = 19 683 entries at 273
    # points in F_729.  Its peak RSS above a bare import was 64 MB when the
    # pool was one tuple per entry; the per-point lists must not exceed it
    # by more than 10%.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def peak_kb(mode):
        proc = subprocess.run(
            [sys.executable, "-c", SEARCH_PEAK_PROBE, mode], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert peak_kb("search") - peak_kb("import") <= 1.1 * 64 * 1024


def _bounded_elements(curve, bound):
    """Every ring element with deg N(h) <= bound."""
    field = curve.field
    if curve.is_polyline:
        return [RingElement(curve, a) for a in polys_up_to(field, bound)]
    b_polys = list(polys_up_to(field, (bound - 3) // 2)) if bound >= 3 else [Poly.zero(field)]
    return [RingElement(curve, a, b) for a in polys_up_to(field, bound // 2) for b in b_polys]


@pytest.mark.parametrize(
    "curve,bound",
    [
        (CurveSpec.polyline(F3), 4),  # 5 points: F_3 has 3, so F_9
        (LINE5, 4),
        (CurveSpec.weierstrass(F3, 2, 1), 7),  # 8 points with distinct x
        (EC, 5),  # the singular cubic of the fixture
    ],
)
def test_evaluation_points_separate_bounded_elements(curve, bound):
    points = search._evaluation_points(curve, bound + 1)
    assert len({x0 for x0, _ in points}) == bound + 1
    ext = points[0][0].field
    for x0, y0 in points:
        if not curve.is_polyline:
            assert y0 * y0 == x0**3 + embed(curve.a, ext) * x0 + embed(curve.b, ext)
    elements = _bounded_elements(curve, bound)
    assert max(search._pole_order(h) for h in elements if not h.is_zero()) == bound
    for h in elements:
        values = [h.evaluate(x0, y0) for x0, y0 in points]
        assert any(not v.is_zero() for v in values) == (not h.is_zero())


SMOOTH11 = CurveSpec.weierstrass(make_extension(11, 1), 1, 1)


def _first_point_per_x(curve, k):
    """(x, y) for the first point of ``enumerate_points(curve, k)`` above
    each x, in its order, with y = 0 on the line: the rule the search's
    evaluation points followed before they were read off the root scan."""
    first = {}
    for point in enumerate_points(curve, k):
        first.setdefault(point.x, point.x.field.zero() if point.y is None else point.y)
    return list(first.items())


@pytest.mark.parametrize(
    "curve,count,k",
    [
        (CurveSpec.polyline(F3), 3, 1),
        (CurveSpec.polyline(F3), 4, 2),
        (CurveSpec.polyline(F3), 10, 3),
        (EC, 4, 1),  # x = 1, 2, 3, 4 carry points over F_5
        (EC, 13, 2),
        (EC, 14, 3),
        (SMOOTH11, 7, 1),
        (SMOOTH11, 8, 2),
        (SMOOTH11, 150, 3),
    ],
)
def test_evaluation_points_are_the_first_point_per_x(curve, count, k):
    # F_{q^k} is the smallest extension with count x-values carrying a point
    assert len(_first_point_per_x(curve, k)) >= count
    if k > 1:
        assert len(_first_point_per_x(curve, k - 1)) < count
    assert search._evaluation_points(curve, count) == _first_point_per_x(curve, k)[:count]


def test_isom_search_exact_where_one_point_fewer_matches():
    # F = [1] and deg_x = 1 give D = 2, so the points are x = 0, 1, 2.
    # G = 1 + x(x - 1) agrees with 1^2 at x = 0 and x = 1, so two points
    # would accept c = 1; but no linear c has c^2 = x^2 - x + 1 over F_5
    f = GramMatrix.diagonal(LINE5, [1])
    g = GramMatrix.diagonal(LINE5, [P(F5, "x^2-x+1")])
    assert [x0 for x0, _ in search._evaluation_points(LINE5, 3)] == [0, 1, 2]
    assert isom_search(f, g, deg_x=1) is None
    assert first_isometry(f, g, 1) is None


def test_isom_search_evaluation_field_above_base_cap():
    # a degree-14 entry of F over F_13 at deg_x = 0 needs 15 points with
    # distinct x: F_169, beyond the base-field cap of 121
    field = make_extension(13, 1)
    line = CurveSpec.polyline(field)
    f = GramMatrix.diagonal(line, [P(field, "x^14+1"), 1])
    assert search._reach(line, f.rows, 0, -1) == 14
    assert search._evaluation_points(line, 15)[0][0].field.q == 169
    q0 = RingMatrix(line, [[1, 2], [0, 1]])
    g = GramMatrix(line, congruence(q0, f.matrix).rows)
    found = isom_search(f, g, deg_x=0)
    assert found == RingMatrix(line, first_isometry(f, g, 0))
    assert congruence(found, f.matrix) == g.matrix
    # a target entry of larger pole order than any u^t F v is never met
    far = GramMatrix.diagonal(line, [P(field, "x^16+1"), 1])
    assert isom_search(f, far, deg_x=0) is None


def test_isom_search_refuses_when_no_field_has_enough_points(monkeypatch):
    # D = 2 * 200 needs 401 x-values; F_729, the largest field over F_27
    # within the cap, has at most (729 + 2 * 27 + 3) / 2 < 401 with a point
    # on the cubic (Hasse bound)
    field = make_extension(3, 3)
    curve = CurveSpec.weierstrass(field, 1, 1)
    f = GramMatrix.diagonal(curve, [P(field, "x^200+1"), 1])

    def no_pool(*args):
        raise AssertionError("the entry pool's vectors were built")

    monkeypatch.setattr(search, "_pool_vectors", no_pool)
    with pytest.raises(ValueError, match="points with distinct x"):
        isom_search(f, f, deg_x=0)


def test_isom_search_rejects_large_rank():
    f = GramMatrix.identity(LINE5, 4)
    with pytest.raises(ValueError):
        isom_search(f, f, deg_x=1)
    one = GramMatrix.identity(LINE5, 1)
    with pytest.raises(ValueError, match="^forms live over different curves$"):
        isom_search(one, GramMatrix.identity(EC, 1), deg_x=1)
    with pytest.raises(ValueError, match="^forms have different ranks$"):
        isom_search(one, GramMatrix.identity(LINE5, 2), deg_x=1)
