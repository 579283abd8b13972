import copy
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforms import curvering, serialize
from hasseforms.curvering import (
    CurveSpec,
    RingElement,
    RingFraction,
    RingMatrix,
    congruence,
    congruence_rows,
    det,
    diagonal_rows,
    matmul,
)
from hasseforms.finfield import FieldElement, make_extension
from hasseforms.forms import GramMatrix
from hasseforms.funcfield import Poly
from hasseforms.local import FieldForm

from oracles import dense_product, leibniz_det, poly_product_by_vectors

F5 = make_extension(5, 1)
EC = CurveSpec.weierstrass(F5, 2, 3)  # y^2 = x^3 + 2x + 3, singular cubic
LINE = CurveSpec.polyline(F5)


def P(text, field=F5):
    return Poly.from_text(field, text)


def relem(curve, a_text, b_text="0"):
    return RingElement(curve, P(a_text, curve.field), P(b_text, curve.field))


def rand_relem(rng, curve, max_deg=2):
    a = Poly(curve.field, [rng.randrange(5) for _ in range(max_deg + 1)])
    b = Poly(curve.field, [rng.randrange(5) for _ in range(max_deg + 1)])
    return RingElement(curve, a, b)


# -- curve specs ----------------------------------------------------------


def test_singular_cubic_flagged_but_accepted():
    assert not EC.is_smooth
    assert EC.discriminant.is_zero()
    assert EC.cubic() == P("x^3+2*x+3")


def test_smooth_cubic():
    c = CurveSpec.weierstrass(F5, 1, 1)
    assert c.is_smooth
    assert c.discriminant == F5.element(4)  # -4 - 27 = -31 = 4 mod 5


def test_polyline_is_smooth():
    assert LINE.is_smooth


def test_one_curve_object_per_kind_field_and_coefficients():
    F9 = make_extension(3, 2)
    assert CurveSpec.weierstrass(F5, 1, 1) is CurveSpec("weierstrass", F5, [1], F5.element(1))
    assert CurveSpec.polyline(F5) is CurveSpec("polyline", F5) is LINE
    assert CurveSpec.weierstrass(F5, 7, -2) is EC and CurveSpec.polyline(F9) is not LINE
    assert CurveSpec.weierstrass(F5, 1, 2) is not CurveSpec.weierstrass(F5, 2, 1)
    refused = [
        (("conic", F5), "unknown curve kind 'conic'"),
        (("weierstrass", F5, 1), "weierstrass curves need coefficients a and b"),
        (("weierstrass", F5, 1, F9.one()), "element belongs to a different field"),
        (("polyline", F5, 1, 2), "the affine line takes no coefficients"),  # a second line over F5
        (("polyline", F5, None, 2), "the affine line takes no coefficients"),
    ]
    for args, message in refused:  # a refused curve leaves nothing cached
        before = dict(curvering._curves)
        with pytest.raises(ValueError, match=message):
            CurveSpec(*args)
        assert curvering._curves == before


# -- ring arithmetic ------------------------------------------------------


def test_y_squared_rewrites_to_cubic():
    y = RingElement.y(EC)
    yy = y * y
    assert yy.b.is_zero()
    assert yy.a == P("x^3+2*x+3")


def test_norm_of_y():
    # N(0 + 1*y) = -(x^3 + 2x + 3)
    assert RingElement.y(EC).norm() == -P("x^3+2*x+3")


def test_norm_of_constant():
    c = RingElement.constant(EC, 3)
    assert c.norm() == P("9")


def test_norm_multiplicative_random():
    rng = random.Random(5)
    for _ in range(40):
        u = rand_relem(rng, EC)
        v = rand_relem(rng, EC)
        assert (u * v).norm() == u.norm() * v.norm()


def test_conjugation_properties():
    rng = random.Random(6)
    for _ in range(20):
        u = rand_relem(rng, EC)
        assert u.conj().conj() == u
        assert u * u.conj() == RingElement(EC, u.norm())


def test_is_unit_examples():
    assert relem(EC, "3").is_unit()
    assert not relem(EC, "x").is_unit()
    assert not RingElement.y(EC).is_unit()
    assert not RingElement.zero(EC).is_unit()


def test_is_unit_exhaustive_small_degree():
    # all three characterizations (nonzero constant, constant norm, the
    # assert inside is_unit) agree over every element with deg <= 1 parts
    field = EC.field
    count = 0
    for a0 in range(5):
        for a1 in range(5):
            for b0 in range(5):
                for b1 in range(5):
                    u = RingElement(EC, Poly(field, (a0, a1)), Poly(field, (b0, b1)))
                    unit = u.is_unit()
                    assert unit == (a1 == 0 and b0 == 0 and b1 == 0 and a0 != 0)
                    count += unit
    assert count == 4


def test_polyline_rejects_y():
    with pytest.raises(ValueError, match="the affine line has no y coordinate"):
        RingElement.y(LINE)
    with pytest.raises(ValueError):
        relem(LINE, "0", "1")
    with pytest.raises(ValueError, match="the affine line has no discriminant"):
        LINE.discriminant
    with pytest.raises(ValueError, match="the affine line has no cubic"):
        LINE.cubic()


def test_mismatched_curves_rejected():
    other = CurveSpec.weierstrass(F5, 1, 1)
    with pytest.raises(ValueError):
        relem(EC, "x") + relem(other, "x")
    F9 = make_extension(3, 2)
    for a, b in ((P("x", F9), None), (P("x"), P("1", F9))):
        with pytest.raises(ValueError, match="polynomial parts must live over the curve's field"):
            RingElement(EC, a, b)
    with pytest.raises(ValueError, match="mismatched curves"):
        congruence(RingMatrix(EC, diagonal_rows([1, 1])), RingMatrix(other, diagonal_rows([1, 1])))
    for num, den in ((relem(other, "x"), None), (relem(EC, "x"), P("1", F9))):
        with pytest.raises(ValueError, match="^mismatched curves$"):
            RingFraction(EC, num, den)


def test_equal_matrices_and_field_forms_hash_equal():
    x = relem(EC, "x")
    for a, b in (
        (RingMatrix(EC, [[1, x], [x, 2]]), RingMatrix(EC, [[1, relem(EC, "x")], [relem(EC, "x"), 2]])),
        (FieldForm(F5, [[1, 2], [2, 1]]), FieldForm(F5, [[1, 2], [2, 1]])),
    ):
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_canonical_form_idempotent():
    u = relem(EC, "x^2+1", "3")
    again = RingElement(EC, u.a, u.b)
    assert again == u
    assert (u + RingElement.zero(EC)) == u


def test_evaluate_ring_element():
    u = relem(EC, "x^2", "2")  # x^2 + 2y
    assert u.evaluate(F5.element(1), F5.element(1)) == F5.element(3)
    with pytest.raises(ValueError, match="evaluation on a curve needs a y coordinate"):
        u.evaluate(F5.element(1))
    for v in (u, relem(LINE, "x")):
        with pytest.raises(ValueError, match="ring element is not constant"):
            v.constant_value()


# -- fractions -------------------------------------------------------------


def test_one_over_y_rationalizes():
    inv_y = RingFraction.make(RingElement.one(EC), RingElement.y(EC))
    assert inv_y.num == RingElement.y(EC)
    assert inv_y.den == P("x^3+2*x+3")


def test_fraction_cancellation():
    inv_y = RingFraction.make(RingElement.one(EC), RingElement.y(EC))
    two_y = RingFraction.from_ring(relem(EC, "0", "2"))
    prod = inv_y * two_y
    assert prod.is_integral()
    assert prod.as_ring_element() == RingElement.constant(EC, 2)


def test_fraction_field_axioms_random():
    rng = random.Random(9)
    for _ in range(25):
        u = RingFraction.make(rand_relem(rng, EC, 1), P("x+1"))
        v = RingFraction.make(rand_relem(rng, EC, 1), P("x+3"))
        if v.is_zero():
            continue
        assert (u / v) * v == u
        assert u - u == RingFraction.from_ring(RingElement.zero(EC))


def test_fraction_monic_canonicalization():
    # 1/(1-x) normalizes to -1/(x-1) = 4/(x+4)
    f = RingFraction(LINE, RingElement.one(LINE), P("1-x"))
    assert f.den == P("x+4")
    assert f.num == RingElement.constant(LINE, 4)


@pytest.mark.parametrize("curve", [LINE, EC], ids=["line", "cubic"])
def test_constant_denominator_only_scales(curve):
    # n / c is n * c^-1 over 1: the same fraction, the same hash
    rng = random.Random(31)
    for _ in range(10):
        n = rand_entry(rng, curve, 2)
        for c in F5.nonzero_elements():
            f = RingFraction(curve, n, Poly.constant(F5, c))
            g = RingFraction(curve, n * c.inverse())
            assert f == g and hash(f) == hash(g)
            assert f.den == Poly.one(F5) and f.num == n * c.inverse()


def test_fraction_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RingFraction(LINE, RingElement.one(LINE), Poly.zero(F5))
    one = RingElement.one(EC)
    assert RingFraction.make(one, 2) == RingElement.constant(EC, 3)  # an int denominator is a constant
    for den in (0, F5.zero(), RingElement.zero(EC)):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RingFraction.make(one, den)
    with pytest.raises(TypeError, match="cannot use 'x' as a denominator"):
        RingFraction.make(one, "x")
    with pytest.raises(ZeroDivisionError, match="inverting zero"):
        RingFraction.from_ring(RingElement.zero(EC)).inverse()
    with pytest.raises(ValueError, match="fraction has a nontrivial denominator"):
        RingFraction(EC, one, P("x")).as_ring_element()


# -- the operator surface of the four arithmetic types -----------------------

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__rpow__",
)
RING_OPERATORS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}


@pytest.mark.parametrize("cls, extra", [
    (FieldElement, {"__pow__", "__truediv__", "__rtruediv__"}),
    (Poly, {"__pow__", "__divmod__", "__floordiv__", "__mod__"}),
    (RingElement, {"__pow__"}),
    (RingFraction, {"__truediv__"}),
], ids=["FieldElement", "Poly", "RingElement", "RingFraction"])
def test_operator_surface_is_pinned(cls, extra):
    assert {name for name in OPERATORS if getattr(cls, name, None) is not None} == RING_OPERATORS | extra


def test_mixed_operands_and_derived_operators():
    poly, fe = P("x+2"), F5.element(2)
    ring = relem(EC, "x", "1")
    frac = RingFraction.make(relem(EC, "1", "1"), P("x+1"))
    assert 2 - poly == P("-x") and (2 - poly).field is F5
    assert ring - poly == relem(EC, "3", "1")
    assert 3 - fe == F5.element(1)
    assert 1 / fe == F5.element(3) and fe / 2 == F5.one()
    assert frac / 2 == frac * F5.element(3)
    assert frac - ring == frac + (-ring) and ring - frac == -(frac - ring)
    assert isinstance(frac - ring, RingFraction) and isinstance(ring - frac, RingFraction)
    for bad in (lambda: poly / poly, lambda: ring / ring, lambda: 2 / frac):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="negative"):
        poly**-1
    with pytest.raises(ValueError, match="negative"):
        ring**-1


# -- matrices ----------------------------------------------------------------


def q_matrix():
    # [[1/y, 3y], [2/y, 2y]]
    y = RingElement.y(EC)
    inv_y = RingFraction.make(RingElement.one(EC), y)
    return RingMatrix(
        EC,
        [
            [inv_y, relem(EC, "0", "3")],
            [inv_y * 2, relem(EC, "0", "2")],
        ],
    )


def p_matrix():
    # [[3/(x+1), x(x+1)], [1/(x+1), 2(x+1)^2]]
    return RingMatrix(
        EC,
        [
            [RingFraction(EC, RingElement.constant(EC, 3), P("x+1")), relem(EC, "x^2+x")],
            [RingFraction(EC, RingElement.one(EC), P("x+1")), relem(EC, "2*x^2+4*x+2")],
        ],
    )


def g_matrix():
    # [[0, 2], [2, 3y^2]] where 3y^2 = 3(x^3+2x+3)
    return RingMatrix(EC, [[0, 2], [2, P("3*x^3+6*x+9")]])


def test_congruence_identity_q():
    identity = RingMatrix(EC, diagonal_rows([1, 1]))
    assert congruence(q_matrix(), identity) == g_matrix()


def test_congruence_identity_p():
    identity = RingMatrix(EC, diagonal_rows([1, 1]))
    assert congruence(p_matrix(), identity) == g_matrix()


def test_congruence_with_identity_is_noop():
    f = g_matrix()
    assert congruence(RingMatrix(EC, diagonal_rows([1, 1])), f) == f


def test_det_of_q_is_unit():
    d = q_matrix().det()
    assert d.is_integral()
    assert d.as_ring_element() == RingElement.constant(EC, 1)  # -4 = 1 mod 5


def test_det_of_p_is_unit():
    d = p_matrix().det()
    assert d.as_ring_element() == RingElement.constant(EC, 1)


def test_det_congruence_multiplicative_random():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(8):
            q = RingMatrix(EC, [[rand_relem(rng, EC, 1) for _ in range(n)] for _ in range(n)])
            f = RingMatrix(EC, [[rand_relem(rng, EC, 1) for _ in range(n)] for _ in range(n)])
            lhs = congruence(q, f).det()
            rhs = q.det() * q.det() * f.det()
            assert lhs == rhs


def test_det_against_leibniz_3x3():
    rng = random.Random(17)
    for _ in range(5):
        m = RingMatrix(EC, [[rand_relem(rng, EC, 1) for _ in range(3)] for _ in range(3)])
        assert m.det() == leibniz_det(m.rows)


def rand_field_elem(rng, field, zero_share):
    if rng.random() < zero_share:
        return field.zero()
    return field.element([rng.randrange(field.p) for _ in range(field.k)])


def rand_field_form(rng, field, n, zero_share=0.3, zero_first_row=False, zero_diagonal=False):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            zero = zero_first_row and i == 0 or zero_diagonal and i == j
            v = field.zero() if zero else rand_field_elem(rng, field, zero_share)
            rows[i][j] = rows[j][i] = v
    return FieldForm(field, rows)


def rand_low_rank_form(rng, field, n, rank):
    """T^t D T with D diagonal of the given rank: a symmetric form of rank
    at most ``rank``."""
    d = [rand_field_elem(rng, field, 0) if i < rank else field.zero() for i in range(n)]
    t = [[rand_field_elem(rng, field, 0.3) for _ in range(n)] for _ in range(n)]
    return FieldForm(field, congruence_rows(t, diagonal_rows(d, field.zero())))


def rand_entry(rng, curve, max_deg):
    if not curve.is_polyline:
        return rand_relem(rng, curve, max_deg)
    return RingElement(curve, Poly(curve.field, [rng.randrange(5) for _ in range(max_deg + 1)]))


def rand_fraction(rng, curve):
    den = Poly(curve.field, [rng.randrange(5) for _ in range(2)] + [1])
    return RingFraction(curve, rand_entry(rng, curve, 1), den)


def rand_dense(rng, curve, n):
    return RingMatrix(curve, [[rand_fraction(rng, curve) for _ in range(n)] for _ in range(n)])


def rand_loaded(rng, curve, n):
    """A matrix as the pair parser loads it (``serialize.matrix_from_json``):
    constants, ring elements and fractions, whose denominators on the cubic
    carry a y part that loading rationalizes by conjugate multiplication."""

    def entry():
        roll = rng.random()
        if roll < 0.2:
            return rng.randrange(5)
        num = serialize.ring_elem_to_json(rand_entry(rng, curve, 1))
        den = rand_entry(rng, curve, 1)
        if roll < 0.4 or den.is_zero():
            return num
        return {"num": num, "den": serialize.ring_elem_to_json(den)}

    return serialize.matrix_from_json(curve, [[entry() for _ in range(n)] for _ in range(n)])


def rand_diagonal(rng, curve, n):
    return RingMatrix(curve, diagonal_rows([rand_entry(rng, curve, 2) for _ in range(n)]))


F9 = make_extension(3, 2)
F49 = make_extension(7, 2)
F121 = make_extension(11, 2)


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda rng: rand_field_form(rng, F5, 4), id="field-4x4-F5"),
        pytest.param(lambda rng: rand_field_form(rng, F9, 4), id="field-4x4-F9"),
        pytest.param(lambda rng: rand_field_form(rng, F5, 5), id="field-5x5-F5"),
        pytest.param(lambda rng: rand_field_form(rng, F9, 5, zero_share=0.6), id="field-5x5-F9-sparse"),
        pytest.param(lambda rng: rand_field_form(rng, F5, 4, zero_first_row=True), id="field-4x4-F5-zero-row"),
        pytest.param(lambda rng: rand_field_form(rng, F5, 4, zero_diagonal=True), id="field-4x4-F5-zero-diagonal"),
        pytest.param(lambda rng: rand_field_form(rng, F9, 5, zero_diagonal=True), id="field-5x5-F9-zero-diagonal"),
        pytest.param(lambda rng: rand_low_rank_form(rng, F5, 4, 2), id="field-4x4-F5-rank2"),
        pytest.param(lambda rng: rand_low_rank_form(rng, F9, 5, 4), id="field-5x5-F9-rank4"),
        pytest.param(lambda rng: rand_field_form(rng, F49, 3), id="field-3x3-F49"),
        pytest.param(lambda rng: rand_field_form(rng, F49, 6), id="field-6x6-F49"),
        pytest.param(lambda rng: rand_field_form(rng, F121, 3), id="field-3x3-F121"),
        pytest.param(lambda rng: rand_field_form(rng, F121, 6, zero_share=0.5), id="field-6x6-F121-sparse"),
        pytest.param(lambda rng: rand_diagonal(rng, LINE, 4), id="ring-diag4-line"),
        pytest.param(lambda rng: rand_diagonal(rng, EC, 5), id="ring-diag5-cubic"),
        pytest.param(lambda rng: rand_diagonal(rng, LINE, 6), id="ring-diag6-line"),
        pytest.param(lambda rng: rand_dense(rng, LINE, 4), id="ring-dense4-line"),
        pytest.param(lambda rng: rand_dense(rng, EC, 4), id="ring-dense4-cubic"),
        pytest.param(lambda rng: rand_dense(rng, LINE, 3), id="fraction-3x3-line"),
        pytest.param(lambda rng: rand_dense(rng, EC, 3), id="fraction-3x3-cubic"),
        pytest.param(lambda rng: rand_loaded(rng, LINE, 3), id="fraction-3x3-line-loaded"),
        pytest.param(lambda rng: rand_loaded(rng, LINE, 4), id="fraction-4x4-line-loaded"),
        pytest.param(lambda rng: rand_loaded(rng, EC, 3), id="fraction-3x3-cubic-y-denominators"),
        pytest.param(lambda rng: rand_loaded(rng, EC, 4), id="fraction-4x4-cubic-y-denominators"),
    ],
)
def test_det_against_leibniz(build):
    rng = random.Random(29)
    for _ in range(3):
        m = build(rng)
        assert m.det() == leibniz_det(m.rows)


def test_field_det_swaps_rows_and_finds_rank_deficiency():
    # a zero diagonal makes every column's first pivot a row swap; a
    # repeated row leaves a column with no pivot
    for field in (F5, F9, F49):
        one, two = field.one(), field.element(2)
        hyperbolic = FieldForm(field, [[0, one, 0, 0], [one, 0, 0, 0], [0, 0, 0, two], [0, 0, two, 0]])
        assert hyperbolic.det() == leibniz_det(hyperbolic.rows) == two * two
        swap = FieldForm(field, [[0, one, two], [one, 0, one], [two, one, 0]])
        assert swap.det() == leibniz_det(swap.rows) == (one + one) * two
        assert FieldForm(field, [[one, two, one], [two, one, two], [one, two, one]]).det().is_zero()
        assert FieldForm.diagonal(field, [one, two, 0, one]).det().is_zero()


def test_is_unit_invariant_survives_optimize():
    # the cross-check of the two unit characterizations must not vanish
    # under python -O, which strips assert statements
    script = (
        "from hasseforms.curvering import CurveSpec, RingElement\n"
        "from hasseforms.finfield import make_extension\n"
        "from hasseforms.funcfield import Poly\n"
        "F5 = make_extension(5, 1)\n"
        "x = RingElement.x(CurveSpec.polyline(F5))\n"
        "RingElement.norm = lambda self: Poly.one(F5)\n"
        "try:\n"
        "    x.is_unit()\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_matrix_flags():
    g = g_matrix()
    assert g.is_symmetric()
    assert g.all_integral()
    assert not q_matrix().all_integral()


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        congruence(RingMatrix(EC, diagonal_rows([1, 1])), RingMatrix(EC, diagonal_rows([1, 1, 1])))


# -- sparse products and determinants -------------------------------------------

F9 = make_extension(3, 2)
SMOOTH = CurveSpec.weierstrass(F5, 1, 1)


def _zero_and_entry(kind, curve, field):
    """(the ring's zero, a strategy for its nonzero entries) for one entry type."""
    digits = st.integers(0, field.p - 1)
    if kind == "field":
        entry = st.lists(digits, min_size=field.k, max_size=field.k).map(field.element)
        return field.zero(), entry.filter(lambda e: not e.is_zero())
    ring = st.builds(
        lambda a, b: RingElement(curve, Poly(field, a), Poly(field, [] if curve.is_polyline else b)),
        st.lists(digits, min_size=1, max_size=3), st.lists(digits, max_size=2),
    ).filter(lambda e: not e.is_zero())
    if kind == "ring":
        return RingElement.zero(curve), ring
    dens = st.sampled_from(["1", "x", "x+1", "x^2+x", "x+2"]).map(lambda t: P(t, field))
    return RingFraction.from_ring(RingElement.zero(curve)), st.builds(lambda e, d: RingFraction(curve, e, d), ring, dens)


@st.composite
def sparse_pairs(draw):
    """(zero, a, b): two n x n matrices, n in 1..5, at least half of whose
    entries are zero.  The shape is scattered entries that include one
    permutation's positions (so determinants can be nonzero), a zero row
    of a and a zero column of b, or a pair whose every product has a zero
    factor (a's nonzero columns miss b's nonzero rows)."""
    kind = draw(st.sampled_from(["field", "ring", "fraction"]))
    curve = draw(st.sampled_from([LINE, SMOOTH, EC]))
    field = F9 if kind == "field" and draw(st.booleans()) else F5
    zero, entry = _zero_and_entry(kind, curve, field)
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["scattered", "zero lines", "disjoint"]))
    k = draw(st.integers(0, n - 1))

    def matrix(live, first=()):
        cells = [(i, j) for i in range(n) for j in range(n) if live(i, j) and (i, j) not in first]
        most = min(len(cells), n * n // 2 - len(first))
        chosen = set(first) | set(draw(st.permutations(cells))[: draw(st.integers(most // 2, most))])
        return [[draw(entry) if (i, j) in chosen else zero for j in range(n)] for i in range(n)]

    if shape == "scattered":
        def diagonal():
            return tuple(enumerate(draw(st.permutations(range(n))))) if n > 1 else ()

        return zero, matrix(lambda i, j: True, diagonal()), matrix(lambda i, j: True, diagonal())
    if shape == "zero lines":
        return zero, matrix(lambda i, j: i != k), matrix(lambda i, j: j != k)
    return zero, matrix(lambda i, j: j <= k), matrix(lambda i, j: i > k)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(sparse_pairs())
def test_sparse_matmul_and_det_match_dense_oracles(case):
    zero, a, b = case
    product = matmul(a, b)
    assert product == dense_product(a, b)
    for row in product:
        for entry in row:
            assert type(entry) is type(zero)
            if entry.is_zero():
                assert entry == zero
    for m in (a, b, product):
        d = det(m)
        assert d == leibniz_det(m) and type(d) is type(zero)
        if d.is_zero():
            assert d == zero


def _zero_and_nonzeros(kind):
    """(the zero, three nonzero entries) of field, ring or fraction matrices:
    over F_9, and on the smooth cubic with y parts and denominators."""
    if kind == "field":
        return F9.zero(), [F9.element([1, 2]), F9.element([0, 1]), F9.element(2)]
    ring = [relem(SMOOTH, "x+1", "2"), relem(SMOOTH, "3"), relem(SMOOTH, "x^2", "x")]
    if kind == "ring":
        return RingElement.zero(SMOOTH), ring
    return RingFraction.from_ring(RingElement.zero(SMOOTH)), [RingFraction(SMOOTH, e, P(d)) for e, d in zip(ring, ("x", "1", "x+2"))]


def _masked(n, entries, zero, live):
    return [[entries[(i + 2 * j) % len(entries)] if live(i, j) else zero for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("kind", ["field", "ring", "fraction"])
def test_plain_products_and_determinants_match_dense_oracles_on_zero_patterns(kind):
    # every zero pattern of a 2 x 2 matrix, and 3 x 3 matrices with an
    # all-zero row, an all-zero column, both, or no nonzero entry at all:
    # each entry of a product, an all-zero one too, has the entries' type
    zero, entries = _zero_and_nonzeros(kind)
    two = [_masked(2, entries, zero, lambda i, j, m=m: m >> (2 * i + j) & 1) for m in range(16)]
    three = [_masked(3, entries, zero, lambda i, j, r=r, c=c: i != r and j != c) for r in range(4) for c in range(4)]
    three.append(_masked(3, entries, zero, lambda i, j: False))
    for mats in (two, three):
        for a in mats:
            d = det(a)
            assert d == leibniz_det(a) and type(d) is type(zero)
            for b in mats[:: 3 if len(a) == 3 else 1]:
                product = matmul(a, b)
                assert product == dense_product(a, b)
                assert all(type(e) is type(zero) and (e == zero) == e.is_zero() for row in product for e in row)


def test_constant_entries_are_shared_per_curve_and_never_change():
    curve = CurveSpec.polyline(F5)
    m1 = RingMatrix(curve, diagonal_rows([1, 1, 1]))
    m2 = RingMatrix(curve, [[0, 1, P("x")], [1, 0, 0], [P("x"), 0, 2]])
    zero, one = m1.rows[0][1], m1.rows[0][0]
    assert all(e is zero for e in (m1.rows[1][0], m2.rows[0][0], m2.rows[1][1], m2.rows[2][1]))
    assert m2.rows[0][1] is one and m2.rows[1][0] is one
    assert m2.rows[2][2] is RingMatrix(curve, [[F5.element(2)]]).rows[0][0]
    before = [(hash(e), e.num.a.coeffs, e.den.coeffs) for e in (zero, one)]
    det(matmul(matmul(m2.rows, m1.rows), m2.rows))
    det(list(zip(*m2.rows)))  # the transpose
    congruence(m2, m1)
    [e.num.evaluate(F5.element(3)) for row in m2.rows for e in row]
    zero + one - one * 2
    (one / 3).inverse()
    -zero
    GramMatrix.diagonal(curve, [1, P("x")]).det()
    assert [(hash(e), e.num.a.coeffs, e.den.coeffs) for e in (zero, one)] == before
    assert RingMatrix(CurveSpec("polyline", F5), diagonal_rows([1, 1, 1])).rows[0][1] is zero  # one line, so one set, per field
    assert RingMatrix(CurveSpec.weierstrass(F5, 1, 1), diagonal_rows([1, 1, 1])).rows[0][1] is not zero  # one set per curve


def test_int_entries_share_one_fraction_per_field_value(monkeypatch):
    curve = CurveSpec.polyline(F5)
    monkeypatch.setattr(curve, "_entries", {})  # empty, as when the curve was first built
    zero, one = RingMatrix(curve, diagonal_rows([1, 1])).rows[0][1], RingMatrix(curve, diagonal_rows([1, 1])).rows[0][0]
    m = RingMatrix(curve, [[1, 0, 5], [0, 1, 0], [5, 0, 6]])
    assert m.rows[0][2] is zero and m.rows[2][2] is one  # one object per field value
    assert RingMatrix(curve, [[6, 5], [5, -4]]).rows[1][1] is one
    assert RingMatrix(curve, [[F5.element(1)]]).rows[0][0] is one
    assert set(curve._entries) == {F5.zero(), F5.one()}  # keyed by the value only, never by an int


def test_is_symmetric_compares_only_distinct_entries(monkeypatch):
    calls = []
    eq = RingFraction.__eq__
    monkeypatch.setattr(RingFraction, "__eq__", lambda a, b: calls.append((a, b)) or eq(a, b))
    assert RingMatrix(LINE, diagonal_rows([1] * 4)).is_symmetric()
    assert calls == []
    assert RingMatrix(LINE, [[1, P("x")], [P("x"), 0]]).is_symmetric()
    assert len(calls) == 1
    assert not RingMatrix(LINE, [[1, P("x")], [P("x+1"), 0]]).is_symmetric()


def test_smoothness_is_decided_once_per_curve(monkeypatch):
    from hasseforms.curvepoints import point_report
    from hasseforms.hasse import hasse_principle

    calls = []
    discriminant = CurveSpec.discriminant.fget
    monkeypatch.setattr(CurveSpec, "discriminant", property(lambda c: calls.append(c) or discriminant(c)))
    F13 = make_extension(13, 1)
    for a, b, smooth in ((1, 1, True), (10, 2, False)):  # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        curve = CurveSpec.weierstrass(F13, a, b)
        fresh = curve._smooth is None  # curves live for the process: another test may have decided it
        point_report(curve)
        if smooth:
            hasse_principle(curve, 3)
        assert curve.is_smooth is smooth
        assert calls == [curve] * fresh
        point_report(CurveSpec.weierstrass(F13, a, b))  # the same object, decided already
        assert calls == [curve] * fresh
        calls.clear()


def test_diagonal_gram_builds_its_zero_entry_once(monkeypatch):
    built = []
    from_ring = RingFraction.from_ring.__func__

    def counting(cls, elem):
        built.append(elem)
        return from_ring(cls, elem)

    monkeypatch.setattr(RingFraction, "from_ring", classmethod(counting))
    entries = [P("x"), P("x+1"), P("x^2+2"), P("3*x"), P("x^3+1"), P("2*x+4")]
    for curve in (CurveSpec.polyline(F5), CurveSpec.weierstrass(F5, 1, 1)):
        fresh = F5.zero() not in curve._entries  # curves live for the process: another test may have built it
        GramMatrix.diagonal(curve, entries)
        assert sum(1 for e in built if e.is_zero()) == fresh
        GramMatrix.diagonal(curve, entries)
        assert sum(1 for e in built if e.is_zero()) == fresh
        built.clear()


def test_integral_forms_build_fractions_only_for_shared_constants(monkeypatch):
    # a Gram matrix holds ring elements: from_rows, diagonal and identity
    # make no fraction but the curve's shared constants c/1
    made = []
    raw, init = RingFraction._raw.__func__, RingFraction.__init__

    def counting_raw(cls, *args):
        made.append(raw(cls, *args))
        return made[-1]

    def counting_init(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(RingFraction, "_raw", classmethod(counting_raw))
    monkeypatch.setattr(RingFraction, "__init__", counting_init)

    def only_shared(curve):
        shared = list(curve._entries.values())
        return all(any(frac is c for c in shared) for frac in made)

    for curve in (CurveSpec.polyline(F5), CurveSpec.weierstrass(F5, 1, 1)):
        fresh = not curve._entries  # curves live for the process: another test may have built its constants
        x = RingElement.x(curve)
        GramMatrix.identity(curve, 3)
        GramMatrix.diagonal(curve, [P("x"), 2, x, F5.element(3)])
        GramMatrix.from_rows(curve, [[1, x], [x, P("x^2+2")]])
        assert only_shared(curve) and (made or not fresh)
        made.clear()
    fresh = not CurveSpec.weierstrass(F5, 2, 1)._entries
    pair = {
        "schema": 1,
        "curve": {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": [2], "b": [1]},
        "F": [[1, "x"], ["x", {"A": "x^2+2", "B": "1"}]],
        "G": [[{"num": "1", "den": "1"}, {"num": {"A": "x"}, "den": "2"}], [{"num": "3*x"}, 0]],
    }
    loaded = serialize.pair_from_json(pair)
    curve = loaded["curve"]
    # G's fraction records, each over a constant, load through
    # RingFraction.make as fractions over 1; the forms keep ring elements
    shared = list(curve._entries.values())
    assert all(any(frac is c for c in shared) or frac.is_integral() for frac in made) and (made or not fresh)
    assert all(type(e) is RingElement for key in ("F", "G") for row in loaded[key].rows for e in row)
    for key in ("F", "G"):
        assert loaded[key] == GramMatrix(curve, serialize.matrix_from_json(curve, pair[key]).rows)


# -- arithmetic fast paths against the general path ------------------------------
# Same-type operands over the same curve object skip coercion, a
# difference takes one pass, and a product of two y-free elements
# multiplies their A parts only; each must agree with the general rule.

ARITH_CURVES = (LINE, SMOOTH, EC, CurveSpec.polyline(F9), CurveSpec.weierstrass(F9, [1, 1], [0, 1]))


def _ring_elements(curve, y_free):
    elems = st.sampled_from(tuple(curve.field.elements()))
    parts = st.lists(elems, max_size=3).map(lambda cs: Poly(curve.field, cs))
    if curve.is_polyline or y_free:
        return parts.map(lambda a: RingElement(curve, a))
    return st.builds(lambda a, b: RingElement(curve, a, b), parts, parts)


@st.composite
def ring_pairs(draw, y_free=None):
    curve = draw(st.sampled_from(ARITH_CURVES))
    free = draw(st.booleans()) if y_free is None else y_free
    return curve, draw(_ring_elements(curve, free)), draw(_ring_elements(curve, free and draw(st.booleans())))


def _product_formula(u, v):
    """(A1 + B1 y)(A2 + B2 y) = A1 A2 + B1 B2 (x^3 + ax + b) + (A1 B2 + A2 B1) y."""
    cubic = Poly.zero(u.curve.field) if u.curve.is_polyline else u.curve.cubic()
    return RingElement(u.curve, u.a * v.a + u.b * v.b * cubic, u.a * v.b + u.b * v.a)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ring_pairs())
def test_ring_difference_is_sum_with_negation(case):
    curve, u, v = case
    for x, y in ((u, v), (v, u), (u, v.a), (u, 3)):
        assert x - y == x + (-y)
    assert u - u == RingElement.zero(curve) and (u - u).is_zero()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ring_pairs())
def test_ring_products_match_the_product_formula(case):
    curve, u, v = case
    want = _product_formula(u, v)
    assert u * v == want and v * u == want
    assert u * v.a == _product_formula(u, RingElement(curve, v.a))
    if u.b.is_zero() and v.b.is_zero():
        assert (u * v).b.is_zero()
        assert [c.coeffs for c in (u * v).a.coeffs] == poly_product_by_vectors(u.a, v.a)
        if not curve.is_polyline:  # through a y part, by the general path
            y = RingElement.y(curve)
            assert (u + y) * v - y * v == u * v


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ring_pairs(), st.integers(-12, 12))
def test_mixed_type_equality_is_unchanged(case, n):
    curve, u, v = case
    assert (u == v) == (u.a.coeffs == v.a.coeffs and u.b.coeffs == v.b.coeffs)
    assert (u == v.a) == (u.b.is_zero() and u.a.coeffs == v.a.coeffs)
    assert (u == n) == (u.b.is_zero() and u.a == Poly.constant(curve.field, n))
    frac = RingFraction.from_ring(u)
    assert frac == u and frac == RingFraction(curve, u) and (frac == v) == (u == v)
    den = P("x+1", curve.field)
    assert (RingFraction(curve, u, den) == u) == u.is_zero()
    assert (RingFraction(curve, u * den, den) == u) and (-frac == -u)


def test_equal_curves_compare_by_value_and_different_ones_raise():
    twin = CurveSpec.weierstrass(F5, 1, 1)
    assert twin is SMOOTH
    other = CurveSpec.weierstrass(F5, 1, 2)
    u, v = relem(SMOOTH, "x+1", "2"), relem(twin, "x+1", "2")
    assert u == v and not u != v and u - v == 0 and u + v == u * 2 and u * v == u * u
    fu, fv = RingFraction(SMOOTH, u, P("x")), RingFraction(twin, v, P("x"))
    assert fu == fv and fu - fv == 0 and fu * fv == fu * fu and fu == RingFraction.from_ring(u) / P("x")
    w = relem(other, "x+1", "2")
    fw = RingFraction(other, w, P("x"))
    for bad in (lambda: u == w, lambda: u + w, lambda: u - w, lambda: u * w,
                lambda: fu == fw, lambda: fu + fw, lambda: fu - fw, lambda: fu * fw, lambda: fu == w):
        with pytest.raises(ValueError, match="mismatched curves"):
            bad()


def test_curves_copy_and_pickle_as_themselves_and_forms_as_equals():
    for curve in ARITH_CURVES:
        copies = [copy.copy(curve), copy.deepcopy(curve)]
        copies += [pickle.loads(pickle.dumps(curve, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is curve for c in copies)
    x, y = RingElement.x(SMOOTH), RingElement.y(SMOOTH)
    g = GramMatrix.from_rows(SMOOTH, [[1, x], [x, y + 2]])
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and copied.curve is SMOOTH and copied.det() == g.det()


def test_zero_operands_add_to_the_other_operand():
    # a sum with zero takes the general path: it equals the other operand,
    # and a fraction stays in lowest terms
    for curve in ARITH_CURVES:
        u = RingElement(curve, P("x+1", curve.field))
        zero = RingElement.zero(curve)
        assert u + zero == u and zero + u == u and u - zero == u
        frac = RingFraction(curve, u, P("x^2+2", curve.field))
        fzero = RingFraction.from_ring(zero)
        for got in (frac + fzero, fzero + frac, frac - fzero):
            assert got == frac and got.den == frac.den
        assert (fzero + fzero).is_zero() and (fzero + fzero).den == Poly.one(curve.field)


def test_fraction_negation_runs_no_gcd(monkeypatch):
    calls = []
    gcd = curvering.poly_gcd
    monkeypatch.setattr(curvering, "poly_gcd", lambda *a: calls.append(a) or gcd(*a))
    f = RingFraction(EC, relem(EC, "x+2", "1"), P("x^2+1"))
    calls.clear()
    g = -f
    assert calls == []
    assert g == RingFraction(EC, -f.num, f.den) and -g == f and (g + f).is_zero()
    assert g.den is f.den


def test_matrix_entries_keep_their_curve():
    other = CurveSpec.weierstrass(F5, 1, 2)
    with pytest.raises(ValueError, match="mismatched curves"):
        RingMatrix(SMOOTH, [[relem(other, "x")]])
    with pytest.raises(ValueError, match="curve's field"):
        RingMatrix(SMOOTH, [[P("x", F9)]])
    twin = CurveSpec.weierstrass(F5, 1, 1)
    assert RingMatrix(SMOOTH, [[relem(twin, "x")]]).rows[0][0] == relem(SMOOTH, "x")


def test_identity_and_diagonal_share_the_constant_entries():
    curve = CurveSpec.polyline(F5)
    one, zero = RingMatrix(curve, diagonal_rows([1, 1])).rows[0]
    # the constant constructors hand out the numerators of the shared entries
    assert RingElement.one(curve) is RingElement.one(curve) is one.num
    assert RingElement.zero(curve) is zero.num and RingElement.constant(curve, F5.one()) is one.num
    assert RingElement.constant(curve, 7) is RingMatrix(curve, [[2]]).rows[0][0].num
    line9 = CurveSpec.polyline(make_extension(3, 2))
    assert RingElement.constant(line9, [0, 1]).a == Poly.constant(line9.field, line9.field.gen())  # a coefficient vector
    m = RingMatrix(curve, diagonal_rows([P("x"), 1, RingElement.x(curve)]))
    assert m.rows[1][1] is one and all(m.rows[i][j] is zero for i in range(3) for j in range(3) if i != j)
    assert RingMatrix(curve, [[1, 0], [0, 1]]).rows == RingMatrix(curve, diagonal_rows([1, 1])).rows
