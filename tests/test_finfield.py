import copy
import itertools
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforms.finfield import (
    capped_power,
    FiniteField,
    embed,
    is_square,
    make_extension,
    smallest_root,
    sqrt,
)

from hasseforms.funcfield import _coeff_text

from oracles import VectorField, exhaustive_squares, log_tables_by_walk

F5 = make_extension(5, 1)
F9 = make_extension(3, 2)


def test_prime_field_products():
    assert F5.element(3) * F5.element(4) == F5.element(2)  # 12 mod 5
    assert F5.element(2).inverse() == F5.element(3)  # 2*3 = 6 = 1


def test_extension_modulus_reduction():
    # F_9 = F_3[t]/(t^2+1), so t*t = -1 = 2
    assert F9.modulus == (1, 0, 1)
    t = F9.gen()
    assert t * t == F9.element(2)


def test_field_axioms_sampled():
    for field in (F5, F9):
        elems = list(field.elements())
        for a, b in itertools.product(elems[:6], elems[:6]):
            assert a + b == b + a
            assert a * b == b * a
        for a in elems:
            assert a + field.zero() == a
            assert a * field.one() == a
            if not a.is_zero():
                assert a * a.inverse() == field.one()
        for a, b, c in itertools.product(elems[:4], elems[:4], elems[:4]):
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        F5.element(1) / F5.element(0)


@pytest.mark.parametrize("p,k", [(5, 1), (3, 2), (3, 3), (11, 2)])
def test_inverse_cold_and_warm(p, k):
    field = FiniteField(p, k)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()
    nonzero = list(field.nonzero_elements())
    cold = [a.inverse() for a in nonzero]
    warm = [a.inverse() for a in nonzero]
    for a, inv_cold, inv_warm in zip(nonzero, cold, warm):
        assert a * inv_cold == field.one()
        assert a * inv_warm == field.one()
        assert inv_warm == inv_cold == a ** (field.q - 2)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        field.zero() ** -1


def test_mismatched_fields_rejected():
    with pytest.raises(ValueError):
        F5.element(1) + F9.element(1)


def test_is_square_f5_examples():
    # squares of F_5 are {1, 4} by exhaustive squaring
    assert is_square(F5.element(4)) is True
    assert is_square(F5.element(2)) is False
    assert is_square(F5.element(-1)) is True  # -1 = 4 = 2^2


def test_is_square_rejects_zero():
    with pytest.raises(ValueError):
        is_square(F5.zero())


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3), (7, 2)])
def test_euler_criterion_matches_exhaustive_squares(p, k):
    field = make_extension(p, k)
    squares = exhaustive_squares(field)
    for a in field.nonzero_elements():
        assert is_square(a) == (a.coeffs in squares)
    assert len(squares) == (field.q - 1) // 2


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_square_class_group_of_order_two(p, k):
    field = make_extension(p, k)
    nonsquare = next(a for a in field.nonzero_elements() if not is_square(a))
    for a in field.nonzero_elements():
        assert is_square(a) != is_square(nonsquare * a)
        for b in field.nonzero_elements():
            assert is_square(a * b) == (is_square(a) == is_square(b))


def test_make_extension_deterministic_moduli():
    assert make_extension(5, 1).modulus == (0, 1)  # m = t
    assert make_extension(3, 2).modulus == (1, 0, 1)  # t^2 + 1

    # independent scan for the smallest irreducible cubic over F_3:
    # a cubic is irreducible iff it has no root
    first = None
    for n in range(27):
        c0, rest = n % 3, n // 3
        c1, c2 = rest % 3, rest // 3
        if all((x**3 + c2 * x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            first = (c0, c1, c2, 1)
            break
    assert make_extension(3, 3).modulus == first


def test_make_extension_bounds():
    with pytest.raises(ValueError):
        make_extension(5, 6)  # 15625 > 121^2
    assert make_extension(5, 4).q == 625  # extension fields reach 121^2
    with pytest.raises(ValueError):
        make_extension(2, 3)  # even characteristic
    with pytest.raises(ValueError):
        make_extension(9, 1)  # not prime


def test_capped_power():
    assert capped_power(3, 4, 121) == 81
    assert capped_power(11, 2, 121) == 121
    assert capped_power(3, 5, 121) == 122  # 243 > 121
    assert capped_power(3, 10**9, 121) == 122  # stops after 5 products
    assert capped_power(5, 0, 1) == 1


def test_reducible_modulus_rejected():
    # no modulus can be passed in, so only the scanned irreducible one is used
    with pytest.raises(TypeError):
        FiniteField(3, 2, (0, 0, 1))  # t^2 has root 0
    with pytest.raises(TypeError):
        FiniteField(3, 4, (1, 0, 2, 0, 1))  # (t^2 + 1)^2
    assert make_extension(3, 4).modulus != (1, 0, 2, 0, 1)


def test_one_field_object_per_p_k():
    from hasseforms.cli import _field_from_q
    from hasseforms.curvepoints import enumerate_points
    from hasseforms.curvering import CurveSpec
    from hasseforms.finfield import _field_cache
    from hasseforms.search import _evaluation_points
    from hasseforms.funcfield import Poly
    from hasseforms.local import PrimePoly
    from hasseforms.serialize import field_from_json

    F3, F27 = make_extension(3, 1), make_extension(3, 3)
    assert FiniteField(3, 2) is make_extension(3, 2) is F9
    assert field_from_json({"p": 3, "k": 2}) is F9
    assert _field_from_q(9) is F9
    prime = PrimePoly.finite(Poly(F3, [1, 0, 1]))  # x^2 + 1
    assert make_extension(prime.field.p, prime.field.k * prime.degree) is F9  # its residue field
    cubic = CurveSpec.weierstrass(F3, 2, 1)
    assert {point.x.field for point in enumerate_points(cubic, 3)} == {F27}
    assert {x0.field for x0, _ in _evaluation_points(CurveSpec.polyline(F3), 4)} == {F9}
    assert {x0.field for x0, _ in _evaluation_points(CurveSpec.polyline(F3), 10)} == {F27}
    assert F9 != make_extension(3, 4) and F9 == FiniteField(3, 2)
    with pytest.raises(TypeError):
        FiniteField(3, 2, (2, 1, 1))  # t^2 + t + 2 is irreducible, but no modulus is taken
    F81 = make_extension(3, 4)
    with pytest.raises(ValueError):
        F9.one() + F81.one()
    with pytest.raises(ValueError):
        F81.gen() * F9.gen()
    with pytest.raises(ValueError):
        F81.element(F9.one())
    assert F9.one() != F81.one() and F9.one() == 1 == F81.one()
    for p, k in ((5, 6), (9, 1), (3, 0)):  # a refused (p, k) leaves nothing cached
        with pytest.raises(ValueError):
            FiniteField(p, k)
        assert (p, k) not in _field_cache


def test_fields_and_elements_copy_and_pickle_as_themselves():
    F25 = make_extension(5, 2)
    for value in (F5, F25, F5.zero(), F5.element(3), F25.gen(), F25.element([4, 2])):
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        assert all(c is value for c in copies)
    assert copy.copy(F5.element(3)) == F5.element(3)
    assert copy.deepcopy({F5.element(3): [F25, F25.gen()]}) == {F5.element(3): [F25, F25.gen()]}


# every (p, k) with k >= 2 and p^k <= 121^2: the extension fields
EXTENSION_FIELDS = [
    (p, k)
    for p in range(3, 122, 2)
    if all(p % d for d in range(2, p))
    for k in range(2, 9)
    if p**k <= 121**2
]


def test_moduli_are_first_irreducibles_by_sympy():
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    assert len(EXTENSION_FIELDS) == 46
    for p, k in EXTENSION_FIELDS:
        # monic degree-k polynomials counted base p, constant coefficient fastest
        lower = ([n // p**i % p for i in range(k)] for n in range(p**k))
        first = next(cs for cs in lower if galoistools.gf_irreducible_p([ZZ(1)] + [ZZ(c) for c in cs[::-1]], p, ZZ))
        assert make_extension(p, k).modulus == tuple(first) + (1,), (p, k)


def test_sqrt_exhaustive_consistency():
    for field in (F5, F9, make_extension(7, 1)):
        for a in field.nonzero_elements():
            if is_square(a):
                r = sqrt(a)
                assert r * r == a
    assert sqrt(F5.zero()) == F5.zero()


# every pair F_{p^k} in F_{p^K}, k < K dividing K, with p^K <= 729
EMBEDDING_PAIRS = [
    (p, k, K)
    for p in range(3, 28, 2)
    if all(p % d for d in range(2, p))
    for K in range(2, 7)
    if p**K <= 729
    for k in range(1, K)
    if K % k == 0
]


def test_embed_is_a_field_homomorphism():
    assert len(EMBEDDING_PAIRS) == 19
    for p, k, K in [(3, 1, 2), (3, 2, 4), (3, 3, 6), (5, 2, 4), (7, 1, 3), (23, 1, 2)]:
        src, target = make_extension(p, k), make_extension(p, K)
        for a in src.elements():
            for b in itertools.islice(src.elements(), 0, None, max(1, src.q // 9)):
                assert embed(a + b, target) is embed(a, target) + embed(b, target)
                assert embed(a * b, target) is embed(a, target) * embed(b, target)
        assert embed(src.one(), target) is target.one()


@pytest.mark.parametrize("p,k,K", EMBEDDING_PAIRS)
def test_embed_table_is_horner_on_smallest_root(p, k, K):
    src, target = make_extension(p, k), make_extension(p, K)

    def horner(coeffs, x):
        acc = target.zero()
        for c in reversed(coeffs):
            acc = acc * x + target.element(c)
        return acc

    root = next(r for r in target.elements() if horner(src.modulus, r).is_zero())
    images = [embed(a, target) for a in src.elements()]
    assert images == [horner(a.coeffs, root) for a in src.elements()]
    assert [embed(a, target) for a in src.elements()] == images  # the table, read again
    assert all(image.field is target for image in images)


def test_smallest_root_is_first_root_in_canonical_order():
    F81 = make_extension(3, 4)
    modulus = [F81.element(c) for c in F9.modulus]
    roots = [r for r in F81.elements() if r * r * modulus[2] + r * modulus[1] + modulus[0] == 0]
    assert len(roots) == 2
    assert smallest_root(modulus, F81) == roots[0] == embed(F9.gen(), F81)
    with pytest.raises(ValueError, match="no root"):
        smallest_root([F5.element(2), F5.zero(), F5.one()], F5)  # -2 is not a square mod 5


def test_embed_rejects_incompatible():
    with pytest.raises(ValueError):
        embed(F5.one(), F9)  # another characteristic
    with pytest.raises(ValueError):
        embed(F9.gen(), make_extension(3, 3))  # 2 does not divide 3


def test_element_coercion_and_equality():
    a = F5.element(7)
    assert a == F5.element(2)
    assert a == 2
    assert a + 1 == 3
    assert 1 - a == F5.element(4)
    assert hash(F5.element(2)) == hash(a)


def test_canonical_element_order():
    elems = list(F9.elements())
    assert elems[0] == F9.zero()
    assert elems[1] == F9.one()
    assert elems[3] == F9.gen()
    assert len(elems) == 9


def test_extension_reprs():
    F25, F27 = make_extension(5, 2), make_extension(3, 3)
    assert repr(F25.element([1, 2])) == "F25(1+2*t)"
    assert repr(F25.element([0, 3])) == "F25(3*t)"
    assert repr(F25.element([4])) == "F25(4)"
    assert repr(F25.zero()) == "F25(0)"
    assert repr(F27.element([0, 0, 1])) == "F27(t^2)"
    assert repr(F27.element([2, 1, 2])) == "F27(2+t+2*t^2)"
    assert repr(F5.element(3)) == "F5(3)"


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3)])
def test_every_extension_repr_reads_back(p, k):
    """Each repr body is a t-polynomial with its nonzero terms in
    ascending degree and no coefficient 1 written out, or "0"; read back,
    it gives the element's coefficient vector.  It is also
    ``funcfield._coeff_text`` of the element without the parentheses
    that function puts around a value with a t term."""
    field = make_extension(p, k)
    prefix = f"F{field.q}("
    for a in field.elements():
        text = repr(a)
        assert text.startswith(prefix) and text.endswith(")")
        body = text[len(prefix) : -1]
        coeffs, degrees = [0] * k, []
        for term in body.split("+"):
            m = re.fullmatch(r"(?:(\d+)\*)?t(?:\^(\d+))?|(\d+)", term)
            assert m, text
            if m.group(3) is not None:
                degree, c = 0, int(m.group(3))
            else:
                degree, c = int(m.group(2) or 1), int(m.group(1) or 1)
                assert m.group(1) is None or c >= 2
                assert m.group(2) is None or degree >= 2
            assert c != 0 or body == "0"
            coeffs[degree] = c
            degrees.append(degree)
        assert degrees == sorted(set(degrees))
        assert tuple(coeffs) == a.coeffs
        wrapped = "t" in body
        assert _coeff_text(a) == (f"({body})" if wrapped else body)


# every odd prime power q <= 121, as (p, k)
ODD_FIELDS = [
    (p, k)
    for p in range(3, 122, 2)
    if all(p % d for d in range(2, p))
    for k in (1, 2, 3, 4)
    if p**k <= 121
]


def test_odd_fields_listed():
    assert len(ODD_FIELDS) == 35


@pytest.mark.parametrize("p,k", ODD_FIELDS)
def test_tables_match_vector_oracle(p, k):
    field = make_extension(p, k)
    oracle = VectorField(p, field.modulus)
    elems = list(field.elements())
    assert [a.coeffs for a in elems] == oracle.vectors
    # every result must be the field's own interned element
    by_coeffs = {a.coeffs: a for a in elems}
    for a in elems:
        for b in elems:
            assert a + b is by_coeffs[oracle.add(a.coeffs, b.coeffs)]
            assert a - b is by_coeffs[oracle.sub(a.coeffs, b.coeffs)]
            assert a * b is by_coeffs[oracle.mul(a.coeffs, b.coeffs)]
    exponents = (0, 1, 2, 3, field.q // 2, field.q - 2, field.q - 1, field.q, 2 * field.q + 1, 10**9 + 7)
    for a in elems:
        assert -a is by_coeffs[oracle.neg(a.coeffs)]
        for e in exponents:
            assert a**e is by_coeffs[oracle.pow(a.coeffs, e)]
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            with pytest.raises(ZeroDivisionError):
                a**-1
            with pytest.raises(ValueError):
                is_square(a)
            assert sqrt(a) is a
            continue
        assert a.inverse() is by_coeffs[oracle.inverse(a.coeffs)]
        for e in exponents:
            assert a**-e is by_coeffs[oracle.pow(a.coeffs, -e)]
        root = oracle.smallest_root(a.coeffs)
        assert is_square(a) == (root is not None)
        if root is None:
            with pytest.raises(ValueError):
                sqrt(a)
        else:
            assert sqrt(a) is by_coeffs[root]


@pytest.mark.parametrize("p,k", ODD_FIELDS + [(13, 2), (3, 8)])
def test_generator_is_first_primitive_element(p, k):
    field = make_extension(p, k)
    oracle = VectorField(p, field.modulus)

    def order(v):
        n, x = 1, v
        while x != oracle.one:
            n, x = n + 1, oracle.mul(x, v)
        return n

    first = next(v for v in oracle.vectors[1:] if order(v) == field.q - 1)
    assert field._exp[1].coeffs == first


@pytest.mark.parametrize("p,k", ODD_FIELDS + [(3, 8), (11, 4)])
def test_log_tables_match_power_walk(p, k):
    # the tables come from one linear "multiply by g" step per power; the
    # oracle multiplies coefficient vectors with long division instead
    field = make_extension(p, k)
    exp, zech = log_tables_by_walk(p, field.modulus)
    assert [a.coeffs for a in field.elements()] == VectorField(p, field.modulus).vectors
    assert [a.coeffs for a in field._exp] == exp * 2
    assert field._zech == zech * 2
    assert all(a.log is None if a.is_zero() else field._exp[a.log] is a for a in field.elements())


def _field_and_elements(n):
    return st.sampled_from(ODD_FIELDS).flatmap(
        lambda pk: st.tuples(
            *[st.integers(0, pk[0] ** pk[1] - 1) for _ in range(n)]
        ).map(lambda codes: [list(make_extension(*pk).elements())[c] for c in codes])
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_field_and_elements(3), st.integers(-300, 300), st.integers(-300, 300))
def test_field_axioms_hypothesis(elems, e1, e2):
    a, b, c = elems
    field = a.field
    zero, one = field.zero(), field.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and -(-a) == a
    assert (a - b) + b == a and a - b == -(b - a)
    assert a**0 == one
    if not a.is_zero():
        assert a * a.inverse() == one and a / a == one
        assert a ** (e1 + e2) == a**e1 * a**e2
        assert (a**e1) ** 2 == a ** (2 * e1)
        assert is_square(a * a) and sqrt(a * a) in (a, -a)
        if not b.is_zero():
            assert (a * b) ** e1 == a**e1 * b**e1
            assert is_square(a * b) == (is_square(a) == is_square(b))


# -- element coercion: an int, or a list holding one int, is one lookup ----------


def _element_by_coefficients(field, value):
    """The element with these coefficients, least significant first, each
    read mod p: its index in the canonical order, counted base p."""
    coeffs = [value] if isinstance(value, int) else list(value)
    if len(coeffs) > field.k:
        raise ValueError("coefficient vector longer than extension degree")
    code = 0
    for c in reversed(coeffs):
        code = code * field.p + int(c) % field.p
    return list(field.elements())[code]


def _coercion_cases(pk):
    field = make_extension(*pk)
    ints = st.integers(-(10**6), 10**6)
    return st.tuples(
        st.just(field),
        st.one_of(
            ints,
            st.lists(ints, min_size=1, max_size=1),
            st.lists(ints, min_size=0, max_size=field.k + 1),
            st.lists(ints, min_size=1, max_size=field.k + 1).map(tuple),
            st.booleans(),
            st.lists(st.booleans(), min_size=1, max_size=1),
            st.integers(0, field.q - 1).map(lambda code: list(field.elements())[code]),
        ),
    )


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ODD_FIELDS).flatmap(_coercion_cases))
def test_element_fast_path_matches_the_general_path(case):
    field, value = case
    try:
        expected = value if hasattr(value, "field") else _element_by_coefficients(field, value)
    except ValueError:
        with pytest.raises(ValueError, match="longer than extension degree"):
            field.element(value)
        return
    assert field.element(value) is expected
    if isinstance(value, list):  # a tuple takes the general path
        assert field.element(tuple(value)) is expected
    elif type(value) is int:
        assert field.element((value,)) is expected
