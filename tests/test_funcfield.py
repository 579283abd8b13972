import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hasseforms import funcfield
from hasseforms.curvepoints import enumerate_points
from hasseforms.curvering import CurveSpec, RingElement, RingFraction
from hasseforms.finfield import make_extension
from hasseforms.genus import _times_power
from hasseforms.local import PrimePoly
from hasseforms.funcfield import (
    MAX_TEXT_DEGREE,
    Poly,
    factor,
    is_irreducible,
    monic_irreducibles,
    monic_polys,
    poly_gcd,
    to_text,
    valuation,
)

from oracles import (
    INFINITY,
    ec_add,
    ec_multiply,
    factor_by_trial_division,
    monic_irreducibles_by_trial_division,
    poly_from_text_by_whole_grammar,
    poly_product_by_vectors,
    reducible_monics_by_products,
)

F3 = make_extension(3, 1)
F5 = make_extension(5, 1)
F9 = make_extension(3, 2)
LINE5 = CurveSpec.polyline(F5)


def P5(text):
    return Poly.from_text(F5, text)


def frac(num, den=None):
    """num/den in F_5(x), as a fraction over the line's ring F_5[x]."""
    return RingFraction(LINE5, RingElement(LINE5, num), den)


def rand_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.p) for _ in range(rng.randint(1, max_deg + 1))])


# -- arithmetic -----------------------------------------------------------


def test_cubic_expansion_from_linear_factors():
    # (x+1)^2 * (x-2) = x^3 + 2x + 3 over F_5
    prod = P5("x+1") * P5("x+1") * P5("x-2")
    assert prod == P5("x^3+2*x+3")


def test_gcd_of_coprime_linear_pair():
    # (1+x) + (1-x) = 2 is a unit, so the gcd is 1
    assert poly_gcd(P5("1-x"), P5("1+x")) == Poly.one(F5)


def test_gcd_of_zero_and_zero_is_zero():
    assert poly_gcd(Poly.zero(F5), Poly.zero(F5)).is_zero()


def test_str_of_a_poly_is_its_text():
    assert str(P5("4+x+3*x^2")) == "3*x^2+x+4"


def test_monic_polys_of_negative_degree_yields_nothing():
    assert list(monic_polys(F5, -1)) == []


def test_a_poly_plus_a_string_raises_type_error():
    with pytest.raises(TypeError, match="'Poly' and 'str'"):
        Poly.x(F5) + "x"


def test_multiplicative_identity():
    for text in ("x^3+2*x+3", "0", "4"):
        f = P5(text)
        assert f * Poly.one(F5) == f


def test_divmod_reassembly_random():
    rng = random.Random(7)
    for _ in range(60):
        f = rand_poly(rng, F5, 8)
        g = rand_poly(rng, F5, 4)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(ZeroDivisionError):
        divmod(P5("x"), Poly.zero(F5))
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        Poly.zero(F5).leading_coeff()
    with pytest.raises(ValueError, match="cannot normalize the zero polynomial"):
        Poly.zero(F5).monic()
    with pytest.raises(ValueError, match="polynomial is not constant"):
        P5("x+1").constant_value()


def test_zero_degree_sentinel():
    assert Poly.zero(F5).degree == -1
    assert P5("3").degree == 0


# -- text grammar ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("x^3+2*x+3", (3, 2, 0, 1)),
        ("x^4-2*x^2+1", (1, 0, 3, 0, 1)),
        ("- x + 1", (1, 4)),
        ("7", (2,)),
        ("2x^2", (0, 0, 2)),
    ],
)
def test_parse_poly(text, coeffs):
    f = Poly.from_text(F5, text)
    assert f == Poly(F5, coeffs)


def test_parse_rejects_garbage():
    for bad, message in [
        ("", "empty polynomial text"),
        ("x+", "cannot parse polynomial text 'x+'"),
        ("y^2", "bad term 'y^2' in polynomial text 'y^2'"),
        ("x**2", "bad term 'x**2' in polynomial text 'x**2'"),
        ("++1", "cannot parse polynomial text '++1'"),
        ("1.5", "bad term '1.5' in polynomial text '1.5'"),
        ("--1", "cannot parse polynomial text '--1'"),
        ("3\n", "bad term '3\\n' in polynomial text '3\\n'"),
        ("x + 2 y", "bad term '+2y' in polynomial text 'x + 2 y'"),
        ("y+x^300", "bad term 'y' in polynomial text 'y+x^300'"),
        ("x^300+y", "exponent 300 exceeds the text grammar's bound 256"),
    ]:
        with pytest.raises(ValueError) as refused:
            Poly.from_text(F5, bad)
        assert str(refused.value) == message, bad


def _drawn_text(rng: random.Random) -> str:
    """A string over the grammar's characters and its near misses, or a
    run of signed terms, some of them no term, with exponents up to 400
    and coefficients that may be parenthesized t-polynomials."""
    if rng.random() < 0.5:
        return "".join(rng.choices("0123456789x^*+-.()yt ", k=rng.randrange(13)))
    return "".join(
        rng.choice(["+", "-", "+", "-", "", "--"])
        + rng.choice(["", "0", "1", "3", "12", "007", "(t)", "(1+2*t)", "(t^2)", "(t^300)", "(t+)", "()", "(2t"])
        + rng.choice(["x", "x", "x", "*x", "", "x^", "**x"])
        + rng.choice(["", f"^{rng.randrange(401)}", f"^{rng.randrange(401)}"])
        for _ in range(rng.randrange(1, 6))
    )


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([F5, F9]), st.integers(0, 2**32 - 1))
def test_text_reads_as_the_whole_text_grammar_reads_it(field, seed):
    # one pass over the signed runs returns the polynomial, or raises the
    # message, that a whole-text match followed by a re-scan gives, on
    # 20 x 500 drawn texts
    rng = random.Random(seed)
    for text in (_drawn_text(rng) for _ in range(500)):
        try:
            expected = poly_from_text_by_whole_grammar(field, text)
        except ValueError as refused:
            with pytest.raises(ValueError) as raised:
                Poly.from_text(field, text)
            assert str(raised.value) == str(refused), text
        else:
            assert Poly.from_text(field, text) == expected, text


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([F3, F5, F9, make_extension(53, 1)]), st.from_regex(r" ?[0-9]{1,6} ?", fullmatch=True))
@example(F5, "0")
@example(F5, "7")
@example(F5, "007")
@example(F5, " 12 ")
def test_integer_text_reads_as_the_term_grammar_does(field, text):
    # a plain integer skips the term grammar; "+n" and "n*x^0" go through it
    f = Poly.from_text(field, text)
    assert f == Poly.from_text(field, "+" + text) == Poly.from_text(field, text.strip() + "*x^0")
    assert f == Poly(field, [int(text)])


def test_parse_refuses_huge_exponent_before_allocating():
    assert Poly.from_text(F3, f"x^{MAX_TEXT_DEGREE}").degree == MAX_TEXT_DEGREE
    for text in (f"x^{MAX_TEXT_DEGREE + 1}", "x^300000", "x^1000000000", "1+x^" + "9" * 4000):
        with pytest.raises(ValueError, match="exceeds"):
            Poly.from_text(F3, text)


def test_parse_rejects_non_strings():
    for bad in (None, 3, [1, 2], {"A": "x"}):
        with pytest.raises(ValueError, match="must be a string"):
            Poly.from_text(F5, bad)


def test_text_round_trip():
    rng = random.Random(11)
    for _ in range(40):
        f = rand_poly(rng, F5, 6)
        assert Poly.from_text(F5, to_text(f)) == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_text_round_trip_over_extension_fields(data):
    # to_text writes a coefficient with a t term as a parenthesized
    # t-polynomial, and from_text reads it back
    field = data.draw(st.sampled_from([F9, make_extension(5, 2), make_extension(3, 4), make_extension(11, 2)]))
    f = Poly(field, data.draw(st.lists(st.sampled_from(tuple(field.elements())), max_size=7)))
    assert Poly.from_text(field, to_text(f)) == f


def test_parenthesized_coefficients_are_read_in_their_field():
    F25 = make_extension(5, 2)
    t = F25.gen()
    assert Poly.from_text(F25, "(3+t)*x^2+x+(2*t)") == Poly(F25, [2 * t, 1, 3 + t])
    assert Poly.from_text(F25, "-(t)x+(t)x+(1+t)-(1)") == Poly(F25, [t])
    assert Poly.from_text(F9, "x+(3*t^2)") == Poly.x(F9)  # read mod p, as 3*x^2 is
    for field, bad, message in [
        (F9, "x+(t^2)", "bad term '+(t^2)' in polynomial text 'x+(t^2)'"),  # t^2 needs k = 3
        (F5, "(t)", "bad term '(t)' in polynomial text '(t)'"),
        (F9, "2x-(1+t^2)*x^3", "bad term '-(1+t^2)*x^3' in polynomial text '2x-(1+t^2)*x^3'"),
        (F9, "(t^300)", "exponent 300 exceeds the text grammar's bound 256"),
        (F9, "x+2(t)", "bad term '+2(t)' in polynomial text 'x+2(t)'"),
        (F9, "(t-1)", "bad term '(t-1)' in polynomial text '(t-1)'"),
    ]:
        with pytest.raises(ValueError) as refused:
            Poly.from_text(field, bad)
        assert str(refused.value) == message, bad


def test_text_with_extension_coefficients():
    F25, F27 = make_extension(5, 2), make_extension(3, 3)
    t = F25.gen()
    f = Poly(F25, [2 * t, 1, 3 + t])
    assert to_text(f) == "(3+t)*x^2+x+(2*t)"
    assert repr(f) == "Poly('(3+t)*x^2+x+(2*t)')"
    assert to_text(Poly(F25, [4, 0, 2])) == "2*x^2+4"  # constants of F_25 print bare
    assert to_text(Poly(F25, [0, t])) == "(t)*x"
    assert to_text(Poly(F27, [F27.element([0, 0, 1]), F27.element([1, 2, 1])])) == "(1+2*t+t^2)*x+(t^2)"


# -- factorization --------------------------------------------------------


def test_factor_worked_cubic():
    lead, factors = factor(P5("x^3+2*x+3"))
    assert lead == F5.one()
    assert factors == [(P5("x+1"), 2), (P5("x+3"), 1)]  # x-2 = x+3 over F_5


def test_factor_difference_of_squares():
    _, factors = factor(P5("x^2-1"))
    assert factors == [(P5("x+1"), 1), (P5("x+4"), 1)]


def test_quadratic_irreducible_over_f3():
    f = Poly.from_text(F3, "x^2+1")
    assert is_irreducible(f)
    _, factors = factor(f)
    assert factors == [(f, 1)]


@pytest.mark.parametrize("field,max_deg,trials", [(F3, 8, 25), (F5, 8, 25), (F9, 8, 8)])
def test_factor_reassembly_random(field, max_deg, trials):
    rng = random.Random(field.q)
    for _ in range(trials):
        f = Poly(field, [rng.randrange(field.q) and rng.randrange(field.p) for _ in range(max_deg + 1)])
        if f.is_zero():
            continue
        lead, factors = factor(f)
        prod = Poly.constant(field, lead)
        for g, e in factors:
            assert is_irreducible(g) or g.degree == 1
            prod = prod * g**e
        assert prod == f


def test_factor_degree_bound():
    with pytest.raises(ValueError):
        factor(Poly.x(F5) ** 65)
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        factor(Poly.zero(F5))


def test_modular_power_matches_power_then_remainder():
    rng = random.Random(7)
    for _ in range(30):
        f, m = rand_poly(rng, F9, 5), rand_poly(rng, F9, 4)
        if m.is_zero():
            continue
        e = rng.randrange(0, 40)
        assert pow(f, e, m) == f**e % m
    assert pow(P5("x"), 5, P5("x^2+2")) == P5("x") ** 5 % P5("x^2+2")
    assert pow(P5("x"), 0, Poly.one(F5)).is_zero()  # everything is 0 mod a unit


CUBIC5 = CurveSpec.weierstrass(F5, 1, 1)


def _repeated(start, base, e, reduce=lambda v: v):
    for _ in range(e):
        start = reduce(start * base)
    return start


def _rand_ring(rng, curve):
    return RingElement(curve, rand_poly(rng, curve.field, 3), rand_poly(rng, curve.field, 2))


@pytest.mark.parametrize("e", [0, 1, 2, 3, 5, 8, 13])
@pytest.mark.parametrize("kind", ["poly", "poly-mod", "ring", "times-power", "ec-multiply"])
def test_square_and_multiply_matches_repeated_products(kind, e):
    """Every integer power in the package, with or without a reduction
    after each product, agrees with e plain products."""
    rng = random.Random(e)
    f, m = rand_poly(rng, F5, 4), Poly.from_text(F5, "x^3+2*x+1") * Poly(F5, [rng.randrange(5), 1])
    if kind == "poly":
        assert f**e == _repeated(Poly.one(F5), f, e)
    elif kind == "poly-mod":
        assert pow(f, e, m) == _repeated(Poly.one(F5), f, e) % m
    elif kind == "ring":
        u = _rand_ring(rng, CUBIC5)
        assert u**e == _repeated(RingElement.one(CUBIC5), u, e)
    elif kind == "times-power":
        num, s = _rand_ring(rng, CUBIC5), _rand_ring(rng, CUBIC5)
        expected = _repeated(num, s, e, lambda v: RingElement(CUBIC5, v.a % m, v.b % m))
        assert _times_power(num, s, e, m) == RingElement(CUBIC5, expected.a % m, expected.b % m)
    else:
        point, total = rng.choice(enumerate_points(CUBIC5, 1)), INFINITY
        for _ in range(e):
            total = ec_add(CUBIC5, total, point)
        assert ec_multiply(CUBIC5, e, point) == total


# -- irreducibility and factoring against oracles that share no code ---------


@pytest.mark.parametrize("p,k,max_deg", [(3, 2, 4), (5, 2, 3), (7, 2, 3), (11, 2, 2)])
def test_is_irreducible_matches_product_sieve(p, k, max_deg):
    field = make_extension(p, k)
    for d in range(1, max_deg + 1):
        reducible = reducible_monics_by_products(field, d)
        for f in monic_polys(field, d):
            assert is_irreducible(f) == (f.coeffs not in reducible), f


def _dense(f):
    """Descending int coefficients of a polynomial over a prime field."""
    return [c.coeffs[0] for c in reversed(f.coeffs)]


_prime_field_polys = st.sampled_from([3, 5, 7, 11, 13]).flatmap(
    lambda p: st.lists(st.integers(0, p - 1), min_size=1, max_size=10).map(
        lambda cs: Poly(make_extension(p, 1), cs)
    )
)


@settings(max_examples=150, deadline=None)
@given(_prime_field_polys)
def test_is_irreducible_matches_sympy(f):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    expected = f.degree >= 1 and galoistools.gf_irreducible_p([ZZ(c) for c in _dense(f)], f.field.p, ZZ)
    assert is_irreducible(f) == bool(expected)


@settings(max_examples=150, deadline=None)
@given(_prime_field_polys.filter(lambda f: not f.is_zero()))
def test_factor_matches_sympy(f):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    want_lead, want = galoistools.gf_factor([ZZ(c) for c in _dense(f)], f.field.p, ZZ)
    lead, factors = factor(f)
    assert lead == f.field.element(int(want_lead))
    assert sorted((_dense(g), e) for g, e in factors) == sorted(([int(c) for c in g], e) for g, e in want)


F121 = make_extension(11, 2)
# a prime of degree 6 over F_121: trial division tried about 1.8 million divisors
SEXTIC = Poly(F121, [F121.element(c) for c in ([3, 7], [8, 6], [7], [7, 6], [8, 6], [6, 4], [1])])


def test_ben_or_work_is_bounded(monkeypatch):
    calls = []
    divmod_ = Poly.__divmod__
    monkeypatch.setattr(Poly, "__divmod__", lambda a, b: calls.append(1) or divmod_(a, b))
    assert PrimePoly.finite(SEXTIC).degree == 6
    assert len(calls) <= 100


def _record_enumerations(monkeypatch):
    """Patch monic_polys and monic_irreducibles to log (name, degree)."""
    seen = []
    for name in ("monic_polys", "monic_irreducibles"):
        original = getattr(funcfield, name)
        monkeypatch.setattr(
            funcfield, name, lambda field, d, _f=original, _n=name: seen.append((_n, d)) or _f(field, d)
        )
    return seen


def test_factor_of_a_prime_square_lists_no_cubics(monkeypatch):
    seen = _record_enumerations(monkeypatch)
    cubic = Poly.from_text(F121, "x^3+x+4")
    assert factor(cubic * cubic) == (F121.one(), [(cubic, 2)])
    assert all(d < 3 for _, d in seen)


def test_factor_splits_equal_degree_products():
    # three linear and two quadratic primes: gcds of degree 3 and 4 are split
    # by equal degree
    f = P5("x") * P5("x+1") ** 2 * P5("x+3") * P5("x^2+2") * P5("x^2+3") ** 3
    _, factors = factor(f)
    assert factors == [(P5("x"), 1), (P5("x+1"), 2), (P5("x+3"), 1), (P5("x^2+2"), 1), (P5("x^2+3"), 3)]


def test_factor_lists_primes_in_the_order_of_monic_irreducibles():
    # one order on polynomials, monic_polys order: over F_5 it puts x^2+2
    # before x^2+x+1, in factor's list as in monic_irreducibles'
    _, factors = factor(P5("x^2+x+1") * P5("x^2+2"))
    assert [g for g, _ in factors] == [g for g in monic_irreducibles(F5, 2) if g in (P5("x^2+2"), P5("x^2+x+1"))]
    assert factors == [(P5("x^2+2"), 1), (P5("x^2+x+1"), 1)]
    for field in (F3, F5, F9):
        rng = random.Random(field.q)
        listed = [g for d in (1, 2, 3) for g in monic_irreducibles(field, d)]
        for _ in range(10):
            primes = rng.sample(listed, 4)
            f = Poly.one(field)
            for g in primes:
                f = f * g ** rng.randrange(1, 3)
            _, factors = factor(f)
            assert [g for g, _ in factors] == sorted(primes, key=listed.index)


def test_enumerations_beyond_the_bound_are_refused(monkeypatch):
    seen = _record_enumerations(monkeypatch)
    with pytest.raises(ValueError, match="enumeration bound"):
        funcfield.monic_irreducibles(F121, 3)
    assert seen == [("monic_irreducibles", 3)]  # refused before listing anything
    # two distinct cubic primes over F_121 share one distinct-degree part,
    # which is split with no list of the 1.77 million monic cubics
    cubics = [f for f in (Poly.from_text(F121, f"x^3+x+{c}") for c in range(11)) if is_irreducible(f)]
    assert factor(cubics[0] * cubics[1]) == (F121.one(), [(cubics[0], 1), (cubics[1], 1)])


def test_factor_splits_planted_products_of_equal_degree_primes():
    # every part of degree > j is split by equal degree, whatever q^j is
    F7 = make_extension(7, 1)
    quintics = [f for f in (Poly.from_text(F7, f"x^5+{b}*x+{c}") for b in (1, 2) for c in range(7)) if is_irreducible(f)]
    cubics = [f for f in (Poly.from_text(F121, f"x^3+x+{c}") for c in range(11)) if is_irreducible(f)]
    for primes in (quintics[:2], quintics, cubics[:3], cubics):
        field = primes[0].field
        rng = random.Random(len(primes) * field.q)
        planted = [(g, rng.randrange(1, 3)) for g in primes]
        f = Poly.constant(field, 3)
        for g, e in planted:
            f = f * g**e
        assert factor(f) == (field.element(3), planted)


@pytest.mark.parametrize("p,k,max_deg", [(3, 2, 6), (5, 2, 5)])
def test_factor_matches_trial_division(p, k, max_deg):
    field = make_extension(p, k)
    elements = list(field.elements())
    rng = random.Random(field.q)
    for _ in range(40):
        f = Poly(field, [rng.choice(elements) for _ in range(rng.randint(2, max_deg + 1))])
        if not f.is_zero():
            assert factor(f) == factor_by_trial_division(f), to_text(f)


def test_monic_irreducible_counts():
    # over F_q there are (q^2 - q)/2 monic irreducible quadratics
    assert len(monic_irreducibles(F5, 1)) == 5
    assert len(monic_irreducibles(F5, 2)) == 10
    assert len(monic_irreducibles(F3, 3)) == 8


# the line strata of genus verification, plus F_3 up to degree 6
@pytest.mark.parametrize(
    "p,k,max_deg",
    [(3, 1, 6), (5, 1, 3), (7, 1, 3), (11, 1, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2), (7, 2, 2)],
)
def test_monic_irreducibles_match_trial_division(p, k, max_deg):
    field = make_extension(p, k)
    for d in range(1, max_deg + 1):
        assert monic_irreducibles(field, d) == monic_irreducibles_by_trial_division(field, d)


def _mobius(n):
    out, m, f = 1, n, 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            out = -out
        f += 1
    return -out if m > 1 else out


def _odd_prime_powers(limit):
    for q in range(3, limit + 1, 2):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k, n = 0, q
        while n % p == 0:
            n, k = n // p, k + 1
        if n == 1:
            yield p, k


@pytest.mark.parametrize("p,k", list(_odd_prime_powers(121)))
def test_monic_irreducible_counts_match_gauss_formula(p, k):
    field = make_extension(p, k)
    q = field.q
    for d in (1, 2):
        gauss = sum(_mobius(j) * q ** (d // j) for j in range(1, d + 1) if d % j == 0) // d
        assert len(monic_irreducibles(field, d)) == gauss


@pytest.mark.parametrize("p,max_deg", [(3, 5), (5, 3), (7, 3), (11, 3), (13, 3)])
def test_monic_irreducibles_match_sympy(p, max_deg):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    field = make_extension(p, 1)
    for d in range(1, max_deg + 1):
        primes = set(monic_irreducibles(field, d))
        for f in monic_polys(field, d):
            dense = [ZZ(c.coeffs[0]) for c in reversed(f.coeffs)]
            assert (f in primes) == galoistools.gf_irreducible_p(dense, p, ZZ)


# -- valuations -----------------------------------------------------------


def prime(field, text):
    return PrimePoly.finite(Poly.from_text(field, text))


def test_valuation_examples():
    p = prime(F5, "x+1")
    r = frac(P5("x+1") * P5("x+1"), P5("x+3"))
    assert valuation(r, p) == 2
    assert valuation(frac(P5("x^3")), PrimePoly.infinite(F5)) == -3
    assert valuation(frac(Poly.one(F5), P5("x")), prime(F5, "x")) == -1
    assert valuation(P5("x^3"), PrimePoly.infinite(F5)) == -3


def test_valuation_additive_random():
    rng = random.Random(23)
    p = prime(F5, "x+1")
    inf = PrimePoly.infinite(F5)
    for _ in range(30):
        parts = [rand_poly(rng, F5, 5), rand_poly(rng, F5, 4), rand_poly(rng, F5, 5), rand_poly(rng, F5, 4)]
        if any(f.is_zero() for f in parts):
            continue
        r = frac(parts[0], parts[1])
        s = frac(parts[2], parts[3])
        for place in (p, inf):
            assert valuation(r * s, place) == valuation(r, place) + valuation(s, place)


def test_valuation_of_zero_rejected():
    with pytest.raises(ValueError):
        valuation(frac(Poly.zero(F5)), prime(F5, "x"))


def test_degree_formula_random():
    # sum over finite primes of v_p(f) * deg(p) equals deg(f)
    rng = random.Random(31)
    for _ in range(15):
        f = rand_poly(rng, F5, 8)
        if f.is_zero():
            continue
        _, factors = factor(f)
        assert sum(g.degree * e for g, e in factors) == f.degree


def test_prime_validation():
    with pytest.raises(ValueError):
        prime(F5, "x^2-1")  # reducible
    with pytest.raises(ValueError):
        PrimePoly.finite(P5("2*x+1"))  # not monic


def test_fractions_with_a_y_part_rejected():
    y = RingFraction.from_ring(RingElement.y(CurveSpec.weierstrass(F5, 2, 3)))
    p = prime(F5, "x+1")
    with pytest.raises(ValueError, match="cubic"):
        valuation(y, p)


# -- arithmetic fast paths against the general path ---------------------------
# A difference is taken in one pass, a constant factor scales the other
# one, 1 and 0 return the other operand, and a Poly of the same field
# skips coercion; each must agree with the general definition.

ARITH_FIELDS = (F5, make_extension(7, 1), F9, make_extension(5, 2))


def _polys(field, max_size=5):
    return st.lists(st.sampled_from(tuple(field.elements())), max_size=max_size).map(lambda cs: Poly(field, cs))


# the second operand is a constant (or zero) about half the time
_poly_pairs = st.sampled_from(ARITH_FIELDS).flatmap(
    lambda field: st.tuples(_polys(field), st.one_of(_polys(field, 1), _polys(field)))
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_poly_pairs)
def test_poly_difference_is_sum_with_negation(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        diff = x - y
        assert diff == x + (-y)
        assert diff.coeffs == Poly(x.field, diff.coeffs).coeffs  # no trailing zeros
    assert a - a == Poly.zero(a.field)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_poly_pairs)
def test_poly_products_match_the_full_convolution(pair):
    a, b = pair
    want = poly_product_by_vectors(a, b)
    for product in (a * b, b * a):
        assert [c.coeffs for c in product.coeffs] == want
    if b.is_constant() and not b.is_zero():
        assert a * b == Poly(a.field, [c * b.coeffs[0] for c in a.coeffs])
        assert a * b.coeffs[0] == a * b


def test_poly_unit_factors_and_zero_subtrahends_return_the_other_operand():
    for field in ARITH_FIELDS:
        f = Poly(field, [field.gen(), 0, 1])
        one, zero = Poly.one(field), Poly.zero(field)
        assert f * one is f and one * f is f and f * 1 is f and 1 * f is f
        assert f - zero is f
        assert f + zero == f and zero + f == f  # a sum takes the general path
        assert (f * zero).is_zero() and (zero - f) == -f


def test_poly_difference_and_divmod_coerce_a_constant_operand():
    for field in ARITH_FIELDS:
        f = Poly(field, [field.gen(), 2, 1])
        two = Poly(field, [2])
        assert f - 2 == f - two and f - field.element(2) == f - two
        assert divmod(f, 2) == divmod(f, two) == (f * field.element(2).inverse(), Poly.zero(field))


def test_equal_primes_hash_equal():
    line = PrimePoly(F5, Poly(F5, [1, 1]))
    same = PrimePoly(F5, Poly(F5, [1, 1]))
    assert line is not same and hash(line) == hash(same)
    assert len({line, same, PrimePoly(F5, None), PrimePoly(F5, None)}) == 2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_poly_pairs, st.integers(-20, 20))
def test_poly_equality_across_types_is_unchanged(pair, n):
    a, b = pair
    field = a.field
    assert (a == b) == (a.coeffs == b.coeffs)
    assert (a == n) == (a.coeffs == Poly.constant(field, n).coeffs)
    c = field.element(n)
    assert (a == c) == (a.is_constant() and a.constant_value() is c)
    other = F3 if field.p != 3 else F5
    assert a != Poly.zero(other) and a != Poly.one(other)
    # a constant of another field of the same characteristic is unequal too
    wide = make_extension(field.p, 2 * field.k).element(n)
    assert a != wide and wide not in [a]
    with pytest.raises(ValueError, match="mismatched base fields"):
        a + Poly.one(other)


def test_poly_keeps_elements_of_its_field():
    F25 = make_extension(5, 2)
    elems = [F25.gen(), F25.element(3), F25.zero(), F25.one()]
    f = Poly(F25, elems)
    assert all(c is e for c, e in zip(f.coeffs, elems))
    assert f == Poly(F25, [e.coeffs for e in elems])
    with pytest.raises(ValueError, match="different field"):
        Poly(F5, [F25.gen()])
    with pytest.raises(ValueError, match="different field"):
        Poly(F25, [F5.one()])
