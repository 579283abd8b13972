"""The six record types: constructors, value equality, hashing, frozen
points, repr text and witness validation."""

import pytest

from hasseforms.curvepoints import AffinePoint, PointCountReport, point_report
from hasseforms.curvering import CurveSpec, RingElement, RingFraction, RingMatrix, diagonal_rows
from hasseforms.finfield import make_extension
from hasseforms.forms import GenusReport, GenusWitness, GramMatrix, MalformedWitnessError
from hasseforms.funcfield import Poly
from hasseforms.hasse import HasseDecision, HasseReason

F5 = make_extension(5, 1)
LINE5 = CurveSpec.polyline(F5)
EC = CurveSpec.weierstrass(F5, 1, 1)


def point(x, y, degree=1):
    return AffinePoint(F5.element(x), F5.element(y), degree)


def reason(**changes):
    fields = dict(pic_order=1, pic_parity="odd", ufd=True, two_torsion=None, criterion="c")
    fields.update(changes)
    return HasseReason(**fields)


def identity_witness(gram):
    return GenusWitness(gram, ((RingMatrix(gram.curve, diagonal_rows([1] * gram.n)), RingElement.one(gram.curve)),))


# one equal pair and one differing value per record type
CASES = [
    (lambda: point(1, 2), lambda: point(1, 2, 2)),
    (lambda: PointCountReport(3, 4, True, ()), lambda: PointCountReport(3, 4, True, (), pic_order=4)),
    (lambda: GenusReport("Certified", 2, (True,), (), ()), lambda: GenusReport("GapFound", 2, (True,), (), ())),
    (lambda: identity_witness(GramMatrix.identity(LINE5, 1)), lambda: identity_witness(GramMatrix.diagonal(LINE5, [2]))),
    (lambda: reason(), lambda: reason(ufd=False)),
    (lambda: HasseDecision("Holds", 2, reason()), lambda: HasseDecision("Holds", 3, reason())),
]


def test_affine_point_constructor():
    x, y = F5.element(1), F5.element(2)
    for p in (AffinePoint(x, y, 1), AffinePoint(x=x, y=y, degree=1), AffinePoint(y=y, x=x, degree=1)):
        assert (p.x, p.y, p.degree, p.prime) == (x, y, 1, None)
    assert AffinePoint(x, y, 3).degree == 3
    with pytest.raises(TypeError):
        AffinePoint(x)
    with pytest.raises(TypeError):  # the degree has no default
        AffinePoint(x, y)
    with pytest.raises(TypeError):  # the prime is passed by name only
        AffinePoint(x, y, 1, 2)
    with pytest.raises(TypeError):
        AffinePoint(x, y, colour=1)


def test_point_count_report_constructor():
    report = PointCountReport(3, 4, True, ())
    assert (report.affine, report.total, report.smooth, report.singular_points) == (3, 4, True, ())
    assert (report.pic_order, report.pic_parity, report.two_torsion, report.warning) == (None,) * 4
    full = PointCountReport(3, 4, True, (), 4, "even", False, "w")
    assert full == PointCountReport(
        affine=3, total=4, smooth=True, singular_points=(), pic_order=4, pic_parity="even", two_torsion=False, warning="w"
    )
    assert (full.pic_order, full.pic_parity, full.two_torsion, full.warning) == (4, "even", False, "w")
    # reports are filled in after construction
    report.pic_order = 9
    assert report.pic_order == 9
    with pytest.raises(TypeError):
        PointCountReport(3, 4, True)


def test_genus_report_constructor():
    report = GenusReport("GapFound", 2, (True, False), (point(1, 2),), (point(4, 0),))
    assert report == GenusReport(
        verdict="GapFound", degree=2, identity_ok=(True, False), covered=(point(1, 2),), uncovered=(point(4, 0),)
    )
    assert (report.verdict, report.degree, report.identity_ok) == ("GapFound", 2, (True, False))
    assert (report.covered, report.uncovered) == ((point(1, 2),), (point(4, 0),))
    with pytest.raises(TypeError):
        GenusReport("GapFound", 2, (), ())


def test_hasse_records_constructor():
    r = HasseReason(1, "odd", True, None, "c")
    assert r == HasseReason(pic_order=1, pic_parity="odd", ufd=True, two_torsion=None, criterion="c")
    assert (r.pic_order, r.pic_parity, r.ufd, r.two_torsion, r.criterion) == (1, "odd", True, None, "c")
    d = HasseDecision("Fails", 2, r)
    assert d == HasseDecision(verdict="Fails", rank=2, reason=r)
    assert (d.verdict, d.rank, d.reason, d.holds) == ("Fails", 2, r, False)
    assert HasseDecision("Holds", 3, r).holds
    with pytest.raises(TypeError):
        HasseReason(1, "odd", True, None)
    with pytest.raises(TypeError):
        HasseDecision("Holds", 2)


def test_genus_witness_constructor():
    g = GramMatrix.identity(LINE5, 2)
    pair = (RingMatrix(LINE5, diagonal_rows([1, 1])), RingElement.one(LINE5))
    # a list of pairs is validated into a tuple
    witness = GenusWitness(g, [pair])
    assert witness.target is g and witness.pairs == (pair,)
    assert witness == GenusWitness(target=g, pairs=(pair,))
    with pytest.raises(TypeError):
        GenusWitness(g)


@pytest.mark.parametrize("make, other", CASES)
def test_records_compare_by_value_and_class(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert make() != other()
    values = [getattr(a, name) for name in _field_names(a)]
    lookalike = type("Lookalike", (type(a),), {})(*values)
    assert a != lookalike and lookalike != a
    assert a != tuple(values)


def _field_names(record):
    return {
        AffinePoint: ("x", "y", "degree"),
        PointCountReport: (
            "affine", "total", "smooth", "singular_points", "pic_order", "pic_parity", "two_torsion", "warning",
        ),
        GenusReport: ("verdict", "degree", "identity_ok", "covered", "uncovered"),
        GenusWitness: ("target", "pairs"),
        HasseReason: ("pic_order", "pic_parity", "ufd", "two_torsion", "criterion"),
        HasseDecision: ("verdict", "rank", "reason"),
    }[type(record)]


def test_affine_point_hashes_by_value():
    assert hash(point(1, 2)) == hash(point(1, 2, 1))
    assert len({point(1, 2), point(1, 2), point(1, 3), point(1, 2, 2)}) == 3
    assert {point(0, 1): "p"}[point(0, 1)] == "p"


def test_affine_point_refuses_assignment():
    p = point(1, 2)
    for name, value in (("x", F5.element(3)), ("degree", 2), ("colour", "red")):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(AttributeError):
        del p.x
    assert p == point(1, 2)


@pytest.mark.parametrize("make", [make for make, _ in CASES[1:]])
def test_other_records_are_unhashable(make):
    record = make()
    assert type(record).__hash__ is None
    with pytest.raises(TypeError):
        hash(record)


def test_record_reprs():
    r = HasseReason(pic_order=1, pic_parity="odd", ufd=True, two_torsion=None, criterion="c")
    assert repr(r) == "HasseReason(pic_order=1, pic_parity='odd', ufd=True, two_torsion=None, criterion='c')"
    assert repr(HasseDecision("Holds", 2, r)) == (
        "HasseDecision(verdict='Holds', rank=2, reason=HasseReason(pic_order=1, pic_parity='odd', "
        "ufd=True, two_torsion=None, criterion='c'))"
    )
    assert repr(point(1, 2)) == "(F5(1), F5(2))"
    assert repr(PointCountReport(3, 4, True, ())) == (
        "PointCountReport(affine=3, total=4, smooth=True, singular_points=(), pic_order=None, "
        "pic_parity=None, two_torsion=None, warning=None)"
    )
    assert repr(PointCountReport(3, 4, False, (point(1, 2),), warning="w")) == (
        "PointCountReport(affine=3, total=4, smooth=False, singular_points=((F5(1), F5(2)),), "
        "pic_order=None, pic_parity=None, two_torsion=None, warning='w')"
    )
    assert repr(GenusReport("Certified", 2, (True,), (point(1, 2),), ())) == (
        "GenusReport(verdict='Certified', degree=2, identity_ok=(True,), covered=((F5(1), F5(2)),), uncovered=())"
    )
    assert repr(GenusWitness(GramMatrix.identity(LINE5, 1), ())) == (
        "GenusWitness(target=GramMatrix(((RingFraction(RingElement('1')),),)), pairs=())"
    )
    gram = GramMatrix.identity(EC, 1)
    assert repr(identity_witness(gram)) == (
        f"GenusWitness(target={gram!r}, pairs=(({RingMatrix(EC, [[1]])!r}, {RingElement.one(EC)!r}),))"
    )


def test_point_report_repr_of_line_and_singular_cubic():
    assert repr(point_report(LINE5)) == (
        "PointCountReport(affine=5, total=6, smooth=True, singular_points=(), pic_order=1, "
        "pic_parity='odd', two_torsion=None, warning=None)"
    )
    singular = point_report(CurveSpec.weierstrass(F5, 2, 3))
    assert repr(singular).startswith(
        "PointCountReport(affine=6, total=7, smooth=False, singular_points=((F5(4), F5(0)),), pic_order=None"
    )


def test_genus_witness_rejects_bad_pairs():
    g = GramMatrix.identity(LINE5, 1)
    one = RingElement.one(LINE5)
    q = RingMatrix(LINE5, [[1]])
    with pytest.raises(TypeError):
        GenusWitness(g, ((one, one),))
    with pytest.raises(TypeError):
        GenusWitness(g, ((q, q),))
    with pytest.raises(MalformedWitnessError):
        GenusWitness(g, ((q, RingElement.zero(LINE5)),))
    x = Poly.from_text(F5, "x")
    bad = RingMatrix(LINE5, [[RingFraction(LINE5, one, x)]])
    with pytest.raises(MalformedWitnessError):
        GenusWitness(g, ((bad, RingElement(LINE5, Poly.from_text(F5, "x+1"))),))
    # the same denominator is fine when the locus vanishes there
    assert GenusWitness(g, ((bad, RingElement(LINE5, x)),)).pairs[0][0] is bad
    with pytest.raises(ValueError):
        GenusWitness(g, ((RingMatrix(EC, [[1]]), RingElement.one(EC)),))


def test_genus_witness_validates_through_post_init(monkeypatch):
    # the validation is looked up on the class at each construction, so a
    # wrapper installed on GenusWitness.__post_init__ sees every witness
    calls = []
    original = GenusWitness.__post_init__

    def recording(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(GenusWitness, "__post_init__", recording)
    witness = identity_witness(GramMatrix.identity(LINE5, 1))
    assert calls == [witness] and calls[0] is witness
