"""Hasse local-global principle for unimodular symmetric bilinear forms
over coordinate rings of affine curves over finite fields: exact
arithmetic, point counting, genus-witness verification, and bounded
isometry search.

Importing the package loads no submodule: each public name is imported
from its home module on first access, so a process pays only for the
modules it uses."""

import importlib

__version__ = "0.1.0"

# each public name and its home module
_HOME = {
    name: module
    for module, names in {
        "curvepoints": "AffinePoint PointCountReport enumerate_points has_two_torsion is_smooth picard_order "
        "point_report",
        "curvering": "CurveSpec RingElement RingFraction RingMatrix congruence",
        "finfield": "FieldElement FiniteField SquareClass embed is_square make_extension sqrt square_class",
        "forms": "BudgetExceededError FieldForm GenusReport GenusWitness GramMatrix MalformedWitnessError "
        "diagonalize disc_class field_isomorphic is_unimodular isom_search local_isomorphic verify_genus_witness",
        "funcfield": "Poly PrimePoly factor valuation",
        "hasse": "FAILS HOLDS HasseDecision HasseReason binary_genus_lower_bound hasse_principle is_ufd",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
