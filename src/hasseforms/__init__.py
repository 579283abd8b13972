"""Hasse local-global principle for unimodular symmetric bilinear forms
over coordinate rings of affine curves over finite fields: exact
arithmetic, point counting, genus-witness verification, and bounded
isometry search.

Importing the package loads no submodule: each public name is imported
from its home module on first access, so a process pays only for the
modules it uses."""

import importlib

__version__ = "0.1.0"

# each public name and the module it is read from: its home, or for a name
# that perfbench's tracer wraps elsewhere, the module the tracer looks in
_HOME = {
    name: module
    for module, names in {
        "curvepoints": "AffinePoint enumerate_points point_report",
        "curvering": "CurveSpec RingElement RingFraction RingMatrix congruence",
        "finfield": "FieldElement FiniteField embed is_square make_extension sqrt",
        "forms": "BudgetExceededError GenusWitness GramMatrix MalformedWitnessError diagonalize is_unimodular "
        "isom_search local_isomorphic verify_genus_witness",
        "funcfield": "Poly factor valuation",
        "genus": "GenusReport",
        "hasse": "hasse_principle",
        "local": "FieldForm PrimePoly field_isomorphic",
        "picard": "FAILS HOLDS HasseDecision HasseReason PointCountReport binary_genus_lower_bound has_two_torsion "
        "is_smooth is_ufd picard_order",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def _lazy_names(namespace: dict, homes: dict):
    """A module ``__getattr__`` for names that live in other modules of the
    package: a name of ``homes`` is imported from its module there on first
    access and then bound in ``namespace``, the module's globals, like any
    other attribute; any other name raises AttributeError.  ``__all__``,
    unless the module sets it, and the module's ``__dir__``, which this
    binds, list the public globals and the names of ``homes``, so a star
    import binds those too."""

    def __getattr__(name):
        if name == "__all__":
            return [key for key in namespace["__dir__"]() if key[0] != "_"]
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{homes[name]}"), name)
        return value

    namespace["__dir__"] = lambda: sorted({*namespace, *homes})
    return __getattr__


__getattr__ = _lazy_names(globals(), _HOME)
