"""Exact determinantal resultants of split bundle morphisms on projective space.

The public names are loaded from their modules on first access (PEP 562), so
that importing ``detres`` or one of its modules loads no other module.  They
are looked up afresh on every access, never cached here.
"""

import importlib

_EXPORTS = {
    "polyring": "Polynomial VarSet det_fraction_free monomials_of_degree multivariate_gcd",
    "chern_degree": "ProblemSpec critical_degree existence_check multidegree total_degree",
    "partition_schur": "complex_terms conc dual lemma510 schur_dim",
    "resultant_engine": "ConcreteMorphism GenericMorphism build_sigma generic_morphism"
    " resultant_gcd staircase_specialization vanish_test",
    "scroll_chow": "PlaneStiefel ScrollSpec chow_form chow_problem plane_meets_scroll"
    " plucker_coords scroll_equations",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "1.0.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
