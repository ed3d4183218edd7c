"""slicedeg: certified bounds for the slicing degree of knots.

The slicing degree sd+(K) is the least k >= 0 such that K bounds a smooth
disk of self-intersection -k in a punctured connected sum of negatively
oriented complex projective planes.  This package ingests knot invariants
(signature, Rasmussen s over any characteristic, tau, V_s data, instanton
Gamma values, surgery friendships, construction witnesses), enumerates the
candidate disk homology classes at each level, and certifies intervals
[lower, upper] with per-class obstruction witnesses.  All verdict
arithmetic is exact.

Exported names and submodules are imported on first use (PEP 562), so
loading a database imports only ``knots`` and ``staircase``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Exported names by defining submodule.
_EXPORTS = {
    "engine": """ALL_OBSTRUCTIONS BetaTableRow BoundReport ClassCertificate
        CyclicRelationWarning EngineConfig LevelCertificate LowerBoundSearch TableRow
        beta_table bound_report display_interval lower_bound report_table
        report_to_jsonable upper_bound""",
    "knots": """DatabaseError Diagnostic FriendshipRecord KnotDatabase KnotRecord
        UpperWitness VsSpec bundled_database_path load_knot_db parse_knot_db
        serialize_knot_db validate_record""",
    "lattice": "HomologyClass LaurentPoly enumerate_classes eta kappa16",
    "obstructions": """Verdict beta_adjunction double_twist_gamma friend_rule
        gamma_general null_class_check stau_bound vs_obstruction""",
    "staircase": """NotLSpaceForm OracleDisagreement Staircase VsSequence VsUnavailable
        WindowTooSmall staircase_from_alexander torsion_coefficients torsion_sequence
        vs_lspace_formula vs_of vs_staircase_oracle vs_thin""",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
