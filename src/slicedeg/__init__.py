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
from operator import attrgetter as _attrgetter

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
        WindowTooSmall staircase_from_alexander torsion_sequence vs_lspace_formula vs_of
        vs_staircase_oracle vs_thin""",
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


class _Frozen:
    """Base of the package's immutable slotted value types.

    A subclass lists its stored attributes in ``__slots__`` and its
    constructor's parameters, in order, in ``_fields``; its ``__init__``
    stores them once.  ``==`` (between instances of one class) and ``hash``
    read ``_key``, the ``_fields`` values unless the subclass defines it;
    ``repr`` lists the ``_fields``.  Assigning or deleting an attribute raises
    AttributeError.  A copy is the value itself; deepcopy and pickle
    rebuild it from its ``_fields`` through the constructor.  Instances can
    be weakly referenced.
    """

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        """Store ``values`` in ``__slots__`` order.

        The constructors the search calls per class store each slot by
        ``object.__setattr__`` instead, at half the cost.
        """
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        if "_key" not in cls.__dict__:
            cls._key = property(_attrgetter(*cls._fields))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __copy__(self):
        return self

    def __reduce__(self):
        return type(self), self._values()
