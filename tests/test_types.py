"""The value types' contract: immutable, with a fixed repr, equality, hash and copy behaviour."""

import copy
import json
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest
from test_engine import DEEP

from slicedeg.engine import (
    BetaTableRow,
    BoundReport,
    ClassCertificate,
    EngineConfig,
    LevelCertificate,
    LowerBoundSearch,
    TableRow,
    bound_report,
    lower_bound,
)
from slicedeg.knots import (
    Diagnostic,
    FriendshipRecord,
    KnotDatabase,
    KnotRecord,
    UpperWitness,
    VsSpec,
    parse_knot_db,
)
from slicedeg.lattice import HomologyClass, LaurentPoly, OddVector
from slicedeg.obstructions import Verdict, _Layers
from slicedeg.staircase import Staircase, VsSequence, vs_thin

KILL = Verdict(True, {"rule": "beta_adjunction", "beta": 4, "rhs": 2})
RECORD = KnotRecord("3_1", -2, {0: 2}, 1, VsSpec("thin"), gamma={1: Fraction(1, 3)},
                    friends=(FriendshipRecord(4, "x", 6),), upper_witnesses=(UpperWitness(4, "d"),))

# One instance of each value type, with its repr as the dataclasses made it.
INSTANCES = {
    "VsSpec": (VsSpec("explicit", (2, 1)), "VsSpec(kind='explicit', values=(2, 1))"),
    "FriendshipRecord": (
        FriendshipRecord(4, "x", 6), "FriendshipRecord(k=4, friend_name='x', friend_s=6)"
    ),
    "UpperWitness": (UpperWitness(4, "d"), "UpperWitness(k=4, description='d')"),
    "KnotRecord": (
        RECORD,
        "KnotRecord(name='3_1', signature=-2, s_invariants={0: 2}, tau=1, "
        "vs_spec=VsSpec(kind='thin', values=()), alexander=None, clasp_plus=None, "
        "slicing_number=None, gamma={1: Fraction(1, 3)}, "
        "friends=(FriendshipRecord(k=4, friend_name='x', friend_s=6),), "
        "upper_witnesses=(UpperWitness(k=4, description='d'),), concordant_to=None, "
        "connected_sum_of=None)",
    ),
    "KnotDatabase": (
        KnotDatabase({"a": KnotRecord("a", 0)}, ("w",)),
        "KnotDatabase(records=mappingproxy({'a': KnotRecord(name='a', signature=0, "
        "s_invariants={}, tau=None, vs_spec=VsSpec(kind='unknown', values=()), alexander=None, "
        "clasp_plus=None, slicing_number=None, gamma={}, friends=(), upper_witnesses=(), "
        "concordant_to=None, connected_sum_of=None)}), warnings=('w',))",
    ),
    "Diagnostic": (
        Diagnostic("error", "tau", "bad"),
        "Diagnostic(severity='error', field='tau', message='bad')",
    ),
    "HomologyClass": (HomologyClass((2, 1)), "HomologyClass(a=(2, 1))"),
    "OddVector": (OddVector((1, -3)), "OddVector(values=(1, -3))"),
    "LaurentPoly": (LaurentPoly({1: 2, -1: -1}), "LaurentPoly(coeffs={1: 2, -1: -1})"),
    "Verdict": (
        Verdict(False, note="n"), "Verdict(obstructed=False, witness=None, note='n')"
    ),
    "Verdict (obstructing)": (
        KILL,
        "Verdict(obstructed=True, witness=mappingproxy({'rule': 'beta_adjunction', 'beta': 4, "
        "'rhs': 2}), note=None)",
    ),
    "_Layers": (_Layers(3, (0b1111, 0b1001)), "_Layers(offset=3, layers=(15, 9))"),
    "VsSequence": (VsSequence((3, 2, 1)), "VsSequence(values=(3, 2, 1))"),
    "vs_thin": (vs_thin(5), "vs_thin(5)"),
    "Staircase": (Staircase((1, 3)), "Staircase(n=(1, 3))"),
    "EngineConfig": (
        EngineConfig(max_k=3, obstructions=frozenset({"s"}), parallelism=2),
        "EngineConfig(max_k=3, obstructions=frozenset({'s'}), gamma_c_sweep=False, parallelism=2)",
    ),
    "ClassCertificate": (
        ClassCertificate(HomologyClass((1, 1)), "beta[s_0]", KILL),
        "ClassCertificate(cls=HomologyClass(a=(1, 1)), rule='beta[s_0]', verdict=Verdict("
        "obstructed=True, witness=mappingproxy({'rule': 'beta_adjunction', 'beta': 4, "
        "'rhs': 2}), note=None))",
    ),
    "LevelCertificate": (
        LevelCertificate(0, "null_class", MappingProxyType({"rule": "null_class"})),
        "LevelCertificate(level=0, kind='null_class', witness=mappingproxy({'rule': "
        "'null_class'}), classes=())",
    ),
    "LowerBoundSearch": (
        LowerBoundSearch(3, False, HomologyClass((1,)), ()),
        "LowerBoundSearch(level=3, exhausted=False, surviving_class=HomologyClass(a=(1,)), "
        "certificates=())",
    ),
    "BoundReport": (
        BoundReport("0_1", 0, False, 0, "witness", HomologyClass(()), ()),
        "BoundReport(knot='0_1', lower=0, lower_exhausted=False, upper=0, "
        "upper_witness='witness', surviving_class=HomologyClass(a=()), certificates=())",
    ),
    "BetaTableRow": (
        BetaTableRow(2, 4, HomologyClass((2,))),
        "BetaTableRow(beta=2, min_k=4, witness=HomologyClass(a=(2,)))",
    ),
    "TableRow": (
        TableRow("a", None, None, "error", error="x"),
        "TableRow(name='a', lower=None, upper=None, display='error', error='x')",
    ),
}
# Holding a read-only mapping, these neither deepcopy nor pickle, as with dataclasses.
HOLD_A_MAPPINGPROXY = {
    "KnotDatabase", "Verdict (obstructing)", "ClassCertificate", "LevelCertificate",
}
FIELDS = {
    "HomologyClass": ("a", "norm"),
    "KnotDatabase": ("records", "warnings"),
    "vs_thin": ("tau", "values"),
    "LowerBoundSearch": ("level", "exhausted", "surviving_class", "certificates"),
    "BoundReport": ("knot", "lower", "surviving_class", "certificates"),
}
NAMES = list(INSTANCES)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    value, text = INSTANCES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(name):
    value, _ = INSTANCES[name]
    for field in FIELDS.get(name, value._fields):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)


@pytest.mark.parametrize("name", NAMES)
def test_copies_equal_where_they_did(name):
    value, _ = INSTANCES[name]
    assert copy.copy(value) == value
    if name in HOLD_A_MAPPINGPROXY:
        for copier in (copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError, match="mappingproxy"):
                copier(value)
    else:
        for copier in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            again = copier(value)
            assert again == value and type(again) is type(value) and repr(again) == repr(value)


def test_bound_report_with_certificates_neither_deepcopies_nor_pickles():
    report = BoundReport("k", 1, False, None, None, None,
                         (LevelCertificate(0, "null_class", MappingProxyType({})),))
    assert copy.copy(report) == report
    for copier in (copy.deepcopy, pickle.dumps):
        with pytest.raises(TypeError, match="mappingproxy"):
            copier(report)


def test_parallelism_is_not_compared():
    assert EngineConfig(parallelism=2) == EngineConfig()
    assert hash(EngineConfig(parallelism=2)) == hash(EngineConfig())
    assert EngineConfig(max_k=2) != EngineConfig()


def test_norm_is_not_compared():
    scrambled = HomologyClass((2, 1))
    object.__setattr__(scrambled, "norm", 0)
    assert scrambled == HomologyClass((2, 1)) and hash(scrambled) == hash(HomologyClass((2, 1)))


def test_values_of_different_types_differ():
    assert Staircase((1,)) != OddVector((1,)) and HomologyClass((1,)) != (1,)


def test_no_default_map_is_shared():
    doc = json.dumps([{"name": "a", "signature": 0, "vs_spec": {"type": "thin"}, "tau": 0},
                      {"name": "b", "signature": 0, "vs_spec": {"type": "thin"}, "tau": 0}])
    parsed = tuple(parse_knot_db(doc))
    for a, b in ((KnotRecord("a", 0), KnotRecord("b", 0)), parsed):
        assert a.s_invariants == {} and a.s_invariants is not b.s_invariants
        assert a.gamma == {} and a.gamma is not b.gamma
        a.s_invariants[0] = 2
        a.gamma[1] = Fraction(1)
        assert b.s_invariants == {} and b.gamma == {}
    assert LaurentPoly().coeffs is not LaurentPoly().coeffs
    # The parsed records share one thin spec, which stays read-only.
    assert parsed[0].vs_spec is parsed[1].vs_spec
    with pytest.raises(AttributeError):
        parsed[0].vs_spec.kind = "explicit"


def test_deferred_certificates_are_built_once():
    for make in (lambda certificates: LowerBoundSearch(0, False, HomologyClass(()), certificates),
                 lambda certificates: BoundReport("k", 0, False, None, None, HomologyClass(()),
                                                  certificates)):
        built = []
        value = make(lambda: built.append(1) or ())
        assert not built
        assert value.certificates == () and value.certificates == () and built == [1]


def test_hashing_a_search_or_report_fails_before_listing_certificates():
    for value in (lower_bound(DEEP), bound_report(DEEP)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        assert callable(value._certificates)
