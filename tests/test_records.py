"""The spec and result records of the package: construction, defaults,
equality, hashing, repr, frozenness and validation of each record class,
with the semantics the standard library's record decorator gives them."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from resurgence.alien import Transseries
from resurgence.borelfun import PathSpec, SingularityData
from resurgence.errors import MAX_NODES, DivergentIndexError
from resurgence.hyperlog import IteratedIntegral
from resurgence.laplace import (AsymptoticsReport, LateralPair, RaySpec,
                                SummationResult)
from resurgence.mzv import (Evaluation, MzvIndex, RelationCheck,
                            RelationReport, WaWord, _TailForm, _TailLevel)
from resurgence.scalars import ExactScalar

THREE = ExactScalar.coerce(3)
PLUS = SummationResult(1, 2, 64)
MINUS = SummationResult(3, 4, 64)

# (class, fields by name in order, repr); each class once
RECORDS = [
    (Transseries, {"omega": THREE, "components": {1: "x"}},
     "Transseries(omega=<ExactScalar (3)>, components={1: 'x'})"),
    (PathSpec, {"target": THREE, "signs": ("+", -1), "loops": ((1, 2),)},
     "PathSpec(target=<ExactScalar (3)>, signs=('+', -1), loops=((1, 2),))"),
    (SingularityData, {"point": 1, "a0": 2, "chi": None, "chi_series": 4,
                       "path": PathSpec(5)},
     "SingularityData(point=1, a0=2, chi=None, chi_series=4, "
     "path=PathSpec(target=5, signs=(), loops=()))"),
    (IteratedIntegral, {"value": 1.5, "error_estimate": 1e-20, "nodes": 64,
                        "certified": True},
     "IteratedIntegral(value=1.5, error_estimate=1e-20, nodes=64, "
     "certified=True)"),
    (RaySpec, {"theta": 0, "z": 10, "max_nodes": 128, "target_error": 1e-8,
               "prec": 80},
     "RaySpec(theta=0, z=10, max_nodes=128, target_error=1e-08, prec=80)"),
    (SummationResult, {"value": 1, "error_estimate": 2, "nodes_used": 64,
                       "diagnostics": {"method": "ray"}, "certified": True},
     "SummationResult(value=1, error_estimate=2, nodes_used=64, "
     "certified=True)"),
    (LateralPair, {"plus": PLUS, "minus": MINUS, "jump": -2,
                   "error_estimate": 6},
     "LateralPair(plus=SummationResult(value=1, error_estimate=2, "
     "nodes_used=64, certified=False), minus=SummationResult(value=3, "
     "error_estimate=4, nodes_used=64, certified=False), jump=-2, "
     "error_estimate=6)"),
    (AsymptoticsReport, {"orders": (1, 2), "zs": (10,), "sums": (3,),
                         "sups": (4, 5), "sup_errors": (0, 0)},
     "AsymptoticsReport(orders=(1, 2), zs=(10,), sums=(3,), sups=(4, 5), "
     "sup_errors=(0, 0))"),
    (MzvIndex, {"s": (2, 1), "eps": (Fraction(1, 2), 0)},
     "MzvIndex(s=(2, 1), eps=(Fraction(1, 2), Fraction(0, 1)))"),
    (WaWord, {"phases": (1, 0, -1)},
     "WaWord(phases=(Fraction(0, 1), None, Fraction(1, 2)))"),
    (Evaluation, {"value": 1, "error": 2, "certified": True,
                  "flagged": True},
     "Evaluation(value=1, error=2, certified=True, flagged=True)"),
    (_TailForm, {"q": Fraction(1, 3), "t": 2, "c": ([1], None), "err": [0],
                 "R": 5, "cutoff": 64, "P": 80},
     "_TailForm(q=Fraction(1, 3), t=2, c=([1], None), err=[0], R=5, "
     "cutoff=64, P=80)"),
    (_TailLevel, {"q": Fraction(0), "t": 2, "c": ([1],), "err": [0], "P": 80,
                  "remainder": None},
     "_TailLevel(q=Fraction(0, 1), t=2, c=([1],), err=[0], P=80, "
     "remainder=None)"),
    (RelationCheck, {"mode": "stuffle", "terms": (("Ze(5)", 1),), "value": 1,
                     "error": 2, "residual": 0, "budget": 3, "ok": True},
     "RelationCheck(mode='stuffle', terms=(('Ze(5)', 1),), value=1, "
     "error=2, residual=0, budget=3, ok=True)"),
    (RelationReport, {"left": MzvIndex((2,)), "right": MzvIndex((3,)),
                      "product_value": 1, "product_error": 2, "checks": ()},
     "RelationReport(left=MzvIndex(s=(2,), eps=(Fraction(0, 1),)), "
     "right=MzvIndex(s=(3,), eps=(Fraction(0, 1),)), product_value=1, "
     "product_error=2, checks=())"),
]
FROZEN = {PathSpec, IteratedIntegral, RaySpec, SummationResult, LateralPair,
          AsymptoticsReport, MzvIndex, WaWord, Evaluation, RelationCheck,
          RelationReport}
# frozen, but holding a dict: the field tuple cannot be hashed
HOLDS_DICT = {SummationResult, LateralPair}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_position = cls(*fields.values())
    by_name = cls(**fields)
    assert by_position == by_name
    assert repr(by_position) == repr(by_name) == text
    for name in fields:
        assert getattr(by_position, name) == getattr(by_name, name)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, text):
    record = cls(**fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != tuple(fields.values())
    assert record != object()
    name = next(iter(fields))
    other = {MzvIndex: (3, 1), WaWord: (-1,)}.get(cls, 7)
    assert record != cls(**dict(fields, **{name: other}))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_frozen_records_hash_by_fields_and_refuse_changes(cls, fields, text):
    record = cls(**fields)
    name = next(iter(fields))
    if cls not in FROZEN:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, name, 7)
        assert getattr(record, name) == 7
        return
    if cls not in HOLDS_DICT:
        assert hash(record) == hash(cls(**fields))
        assert {record: "kept"}[cls(**fields)] == "kept"
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, name)
    assert record == cls(**fields)


def test_dict_keys_of_the_multizeta_tables():
    """MzvIndex and WaWord key the multizeta dictionaries: records built
    from different spellings of one index are one key."""
    table = {MzvIndex((2, 1)): "a", WaWord((1, 0, -1)): "b"}
    assert table[MzvIndex((2, 1), (0, Fraction(1)))] == "a"
    assert table[WaWord((Fraction(0), None, Fraction(-1, 2)))] == "b"
    assert len({MzvIndex((2,)), MzvIndex((2,), (0,)), MzvIndex((3,))}) == 2


def test_defaults():
    spec = RaySpec(0, 10)
    assert (spec.max_nodes, spec.target_error, spec.prec) == \
        (MAX_NODES, 1e-12, None)
    assert repr(RaySpec(z=10, theta=0)) == (
        f"RaySpec(theta=0, z=10, max_nodes={MAX_NODES}, "
        f"target_error=1e-12, prec=None)")
    path = PathSpec(THREE)
    assert (path.signs, path.loops) == ((), ())
    result = SummationResult(1, 2, 64)
    assert (result.diagnostics, result.certified) == ({}, False)
    assert MzvIndex((2,)).eps == (Fraction(0),)
    assert Evaluation(1, 2, True).flagged is False
    assert Transseries(THREE).components == {}


def test_each_instance_gets_its_own_dict():
    first, second = Transseries(THREE), Transseries(THREE)
    first.components[1] = "x"
    assert second.components == {}
    assert first.components is not second.components
    one, two = SummationResult(1, 2, 64), SummationResult(1, 2, 64)
    one.diagnostics["method"] = "ray"
    assert two.diagnostics == {}
    assert SummationResult(1, 2, 64).diagnostics == {}


def test_diagnostics_stay_out_of_the_repr_but_not_out_of_equality():
    plain = SummationResult(1, 2, 64)
    traced = SummationResult(1, 2, 64, {"method": "ray"})
    assert repr(plain) == repr(traced)
    assert plain != traced


def test_post_init_normalizes_and_methods_stay():
    assert Transseries(3).omega == THREE
    assert MzvIndex([2, 1], [Fraction(3, 2), 1]) == \
        MzvIndex((2, 1), (Fraction(1, 2), 0))
    assert list(LateralPair(PLUS, MINUS, -2, 6)) == [PLUS, MINUS, -2]


def test_constructor_refuses_wrong_arguments():
    with pytest.raises(TypeError):
        Evaluation(1, 2)
    with pytest.raises(TypeError):
        Evaluation(1, 2, True, False, "extra")
    with pytest.raises(TypeError):
        Evaluation(1, 2, True, value=1)
    with pytest.raises(TypeError):
        Evaluation(1, 2, True, colour=1)


def test_validation_errors_are_unchanged():
    with pytest.raises(ValueError, match="max_nodes must be at least 64"):
        RaySpec(0, 10, max_nodes=63)
    with pytest.raises(ValueError, match="target_error must be positive"):
        RaySpec(0, 10, target_error=0)
    with pytest.raises(DivergentIndexError, match="diverge"):
        MzvIndex((1, 2))
    with pytest.raises(ValueError, match="positive integers"):
        MzvIndex((0, 2))
    with pytest.raises(TypeError, match="is not 0, 1, -1, or a Fraction"):
        WaWord((1, 2))
    with pytest.raises(DivergentIndexError, match="first letter 0"):
        WaWord((0, -1))
    with pytest.raises(ValueError, match="detour sign must be"):
        PathSpec(THREE, ("x",))
