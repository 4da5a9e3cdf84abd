"""The record classes are immutable values.

Each record is a ``typing.NamedTuple``: two records of one type built from
the same fields are equal, no field can be reassigned, and the JSON the
CLI prints from them keeps its keys.
"""

import copy
import json
from pathlib import Path

import pytest

from intdigraph import (AntiWalkWitness, Certificate, Digraph, OracleBudget,
                        Ordering, PointRep, StructureWitness, SubdivisionMap,
                        SuffixTable)

GOLDEN = Path(__file__).parent / "golden" / "expected"

RECORDS = [
    (Certificate, dict(vertices=(0, 2), checks={"kernel": True}, algorithm="x",
                       optimal=True, objective="min", value=2)),
    (OracleBudget, dict(subset_n=4, perm_n=3, k33_n=5, time_cap_s=1.5)),
    (SuffixTable, dict(ordering=Ordering((1, 0)), objective="max",
                       values=(1, None), succ=(None, None), candidates=(0,))),
    (StructureWitness, dict(kind="duf-out", vertices=(0, 1, 1, 2),
                            positions=(0, 1, 1, 2))),
    (PointRep, dict(s_points=(0, 1), t_points=(1, 0))),
    (AntiWalkWitness, dict(a=2, b=1, c=0, d=2)),
    (SubdivisionMap, dict(origin=Digraph(2, [(0, 1)]), host=Digraph(3, [(0, 2), (2, 1)]),
                          k=1, paths={(0, 1): (2,)})),
]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    record = cls(**fields)
    assert record == cls(*copy.deepcopy(list(fields.values())))
    assert record._asdict() == fields
    other = dict(fields)
    first = next(iter(fields))
    other[first] = ()
    assert record != cls(**other)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])


def test_certificate_json_keys():
    base = Certificate(vertices=(1, 0), checks={"kernel": True})
    assert list(base.to_json()) == ["set", "size", "checks", "certificate_checked",
                                    "algorithm", "optimal"]
    full = base._replace(objective="max", value=3)
    assert list(full.to_json()) == list(base.to_json()) + ["objective", "value"]
    assert base.size == 2 and base.all_checks_pass()


def test_anti_walk_witness_matches_the_golden_json():
    golden = json.loads((GOLDEN / "recognize-pp-no.out").read_text())
    assert AntiWalkWitness(a=2, b=1, c=0, d=2)._asdict() == golden["witness"]
