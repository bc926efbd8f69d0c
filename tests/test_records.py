# The package's nine records are plain frozen classes on hamsearch._Record:
# each builds by position or by keyword, refuses to set or delete a field,
# and compares, hashes and prints by its field values as a frozen dataclass
# does, array fields by their elements.

import numpy as np
import pytest

from hamsearch.amplify import AmplificationPlan, MajorityEstimate
from hamsearch.decompose import EdgeColoring, InteractionGraph
from hamsearch.search import EquivalenceParams, SearchInstance
from hamsearch.trotter import BlockTerm, HermitianTermSet, TrotterPlan

_HOP = BlockTerm(3, [(0, 1)], [[[1.0, -1.0], [-1.0, 1.0]]], [2], [2.0])

# (record class, its fields by name in order, its repr)
RECORDS = [
    (TrotterPlan, {"total_time": 1.0, "steps": 2}, "TrotterPlan(total_time=1.0, steps=2)"),
    (SearchInstance, {"n": 16}, "SearchInstance(n=16)"),
    (EquivalenceParams, {"q_t": 0.5, "beta": -0.25}, "EquivalenceParams(q_t=0.5, beta=-0.25)"),
    (AmplificationPlan, {"per_run_error": 0.1, "runs": 3, "trials": 10_000, "seed": 7},
     "AmplificationPlan(per_run_error=0.1, runs=3, trials=10000, seed=7)"),
    (MajorityEstimate,
     {"rate": 0.25, "ci_low": 0.125, "ci_high": 0.375, "failures": 2500, "trials": 10_000},
     "MajorityEstimate(rate=0.25, ci_low=0.125, ci_high=0.375, failures=2500, trials=10000)"),
    (EdgeColoring, {"colors": (0, 1), "bipartite": True},
     "EdgeColoring(colors=(0, 1), bipartite=True)"),
    (InteractionGraph, {"vertex_count": 3, "edges": ((0, 1, 1.0), (1, 2, -2.0))},
     "InteractionGraph(vertex_count=3, edges=((0, 1, 1.0), (1, 2, -2.0)))"),
    (BlockTerm, {"dimension": 3, "pairs": [(0, 1)], "blocks": [[[1.0, -1.0], [-1.0, 1.0]]],
                 "sites": [2], "values": [2.0]},
     "BlockTerm(dimension=3, pairs=array([[0, 1]]), blocks=array([[[ 1.+0.j, -1.+0.j],\n"
     "        [-1.+0.j,  1.+0.j]]]), sites=array([2]), values=array([2.]))"),
    (HermitianTermSet, {"dimension": 3, "terms": (_HOP,), "labels": ("hop",)},
     f"HermitianTermSet(dimension=3, terms=({_HOP!r},), labels=('hop',))"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_is_a_frozen_value(cls, fields, text):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert repr(record) == text
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == record and record != object()
    try:
        hash(tuple(fields.values()))
    except TypeError:  # arrays among the fields: the record has no hash either
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)


def test_records_that_hold_arrays_compare_by_their_elements():
    # Equal inputs give equal records, not numpy's "truth value ... is ambiguous".
    pairs, blocks = [(0, 1)], [[[1.0, -1.0], [-1.0, 1.0]]]
    assert BlockTerm(3, pairs, blocks, [2], [2.0]) == BlockTerm(3, pairs, blocks, [2], [2.0])
    assert BlockTerm(3, pairs, blocks, [2], [2.0]) != BlockTerm(3, pairs, blocks, [2], [3.0])
    dense = HermitianTermSet(2, (np.eye(2),), ("a",))
    assert dense == HermitianTermSet(2, (np.eye(2),), ("a",))
    assert dense != HermitianTermSet(2, (2 * np.eye(2),), ("a",))
    assert dense != HermitianTermSet(2, (np.eye(2), np.eye(2)), ("a", "b"))
