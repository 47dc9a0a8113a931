"""The plain records: NamedTuples that keep the repr, immutability and hash
they had as frozen dataclasses."""

import pytest

from proxyline import (
    BeliefState, DominatingCheck, DominatingVerdict, Interval, ManipulationVerdict, MetaSegment,
    ObservedState, Scheduler,
)
from proxyline.dynamics import _Policy


RECORDS = [
    (ObservedState((1.0,), 0), "ObservedState(declared=(1.0,), winner_id=0)"),
    (
        BeliefState(ObservedState((0.0, 2.0), 1), Interval(1.0, 2.0, True, False)),
        "BeliefState(observed=ObservedState(declared=(0.0, 2.0), winner_id=1), "
        "interval=Interval(lo=1.0, hi=2.0, lo_open=True, hi_open=False))",
    ),
    (ManipulationVerdict(False), "ManipulationVerdict(manipulable=False, witness_proxy=None, "
                                 "witness_position=None)"),
    (
        DominatingCheck(DominatingVerdict.NOT_WEAKLY_BETTER, (1.0,)),
        "DominatingCheck(verdict=<DominatingVerdict.NOT_WEAKLY_BETTER: 'not_weakly_better'>, "
        "counterexample=(1.0,))",
    ),
    (MetaSegment(0, 1, 1, 2.0, 1.0),
     "MetaSegment(start=0, length=1, mover=1, entry_delta=2.0, exit_delta=1.0)"),
    (Scheduler((1, 0)), "Scheduler(order=(1, 0))"),
    (_Policy(("fraction",), None, None, None),
     "_Policy(params=('fraction',), space=None, full=None, partial=None)"),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_immutability_and_hash(record, text):
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    copy = type(record)(*record)
    assert copy == record and hash(copy) == hash(record)
    assert record == tuple(record)  # a NamedTuple compares equal to its plain tuple
