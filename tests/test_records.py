"""Events, actions and timepoints behave as the dataclasses they are declared as.

``ExecutionEvent`` and ``Action`` fill their fields in a hand-written
``__init__``; these tests pin what the dataclass machinery still promises
for them, next to the checks ``test_io`` pins for their values.
"""
from __future__ import annotations

import dataclasses

import pytest

from madtn import INF, Action, ExecutionEvent, TimePoint


def test_an_event_is_frozen_and_a_value():
    event = ExecutionEvent("robot", "P", "a", 0.0, 1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.start = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del event.agent
    names = [f.name for f in dataclasses.fields(event)]
    assert names == ["agent", "petal", "action", "start", "end"]
    same = ExecutionEvent(agent="robot", petal="P", action="a", start=0.0, end=1.5)
    assert event == same and hash(event) == hash(same) and event is not same
    assert event != ExecutionEvent("robot", "P", "a", 0.0, 2.0)
    assert len({event, same}) == 1
    assert repr(event) == (
        "ExecutionEvent(agent='robot', petal='P', action='a', start=0.0, end=1.5)"
    )
    assert vars(event) == {"agent": "robot", "petal": "P", "action": "a", "start": 0.0, "end": 1.5}
    assert dataclasses.astuple(event) == ("robot", "P", "a", 0.0, 1.5)


def test_replacing_an_event_field_checks_it_again():
    event = ExecutionEvent("robot", "P", "a", 0.0, 1.5)
    later = dataclasses.replace(event, start=1.0)
    assert later == ExecutionEvent("robot", "P", "a", 1.0, 1.5)
    assert event.start == 0.0
    with pytest.raises(ValueError, match="ends at 1.5 before it starts at 2.0"):
        dataclasses.replace(event, start=2.0)


def test_an_action_is_frozen_and_its_own_identity():
    action = Action("grip", 1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.lower = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.start = TimePoint("elsewhere")
    assert [(f.name, f.init) for f in dataclasses.fields(action)] == [
        ("name", True), ("lower", True), ("upper", True), ("start", False), ("end", False),
    ]
    twin = Action(name="grip", lower=1.0, upper=2.0)
    assert action != twin and action == action
    assert hash(action) == object.__hash__(action)
    assert len({action, twin}) == 2
    assert repr(action).startswith("Action(name='grip', lower=1.0, upper=2.0, start=TimePoint(")
    assert (action.start.label, action.end.label) == ("grip.start", "grip.end")
    assert Action("open", 0.5).upper == INF


def test_replacing_an_action_field_makes_new_vertices():
    action = Action("grip", 1.0, 2.0)
    wider = dataclasses.replace(action, upper=3.0)
    assert (wider.name, wider.lower, wider.upper) == ("grip", 1.0, 3.0)
    assert wider.start is not action.start and wider.end is not action.end
    assert wider.start.label == "grip.start"
    with pytest.raises(ValueError):
        dataclasses.replace(action, start=TimePoint("x"))


def test_timepoints_count_up_and_compare_by_identity():
    first = TimePoint(label="a")
    second = TimePoint("a")
    third = TimePoint()
    assert first.uid < second.uid < third.uid
    assert (first.label, third.label) == ("a", "")
    assert first != second and first == first
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
    assert repr(first) == f"TimePoint('a', #{first.uid})"
    action = Action("lift", 0.0)
    assert third.uid < action.start.uid < action.end.uid
    with pytest.raises(TypeError):
        TimePoint("a", 3)
