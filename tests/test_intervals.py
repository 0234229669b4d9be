"""Half-open interval set algebra."""
from __future__ import annotations

from hypothesis import given, strategies as st

from madtn import IntervalSet


def test_normalization_sorts_merges_and_drops_empties():
    s = IntervalSet.from_pairs([(5.0, 6.0), (1.0, 2.0), (2.0, 3.0), (4.0, 4.0)])
    assert s.intervals == ((1.0, 3.0), (5.0, 6.0))
    assert IntervalSet.from_pairs([(3.0, 1.0)]).is_empty


def test_abutting_intervals_merge_without_double_counting():
    s = IntervalSet.single(0.0, 1.0) | IntervalSet.single(1.0, 2.0)
    assert s.intervals == ((0.0, 2.0),)
    assert s.measure == 2.0


def test_membership_respects_half_open_ends():
    s = IntervalSet.single(1.0, 2.0)
    assert 1.0 in s
    assert 1.999 in s
    assert 2.0 not in s
    assert 0.999 not in s


def test_intersection_and_difference_basics():
    a = IntervalSet.from_pairs([(0.0, 4.0), (6.0, 8.0)])
    b = IntervalSet.from_pairs([(2.0, 7.0)])
    assert (a & b).intervals == ((2.0, 4.0), (6.0, 7.0))
    assert (a - b).intervals == ((0.0, 2.0), (7.0, 8.0))
    assert (b - a).intervals == ((4.0, 6.0),)


def test_difference_can_split_an_interval():
    a = IntervalSet.single(0.0, 10.0)
    b = IntervalSet.from_pairs([(2.0, 3.0), (5.0, 6.0)])
    assert (a - b).intervals == ((0.0, 2.0), (3.0, 5.0), (6.0, 10.0))


def test_repr_lists_half_open_intervals():
    spans = IntervalSet.from_pairs([(2.0, 3.0), (0.0, 1.5)])
    assert repr(spans) == "IntervalSet([0.0, 1.5), [2.0, 3.0))"
    assert repr(IntervalSet.empty()) == "IntervalSet()"


def test_empty_set_behavior():
    empty = IntervalSet.empty()
    full = IntervalSet.single(0.0, 1.0)
    assert not empty
    assert empty.measure == 0.0
    assert (empty & full).is_empty
    assert (full - empty) == full
    assert (empty - full).is_empty
    assert (empty | full) == full


finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
pair_lists = st.lists(st.tuples(finite, finite), max_size=8)


@given(pair_lists, pair_lists)
def test_union_and_intersection_measures_are_additive(first, second):
    a = IntervalSet.from_pairs(first)
    b = IntervalSet.from_pairs(second)
    union, meet = a | b, a & b
    assert abs((union.measure + meet.measure) - (a.measure + b.measure)) < 1e-9


@given(pair_lists, pair_lists)
def test_difference_partitions_the_left_operand(first, second):
    a = IntervalSet.from_pairs(first)
    b = IntervalSet.from_pairs(second)
    assert ((a - b) | (a & b)) == a
    assert ((a - b) & b).is_empty


@given(pair_lists)
def test_normalized_form_is_sorted_and_disjoint(pairs):
    s = IntervalSet.from_pairs(pairs)
    for (s1, e1), (s2, e2) in zip(s.intervals, s.intervals[1:]):
        assert e1 < s2
        assert s1 < e1
    if s.intervals:
        assert s.intervals[-1][0] < s.intervals[-1][1]
