"""Unit tests for the shadow tracker."""

from repro.core.shadows import ShadowTracker


def test_empty_tracker_is_all_safe():
    tracker = ShadowTracker()
    assert tracker.visibility_point() is None
    assert tracker.is_safe(0)
    assert tracker.is_safe(1000)


def test_visibility_point_is_oldest():
    tracker = ShadowTracker()
    tracker.cast(10)
    tracker.cast(5)
    tracker.cast(20)
    assert tracker.visibility_point() == 5


def test_shadow_source_is_itself_safe():
    tracker = ShadowTracker()
    tracker.cast(5)
    assert tracker.is_safe(5)
    assert not tracker.is_safe(6)
    assert tracker.is_safe(4)


def test_resolution_advances_vp():
    tracker = ShadowTracker()
    tracker.cast(5)
    tracker.cast(9)
    tracker.resolve(5)
    assert tracker.visibility_point() == 9
    tracker.resolve(9)
    assert tracker.visibility_point() is None


def test_resolve_unknown_is_noop():
    tracker = ShadowTracker()
    tracker.resolve(99)
    assert tracker.visibility_point() is None


def test_squash_younger():
    tracker = ShadowTracker()
    for seq in (3, 7, 11):
        tracker.cast(seq)
    tracker.squash_younger(7)
    assert tracker.visibility_point() == 3
    assert tracker.active_count() == 2


def test_clear():
    tracker = ShadowTracker()
    tracker.cast(1)
    tracker.clear()
    assert tracker.active_count() == 0
    assert tracker.visibility_point() is None


def test_active_shadows_sorted():
    tracker = ShadowTracker()
    tracker.cast(9)
    tracker.cast(2)
    assert tracker.active_shadows() == [2, 9]
