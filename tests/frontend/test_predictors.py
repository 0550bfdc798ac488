"""Unit tests for branch predictors and the BTB."""

import pytest

from repro.frontend import (
    BranchTargetBuffer,
    GSharePredictor,
    TagePredictor,
    make_predictor,
)


@pytest.mark.parametrize("name", ["gshare", "tage"])
def test_factory_and_interface(name):
    predictor = make_predictor(name)
    taken = predictor.predict(100)
    assert isinstance(taken, bool)
    predictor.update(100, True)
    state = predictor.snapshot()
    predictor.restore(state)
    predictor.push_history(True)


def test_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_predictor("oracle")


def test_gshare_learns_alternating_pattern():
    predictor = GSharePredictor(table_bits=10, history_bits=8)
    outcome = True
    correct = 0
    total = 200
    for i in range(total):
        history = predictor.snapshot()
        prediction = predictor.predict(42)
        if prediction == outcome:
            correct += 1
        else:
            # Mispredict recovery, as the core does it: restore the
            # pre-prediction history and shift in the actual outcome.
            predictor.restore(history)
            predictor.push_history(outcome)
        predictor.update_with_history(42, outcome, history)
        outcome = not outcome
    # The pattern is perfectly history-correlated: late accuracy is high.
    assert correct > total * 0.6


def test_gshare_snapshot_restores_history():
    predictor = GSharePredictor()
    state = predictor.snapshot()
    predictor.predict(1)
    predictor.predict(2)
    assert predictor.snapshot() != state or state == 0
    predictor.restore(state)
    assert predictor.snapshot() == state


def test_tage_learns_bias():
    predictor = TagePredictor()
    for _ in range(64):
        predictor.update(9, True)
    assert predictor.predict(9) is True


def test_btb_miss_then_hit():
    btb = BranchTargetBuffer(entries=16)
    assert btb.predict(5) is None
    btb.update(5, 123)
    assert btb.predict(5) == 123


def test_btb_conflict_eviction():
    btb = BranchTargetBuffer(entries=16)
    btb.update(5, 100)
    btb.update(5 + 16, 200)  # same slot
    assert btb.predict(5) is None
    assert btb.predict(21) == 200
