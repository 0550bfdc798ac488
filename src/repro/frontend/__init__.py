"""Front-end components: branch direction predictors, BTB, fetch helpers."""

from repro.frontend.branch_predictor import (
    BranchTargetBuffer,
    GSharePredictor,
    TagePredictor,
    make_predictor,
)

__all__ = [
    "BranchTargetBuffer",
    "GSharePredictor",
    "TagePredictor",
    "make_predictor",
]
