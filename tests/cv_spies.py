"""Spies on ``run_cv`` that recover each fold's fitted scaler and model."""

from dirad import evaluation
from dirad.evaluation import ExperimentResult, _prepare_train, run_cv


class KeepModels:
    """A detector config whose ``fit`` delegates to ``config`` and keeps each
    model it returns."""

    def __init__(self, config):
        self.config, self.models = config, []

    def __getattr__(self, name):
        return getattr(self.config, name)

    def fit(self, train):
        self.models.append(self.config.fit(train))
        return self.models[-1]


def fitted_per_fold(monkeypatch, dataset, config, plan):
    """Each fold's (scaler, model) as ``run_cv`` used them: the scaler from a
    spy on ``evaluation._prepare_train``, the model from ``config.fit``."""
    scalers = []

    def spy(train, scale):
        prepared = _prepare_train(train, scale)
        scalers.append(prepared[0])
        return prepared

    monkeypatch.setattr(evaluation, "_prepare_train", spy)
    keep = KeepModels(config)
    (result,) = run_cv(dataset, [keep], plan)
    assert isinstance(result, ExperimentResult)
    assert len(scalers) == len(keep.models) == len(plan)
    return list(zip(scalers, keep.models))
