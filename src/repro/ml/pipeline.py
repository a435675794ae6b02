"""A minimal transformer + regressor pipeline.

Every model in the accuracy evaluation is trained on standardised
features and a log-transformed target, so bundling the scaler with the
estimator keeps the leave-one-workload-out protocol honest: the scaler
statistics are re-fitted on every training fold.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import ArrayLike, Regressor
from repro.telemetry import get_telemetry


class Pipeline(Regressor):
    """Chain of named (transformer..., regressor) steps.

    All steps except the last must implement ``fit``/``transform``; the
    last must implement ``fit``/``predict``.
    """

    def __init__(self, steps: Sequence[Tuple[str, object]]) -> None:
        if not steps:
            raise ConfigurationError("Pipeline requires at least one step")
        names = [name for name, _ in steps]
        if len(set(names)) != len(names):
            raise ConfigurationError("Pipeline step names must be unique")
        for name, step in steps[:-1]:
            if not hasattr(step, "transform"):
                raise ConfigurationError(f"Step {name!r} does not implement transform()")
        last_name, last = steps[-1]
        if not hasattr(last, "predict"):
            raise ConfigurationError(f"Final step {last_name!r} does not implement predict()")
        self.steps = list(steps)

    # The pipeline deep-copies its (unfitted) steps when cloned.
    def clone(self) -> "Pipeline":
        cloned_steps = []
        for name, step in self.steps:
            if hasattr(step, "clone"):
                cloned_steps.append((name, step.clone()))
            else:   # pragma: no cover - steps are always repro.ml estimators
                cloned_steps.append((name, step))
        return Pipeline(cloned_steps)

    def _transform(self, X: ArrayLike) -> np.ndarray:
        data = X
        for _name, step in self.steps[:-1]:
            data = step.transform(data)
        return np.asarray(data, dtype=float)

    def fit(self, X: ArrayLike, y: ArrayLike) -> "Pipeline":
        telemetry = get_telemetry()
        with telemetry.span("ml.fit"):
            data = X
            for _name, step in self.steps[:-1]:
                data = step.fit(data, y).transform(data)
            self.steps[-1][1].fit(data, y)
            if telemetry.enabled:
                telemetry.incr("ml.fit_rows", int(np.shape(data)[0]))
            self.fitted_ = True
            return self

    def predict(self, X: ArrayLike) -> np.ndarray:
        self._check_fitted("fitted_")
        telemetry = get_telemetry()
        with telemetry.span("ml.predict"):
            predictions = self.steps[-1][1].predict(self._transform(X))
            if telemetry.enabled:
                telemetry.incr("ml.predict_rows", int(np.shape(predictions)[0]))
            return predictions
