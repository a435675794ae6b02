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
from repro.ml.base import ArrayLike, Regressor, as_2d_array
from repro.telemetry import get_telemetry


class Pipeline(Regressor):
    """Chain of named (transformer..., regressor) steps.

    All steps except the last must be transformers (``fit``/``transform``
    and the checked-input ``_transform``); the last must be a regressor
    (``fit``/``predict`` and the checked-input ``_predict``).
    """

    def __init__(self, steps: Sequence[Tuple[str, object]]) -> None:
        if not steps:
            raise ConfigurationError("Pipeline requires at least one step")
        names = [name for name, _ in steps]
        if len(set(names)) != len(names):
            raise ConfigurationError("Pipeline step names must be unique")
        for name, step in steps[:-1]:
            if not hasattr(step, "_transform"):
                raise ConfigurationError(f"Step {name!r} does not implement transform()")
        last_name, last = steps[-1]
        if not hasattr(last, "_predict"):
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

    def fit(self, X: ArrayLike, y: ArrayLike) -> "Pipeline":
        """Validate ``X`` once, then fit each step on its checked-input output.

        Each transformer's ``fit`` still checks what it is given; its
        output then passes through the checked-input ``_transform``
        rather than a re-validating ``transform``.
        """
        telemetry = get_telemetry()
        with telemetry.span("ml.fit"):
            data = as_2d_array(X)
            for _name, step in self.steps[:-1]:
                data = step.fit(data, y)._transform(data)
            self.steps[-1][1].fit(data, y)
            if telemetry.enabled:
                telemetry.incr("ml.fit_rows", int(np.shape(data)[0]))
            self.fitted_ = True
            return self

    def predict(self, X: ArrayLike) -> np.ndarray:
        """Validate ``X`` once, then run every step's checked-input path.

        The query must be a non-empty, finite 2-D batch; the steps then
        skip the re-validation their public ``transform``/``predict``
        perform.
        """
        self._check_fitted("fitted_")
        telemetry = get_telemetry()
        with telemetry.span("ml.predict"):
            predictions = self._predict(as_2d_array(X))
            if telemetry.enabled:
                telemetry.incr("ml.predict_rows", int(np.shape(predictions)[0]))
            return predictions

    def _predict(self, X: np.ndarray) -> np.ndarray:
        data = X
        for _name, step in self.steps[:-1]:
            data = step._transform(data)
        return self.steps[-1][1]._predict(data)
