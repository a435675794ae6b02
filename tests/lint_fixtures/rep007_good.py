# repro-lint-fixture: path=src/repro/ml/fake_model.py
#
# Library code may use "reference" in ordinary names: only module-level
# reference_* functions, Reference* classes and imports of the tests or
# oracles packages are oracles.
import numpy as np
from numpy.typing import ArrayLike

REFERENCE_TEMPERATURE_C = 50.0


def predict(X: ArrayLike, reference_workload: str = "random") -> np.ndarray:
    def reference_row(row: np.ndarray) -> np.ndarray:
        return row

    return np.asarray(X)


class Regressor:
    reference_temperature_c: float = 50.0

    def reference_predict(self, X: ArrayLike) -> np.ndarray:
        return predict(X)
