# repro-lint-fixture: path=src/repro/ml/fake_oracle.py
# expect: REP007:9 REP007:10 REP007:13 REP007:17
#
# Oracles pin tests; in the library they are dead weight that callers
# can come to depend on.
import numpy as np
from numpy.typing import ArrayLike

import tests.oracles.ml
from oracles.dataset import encode_rows


def reference_predict(X: ArrayLike) -> np.ndarray:
    return np.asarray(X)


class ReferenceRegressor:
    def predict(self, X: ArrayLike) -> np.ndarray:
        return reference_predict(X)
