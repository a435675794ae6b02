"""From-scratch machine-learning substrate used by the error model.

This package provides the three model families the paper evaluates
(KNN, SVM, Random Decision Forest) plus the scalers, the
leave-one-workload-out splitter and the metrics needed for the accuracy
evaluation, implemented on top of numpy/scipy because scikit-learn is
not available offline.
"""

from repro.ml.base import Estimator, Regressor, Transformer
from repro.ml.cross_validation import LeaveOneGroupOut, cross_val_predict_groups
from repro.ml.forest import RandomForestRegressor
from repro.ml.kernels import rbf_kernel
from repro.ml.knn import KNeighborsRegressor
from repro.ml.metrics import mean_percentage_error, prediction_ratio
from repro.ml.pipeline import Pipeline
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVR
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "Estimator",
    "Regressor",
    "Transformer",
    "LeaveOneGroupOut",
    "cross_val_predict_groups",
    "RandomForestRegressor",
    "rbf_kernel",
    "KNeighborsRegressor",
    "mean_percentage_error",
    "prediction_ratio",
    "Pipeline",
    "StandardScaler",
    "SVR",
    "DecisionTreeRegressor",
]
