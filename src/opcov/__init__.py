"""Covariance operator estimation by hard thresholding, at desk scale.

Subpackages follow the pipeline: ``kernels`` (correlation models),
``sampling`` (meshes and exact Gaussian draws), ``estimation`` (sample and
thresholded estimators plus norms), ``theory`` (scaling quantities),
``enkf`` (one ensemble Kalman analysis step with localized gains), and
``cli`` (the experiment harness).
"""

from . import enkf, estimation, kernels, sampling, theory

__all__ = ["kernels", "sampling", "estimation", "theory", "enkf"]
__version__ = "0.1.0"
