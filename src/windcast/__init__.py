"""windcast: probabilistic short-term wind speed forecasting.

Estimates the geostrophic wind from a surface pressure/temperature
network, removes diurnal cycles, and issues 1- to 6-hour-ahead truncated
normal predictive distributions from space-time regressions trained by
CRPS minimization, with a full verification suite. The predictive law
has no class: ``windcast.predictive`` evaluates it as vectorized functions
of its parameter arrays (``cdf_values``, ``quantile_values``,
``crps_values``).
"""

import os

# One BLAS thread per process (--jobs parallelizes; workers inherit; explicit values win)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"

from .errors import WindcastError  # noqa: F401
from .series import Network, StationMeta, StationSeries  # noqa: F401
