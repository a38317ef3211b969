"""heatlab: heat kernels of symmetric Markov semigroups on the real line.

Discretizes Sturm-Liouville generators on a truncated window, computes
their heat kernels spectrally, and verifies weighted-Nash / Lyapunov
decay bounds against the exact Ornstein-Uhlenbeck (Mehler) oracle.

The package republishes the ``__all__`` of ``measures``, ``spectral`` and
``bounds`` and the four error classes of ``errors``.
"""

from .errors import CalibrationError, ConfigError, IntegrabilityError, NumericError
from .measures import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403

__version__ = "0.1.0"
