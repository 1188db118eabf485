"""Two-box conditioned-measurement protocols, classical and quantum.

Exact engines, contextual-value estimation, weak-limit analysis and
reproducible Monte Carlo sampling for a minimal pair of protocols in
which postselected averages escape the eigenvalue range: a classical
particle in two boxes watched by a noisy detector that disturbs it, and
a two-level quantum system weakly measured then postselected. The
package computes when the two produce the same anomalous conditioned
averages and what each one pays in disturbance to do so.
"""

from . import analysis, classical, contextual, errors, montecarlo, quantum, tables
from .errors import *
from .contextual import *
from .tables import *
from .classical import *
from .quantum import *
from .analysis import *
from .montecarlo import *

__version__ = "0.1.0"

_MODULES = (errors, contextual, tables, classical, quantum, analysis, montecarlo)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
