"""rankguard: two-sample rank testing that stays valid under arbitrary
missing data.

The core idea: with the sample sizes known but some values unobserved, the
two-sample rank statistic is confined to a computable interval, and so is
its p-value. Declare significance only when the entire interval rejects;
then no completion of the missing values, however adversarial, can overturn
the verdict.
"""

from .bounds import *
from .distributions import *
from .exceptions import *
from .gaussian import *
from .multiplicity import *
from .power import *
from .ranks import *
from .robust import *
from .simulate import *
from .wmw import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names; importing a
# submodule binds it here too
__all__ = sorted(name for module in (bounds, distributions, exceptions, gaussian, multiplicity,
                                     power, ranks, robust, simulate, wmw)
                 for name in module.__all__)
