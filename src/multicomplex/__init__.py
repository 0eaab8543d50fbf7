"""Exact arithmetic, automorphisms, and involution counting for the
multicomplex rings MC(n).

The public names are those in each module's __all__, re-exported here, and
BudgetExceeded.
"""

from .mc_core import *
from .idempotent import *
from .special_elements import *
from .automorphism import *
from .counting import *
from .gf2_preserving import *
from .oracle import *

__version__ = "0.1.0"


class BudgetExceeded(ValueError):
    """Raised by the command line when a command's estimated work is over
    the limit it runs under; nothing is computed."""


__all__ = [
    *mc_core.__all__,
    *idempotent.__all__,
    *special_elements.__all__,
    *automorphism.__all__,
    *counting.__all__,
    *gf2_preserving.__all__,
    *oracle.__all__,
    "BudgetExceeded",
]
