"""Tribe-based genetic feature selection.

The population is split into tribes, each searching subsets whose size
clusters around its own target cardinality; histogram-preserving genetic
operators keep that structure intact while inter-tribe competition shifts
individuals toward the tribes finding the better subsets. Fitness is
cross-validated classifier accuracy on the candidate feature columns.

Each module's ``__all__`` is the one list of its public names; the package
re-exports all of them.
"""

from .competition import *  # noqa: F403
from .core import *  # noqa: F403
from .data import *  # noqa: F403
from .evolution import *  # noqa: F403
from .fitness import *  # noqa: F403
from .genesis import *  # noqa: F403
from .harness import *  # noqa: F403
from .oracle import *  # noqa: F403

__version__ = "0.1.0"
