"""Nested quadrature rules for generic weight functions.

The package generates Gauss rules from three-term recurrences, grows
Kronrod-style nested pairs and Patterson-style telescoping sequences by
penalized Gauss-Newton optimization, assembles Smolyak sparse grids from
the resulting level families, and persists everything as certified JSON
records.  It exports every public name of its modules; each module's
``__all__`` is the one list of them.
"""

# Before the submodule imports, because rulestore writes it into every
# record's provenance; pyproject.toml reads the package version from here.
__version__ = "0.1.0"

from . import (errors, gauss, nested_optimizer, orthopoly, rulestore,
               sparse_grid)
from .errors import *  # noqa: F403
from .gauss import *  # noqa: F403
from .nested_optimizer import *  # noqa: F403
from .orthopoly import *  # noqa: F403
from .rulestore import *  # noqa: F403
from .sparse_grid import *  # noqa: F403

__all__ = [name for module in (errors, gauss, nested_optimizer, orthopoly,
                               rulestore, sparse_grid)
           for name in module.__all__]
