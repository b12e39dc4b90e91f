"""Composition tableaux, labeled Dyck paths, labeled binary trees, and the
bijections and operator actions connecting them.

The submodules split the subject along its natural seams:

- ``core``: permutations, compositions, inversion sets, the left weak order;
- ``tableaux``: (reverse) composition tableaux, validation, enumeration, and
  the shape-rearranging bijection between them;
- ``hecke``: the operator action on standard tableaux, its relations, and
  the source/sink structure of equivalence classes;
- ``dyck``: labeled Dyck paths and their correspondence with two-column
  standard tableaux;
- ``trees``: labeled binary trees, their edge statistics, and the
  conversions to and from labeled Dyck paths;
- ``allowable``: pattern-avoiding permutation pairs and the grid graphs that
  realize them as standard tableaux;
- ``cli``: the ``tk`` command-line interface.
"""

from . import allowable, core, dyck, hecke, tableaux, trees

__version__ = "0.1.0"

__all__ = [
    "allowable",
    "core",
    "dyck",
    "hecke",
    "tableaux",
    "trees",
    "__version__",
]
