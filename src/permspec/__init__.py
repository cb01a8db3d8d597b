"""Finite skeletons of spectra of permutation-module complexes.

The pipeline, bottom to top:

- ``modp``: exact linear algebra over F_p.
- ``groups``: finite groups as Cayley tables, p-subgroup lattices, quotients.
- ``gradedrings``: graded-commutative presentations, Groebner bases, ideals.
- ``complexes``: bounded complexes of permutation modules and the exact
  homotopy oracle (null-homotopy, contractibility, hom dimensions).
- ``twisted``: presented twisted cohomology rings of elementary abelian
  groups, the quotient and restriction maps, closure transport.
- ``sections``: the category of elementary abelian p-sections of a finite
  group, its maximal objects and maximal spans.
- ``spectra``: named spectrum points with their specialization order, one
  skeleton per stratum, glued along the section relations.
- ``verify``: independent cross-checks of the ring presentations against the
  chain-level oracle.
"""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    cyclic,
    dihedral,
    elementary_abelian,
    product,
    quaternion,
)
from .spectra import (  # noqa: F401
    components,
    dimension,
    fold,
    glue,
    p_rank,
    skeleton,
)
from .twisted import closure_ideal, present_Rloc, present_Rtotal  # noqa: F401
