"""Exact toolkit for the small Witt design S(5,6,12).

Remove one point U from the projective plane of order three and take,
as blocks, the six-point solution sets of the quadratic conditions
q(X) = 2 q(U).  The package provides the GF(3) linear algebra behind
that construction, the plane model, quadric classification, the design
with its block taxonomy and block solver, generic t-design checks, and
the symmetry machinery up to the full automorphism group.  A design
document is its JSON object, in memory as in a design file, and so is
each block's witness in it, from which ``rederive_block`` derives the
block; ``render_structured`` renders every structured output.
"""

import types

from .checks import (
    DesignParams,
    DesignViolation,
    IncidenceStructure,
    affine_residue,
    derived_design,
    lambda_cascade,
    verify_t_design,
)
from .designfile import (
    DesignFileError,
    document_from_model,
    parse_structured,
    render_structured,
    render_table,
)
from .design import (
    Block,
    BlockSolution,
    WittModel,
    as_incidence_structure,
    block_of_form,
    block_through,
    construct,
    rederive_block,
    solve_block_through,
)
from .plane import PLANE, PlaneModel, ProjLine, ProjPoint, collinear_triple_in, normalize
from .quadrics import (
    ConicGeometry,
    QuadraticForm,
    QuadricType,
    canonical_table,
    classify,
    conic_geometry,
    evaluate,
    level_set,
)
from .symmetry import (
    GroupSummary,
    affinities,
    all_automorphisms,
    automorphism_group,
    extend_affinity,
    induced_permutation,
    stabilizer_of,
    verify_extension_formula,
)

# the imports above are the one list of exports: every public name bound here but the modules
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
