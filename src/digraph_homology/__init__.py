"""Path and cubical homology of finite digraphs over the integers.

Core objects: validated digraphs with products, cones and suspensions;
exact integer linear algebra (sparse echelon bases, saturated kernels and
cokernels); the allowed-chain complex and path homology; singular cubical
homology with the comparison map into path homology; grid maps with
homotopy certificates and their induced homology classes.  The dense
lattice and Smith-form references the tests check these against live in
the test suite, not in the package.
"""

from .digraphs import (
    Digraph,
    DigraphMap,
    LineSpec,
    box_product,
    build_digraph,
    check_digraph_map,
    cone,
    cycle_digraph,
    digraph_from_json,
    digraph_to_json,
    identity_map,
    inclusion_map,
    is_subdigraph,
    make_grid,
    make_line,
    standard_line,
    suspension,
)
from .intlinalg import AbelianGroup, IntMatrix
from .chains import (
    ChainComplex,
    ChainComplexPair,
    GroupMap,
    HomologyClass,
    homology_of,
    verify_exactness,
)
from .paths import (  # noqa: E402
    PathChain,
    allowed_paths,
    build_omega_complex,
    path_homology,
    path_suspension_map,
    regular_boundary,
    suspension_cycle,
)
from .cubes import (  # noqa: E402
    CubicalChain,
    SingularCube,
    comparison_L,
    cubical_boundary,
    cubical_homology,
    cubical_suspension_cycle,
    cubical_suspension_map,
    enumerate_cubes,
    face,
    iota,
    is_degenerate,
    omega_generator,
)
from .grids import (  # noqa: E402
    CertificateStep,
    GridMap,
    ShrinkingMap,
    concat_mu,
    direct_homotopy,
    extend,
    glmy_hurewicz,
    hurewicz_chain,
    hurewicz_class,
    inverse_j,
    loop_h_prime,
    subdivide,
    validate_grid_map,
    verify_homotopy_certificate,
    verify_one_step,
)

__version__ = "0.1.0"
