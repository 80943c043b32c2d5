"""charrig: exact-arithmetic differential characters on finite simplicial
complexes.

The library computes integral, rational and Q/Z cohomology by Smith normal
form, realizes differential cohomology both as differential cocycle classes
and as characters on cycles, verifies the equivalence of the two models,
the product structure, and the supporting cycle-surgery constructions, all
in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .simplicial import (  # noqa: F401
    Complex, SimplicialMap, Subcomplex,
    barycentric_subdivide, chain_support, closed_star_neighborhood,
    complex_from_maximal, identity_map, load_complex, parse_complex,
    subcomplex_from_simplices, subdivision_tower,
)
from .zlin import (  # noqa: F401
    FgAbelianGroup, SNFResult, cokernel, kernel_basis, smith_normal_form,
    solve_integer, solve_rational,
)
from .cochains import (  # noqa: F401
    RING_Q, RING_QMODZ, RING_Z,
    Cochain, CohomologyClass, NotACycle, QuotientForm,
    alpha, basis_cochain, beta, bockstein, check_exactness, coboundary,
    cohomology, cup, cup_int_qmodz, cycle_basis, d_of_quotient, homology,
    integral_form_generators, is_integral_form, r_to_rational,
    s_class_of_form, unit_cochain, zero_cochain,
)
from .diffcocycle import (  # noqa: F401
    DiffClass, DifferentialCocycle, NotInImage,
    class_equal, delta1, delta2, i1, i2, lift_through_i2, make_class,
    preimage_of_class, preimage_of_form, pullback, verify_diagram,
    zero_class,
)
from .characters import (  # noqa: F401
    Character,
    char_i1, char_i2, char_pullback, character_from_holonomies,
    delta2_via_lift, evaluate_via_normalization, is_character, lift_T,
    make_character, phi_direct, phi_good, phi_inverse, verify_equivalence,
    verify_phi_good, zero_character,
)
from .product import star, verify_ring_axioms  # noqa: F401
from .geometry import (  # noqa: F401
    BoundResult, GeometryBudgetExceeded, GoodNeighborhood, NotNullHomologous,
    Pseudomanifold, bound_in_good_neighborhood, good_neighborhood,
    is_pseudomanifold, normalize_cycle, resolve_cycle, split_cycle,
    verify_normalization,
)
from .report import Report, CheckResult  # noqa: F401
