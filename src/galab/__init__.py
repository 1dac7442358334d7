"""galab: a workbench for convolution operators on discrete groups.

Sparse group-algebra elements over Z^d, finite Cayley groups, and free
groups; submultiplicative weights and character domination; windowed
action operators; invertibility oracles with machine-checkable
certificates; and deterministic counterexample scenarios.
"""

from .algebra import (
    AlgebraElement,
    QComplex,
    canonical_json,
    convolve,
    delta,
    element_from_json,
    element_to_json,
    identity_element,
)
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import (
    CayleyGroup,
    FreeGroup,
    GroupSpec,
    LatticeGroup,
    Window,
    ball,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    spec_from_json,
    symmetric_group,
)
from .invertibility import (
    InvertibilityCertificate,
    auto_invert,
    invert_finite,
    invert_via_fft,
    neumann_invert,
    probe_quotients,
    verify_direct_finiteness,
    wiener_certify,
)
from .operators import (
    WindowedOperator,
    action_matrix,
    apply_convolution_action,
    conjugation_deviation,
    fourier_eval,
    input_window,
    pairing,
    symbol_grid,
)
from .scenarios import ScenarioReport, scenario_lp, scenario_torus
from .weights import (
    Character,
    ConstantWeight,
    ExpDirectionalWeight,
    ExpSymmetricWeight,
    PolynomialWeight,
    ProductWeight,
    QuotientWeight,
    TableWeight,
    Weight,
    character_twist,
    check_weight,
    dominate_character,
    rescale_by_character,
    weight_from_json,
)

__version__ = "0.1.0"
