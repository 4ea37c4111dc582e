"""Exact computation of invariant Drinfeld twist classes on finite group
algebras, over cyclotomic fields."""

from .cyclo import CycNum, root_of_unity
from .groups import (
    FiniteGroup,
    GroupMap,
    Subgroup,
    abelian_structure,
    center,
    class_preserving_auts,
    conjugacy_classes,
    from_permutations,
    from_table,
    normal_abelian_subgroups,
)
from .pontryagin import (
    AltForm,
    Character,
    DualAction,
    alternating_forms,
    cocycle_from_form_odd,
    invariant_cocycle_search,
    invariant_forms,
    is_nondegenerate,
    is_symmetric_type,
)
from .hopf import (
    GTensor,
    ThetaValue,
    cocycle_from_twist,
    coproduct,
    counit,
    antipode,
    delta1,
    drinfeld_element,
    fourier,
    gauge,
    is_invariant,
    is_normalized,
    is_twist,
    r_from_form,
    r_matrix,
    socle,
    tensor_inv,
    tensor_mul,
    theta,
    twist_from_cocycle,
)
from .lazy import (
    BGElement,
    H2Report,
    bg_element_order,
    bg_enumerate,
    bg_product,
    h2_compute,
    has_no_multiplicities,
    lie_complex_check,
)
from .fixtures import builtin_group, builtin_names

__version__ = "1.0.0"
