"""Exact-arithmetic diagram algebras: labeled Brauer, cyclotomic and walled
Brauer bases, their layer decompositions, corner split quotients and the
induction/restriction pair, with machine verification throughout."""

from .fields import CyclotomicField, FieldError, PrimeField, RationalField, make_field
from .input_algebra import (
    InputAlgebra,
    InputAlgebraError,
    cyclic_group_algebra,
    input_algebra_from_json,
    trivial_input_algebra,
    validate_input_algebra,
    wreath_product,
)
from .diagrams import (
    Diagram,
    DiagramAlgebra,
    DiagramError,
    DiagramKind,
    PartialDiagram,
    diagram_fin_algebra,
)
from .algebra_kernel import (
    AlgebraError,
    FinAlgebra,
    ModuleMap,
    RightModule,
    corner_algebra,
    direct_sum,
    ext1,
    free_module,
    free_presentation,
    hom_space,
    hom_spaces,
    ideal_span,
    pullback_module,
    quotient_algebra,
    regular_module,
    submodule,
    quotient_module,
)
from .inflation import (
    contraction_form,
    layer_ideal,
    rank_v,
    small_algebra,
    verify_decomposition,
    verify_layer,
)
from .split_pair import (
    CornerSplitDatum,
    ShortExactSequence,
    SplitPairError,
    corner_split_datum,
    hom_ext_transfer,
    split_quotient,
    verify_exact_split_pair,
)
from .specht import (
    dominance,
    dominance_vanishing_experiment,
    hook_length_dim,
    layer_order,
    outer_product,
    partitions,
    specht_module,
    standard_tableaux,
)

__version__ = "0.1.0"
