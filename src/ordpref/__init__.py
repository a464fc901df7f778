"""Derived preference relations for decision problems with partially
ordered outcomes, built from closed submonoids of relation monoids."""

from .relations import (
    BinaryRelation,
    GroundSet,
    GroundSetMismatchError,
    all_relations,
    compose,
)
from .orders import (
    OrderValidationError,
    OutcomeMap,
    PartialOrder,
    from_comparabilities,
    pullback,
)
from .monoids import (
    ClosedMonoid,
    MonoidConstructionError,
    StructuralMonoid,
    atom_monoid,
    beta_both_monoid,
    closure,
    dictator_monoid,
    filter_monoid,
    idempotent_monoid,
    minimize,
    reflexive_monoid,
    surjective_monoid,
    total_monoid,
    universal_monoid,
)
from .dmp import (
    DMP,
    Morphism,
    MorphismError,
    Preference,
    alpha,
    apply_morphism,
    characteristic_sets,
    check_functoriality,
    derive,
    dualize,
    is_suitable,
    pareto,
    saddle_points,
    state_preference,
    strict_pareto,
)
from .lattice import (
    MonoidLattice,
    enumerate_exhaustive,
    enumerate_generated,
    export_dot,
    preference_census,
)
