"""Workbench for the eight coalition logics over general concurrent game models:
parsing, model checking, validity/satisfiability decision, and countermodel
synthesis by blueprint realization."""

from .logics import ALL_LOGICS, LogicId
from .syntax import (
    Atom,
    And,
    BOT,
    Box,
    Coal,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TOP,
    Top,
    atoms_of,
    big_and,
    big_or,
    max_agent,
    modal_depth,
    parse,
    random_formula,
    render,
)
from .models import (
    FrameProperties,
    Model,
    ModelError,
    PointedModel,
    ProfileCapError,
    RandomModelConfig,
    ValidationReport,
    available_actions,
    coalitions,
    frame_properties,
    load_model,
    load_pointed_model,
    outcome,
    random_model,
    save_model,
    validate_model,
)
from .mcheck import enables, ensures, sat_states, satisfies, valid_on_model
from .normalform import (
    ClauseCapError,
    Literal,
    StandardConjunction,
    StandardDisjunction,
    basic_positive_indices,
    negate,
    sc_to_formula,
    sd_to_formula,
    to_standard_disjunctions,
)
from .decide import (
    ReductionWitness,
    explain,
    is_neat,
    is_satisfiable,
    is_taut,
    is_valid,
    reduction_witness,
    validity_oracle,
)
from .synth import (
    Blueprint,
    RealizationError,
    build_blueprint,
    check_regular,
    impeach,
    realize,
    support,
    synthesize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
