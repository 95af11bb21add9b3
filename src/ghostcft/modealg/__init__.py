"""Symbolic engine for the ghost mode algebra."""

from .expr import (
    BETA,
    CURRENT,
    GAMMA,
    SINGLET,
    VIRASORO,
    Mode,
    ModeExpr,
    commutator,
    mode,
    normal_order,
    spectral_flow_map,
)
from .jl import JLVector, apply_singlet, apply_current, apply_virasoro
from .localized import LocalExpr, localized_twist
from .states import (
    GhostState,
    act,
    act_current,
    act_current_squared,
    act_flowed,
    act_singlet,
    act_virasoro,
    apply_word,
    basis_states,
)
from .checks import (
    NullVectorReport,
    chi_null_check,
    chi_state,
    check_flow_vacuum_conditions,
    check_jj_commutators,
    check_lj_commutators,
    check_mode_commutators_under_L,
    check_singlet_commutes_with_current,
    check_virasoro,
)

__all__ = [name for name in dir() if not name.startswith("_")]
