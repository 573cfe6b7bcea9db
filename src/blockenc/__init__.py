"""Clifford+T block-encoding compiler and resource estimator for dense
matrices of classical data: QRAM-style data loading, state preparation,
explicit circuit synthesis, T-count/T-depth accounting, closed-form formula
cross-validation, and sparse-statevector verification at desk scale.
"""
from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitError,
    Gate,
    GateKind,
    Macro,
    MacroKind,
    QubitRegister,
    ResourceReport,
    count_resources,
    count_resources_at,
    parse_circuit_text,
    write_circuit_text,
)
from .angle_tree import DegenerateInputError, matrix_trees, reconstruct_state
from .qram import ConfigurationError, LoadSpec, QramModel
from .encoding import (
    BlockEncodingConfig,
    BlockEncodingResult,
    Method,
    Variant,
    build_block_encoding,
    build_controlled_block_encoding,
    build_symmetric_block_encoding,
    select_parameters,
)
from .simulator import SparseState, extract_block, run_circuit, spectral_norm
from .resources import (
    LEDGER,
    cross_validate,
    evaluate,
    reproduce_headline_table,
    sweep_cross_validation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
