"""qexpander: simulation and analysis toolkit for quantum expanders.

Construct unital channels from unitary Kraus operators, compute and sample
their spectral gaps, run the Merlin-Arthur verification protocol for the
non-expander problem, build hardness-reduction channels from verifier
circuits, and simulate the associated open-system thermalization.
"""

__version__ = "0.1.0"

from .channels import (
    Channel,
    channel_power,
    complete_depolarizer,
    random_unitary_channel,
)
from .circuits import Gate, GateCircuit, RegisterLayout, multi_controlled, simulate_unitary
from .fileio import load_circuit, parse_circuit, serialize_circuit
from .linalg import frobenius, paulis, phi_state, rng_from, unvec, vec
from .protocol import (
    VerifierOutcome,
    arthur_verify,
    check_orthogonality,
    estimate_contraction_sq,
    merlin_witness,
)
from .reduction import (
    ReductionSpec,
    build_base_expander,
    build_reduction,
    controlled_channel,
    controlled_depolarizer,
    make_reduction_spec,
    no_verifier,
    sign_double,
    thresholds,
    yes_verifier,
)
from .spectral import (
    Decision,
    GapReport,
    NonExpanderInstance,
    decide,
    spectral_gap,
    spectral_gap_iterative,
)
from .thermalization import ThermalModel, Trajectory, decay_bound_check, evolve

__all__ = [
    "Channel",
    "Decision",
    "Gate",
    "GateCircuit",
    "GapReport",
    "NonExpanderInstance",
    "ReductionSpec",
    "RegisterLayout",
    "ThermalModel",
    "Trajectory",
    "VerifierOutcome",
    "arthur_verify",
    "build_base_expander",
    "build_reduction",
    "channel_power",
    "check_orthogonality",
    "complete_depolarizer",
    "controlled_channel",
    "controlled_depolarizer",
    "decay_bound_check",
    "decide",
    "estimate_contraction_sq",
    "evolve",
    "frobenius",
    "load_circuit",
    "make_reduction_spec",
    "merlin_witness",
    "multi_controlled",
    "no_verifier",
    "parse_circuit",
    "paulis",
    "phi_state",
    "random_unitary_channel",
    "rng_from",
    "serialize_circuit",
    "sign_double",
    "simulate_unitary",
    "spectral_gap",
    "spectral_gap_iterative",
    "thresholds",
    "unvec",
    "vec",
    "yes_verifier",
]
