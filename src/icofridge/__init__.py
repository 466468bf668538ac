"""Simulation toolkit for quantum refrigeration driven by superposed
thermalisation: switch of N channels in cyclic causal orders, controlled-SWAP
cooling with accessible reservoir qubits, coherently controlled channel
paths, refrigeration-cycle thermodynamics, and Maxwell-demon sampling
experiments. Every closed form ships with an independent brute-force or
dilation oracle; run them all with ``icofridge verify``.
"""

from .channels import (
    KrausSet,
    TransformationMatrix,
    apply_channel,
    depolarizing_kraus,
    thermalizing_kraus,
    transformation_matrix,
)
from .cswap import (
    CswapState,
    cswap_branches,
    cswap_energy_identity,
    cswap_evolve,
    cswap_populations,
    sequential_discard,
)
from .demon import (
    DemonConfig,
    DemonReport,
    analytic_transfer_fraction,
    heat_jump_scan,
    run_demon,
)
from .fridge import (
    CycleTrace,
    OperatingPoint,
    ReservoirEnsemble,
    cop,
    lowest_r,
    run_cycles,
    work_cost,
)
from .measurement import (
    BranchOutcome,
    MeasurementBasis,
    build_basis,
    measure_control,
    povm_ancilla_scheme,
)
from .nswitch import (
    BranchStats,
    OrderSet,
    SwitchOutput,
    branch_stats,
    switch_bruteforce,
    switch_closed_form,
)
from .thermal import (
    ThermalSpec,
    gibbs_state,
    hamiltonian,
    mean_energy,
)
from .trajectories import (
    TrajectoryConfig,
    canonical_config,
    dilation_oracle,
    traj_branches,
    traj_output,
)

__all__ = [
    "KrausSet",
    "TransformationMatrix",
    "apply_channel",
    "depolarizing_kraus",
    "thermalizing_kraus",
    "transformation_matrix",
    "CswapState",
    "cswap_branches",
    "cswap_energy_identity",
    "cswap_evolve",
    "cswap_populations",
    "sequential_discard",
    "DemonConfig",
    "DemonReport",
    "analytic_transfer_fraction",
    "heat_jump_scan",
    "run_demon",
    "CycleTrace",
    "OperatingPoint",
    "ReservoirEnsemble",
    "cop",
    "lowest_r",
    "run_cycles",
    "work_cost",
    "BranchOutcome",
    "MeasurementBasis",
    "build_basis",
    "measure_control",
    "povm_ancilla_scheme",
    "BranchStats",
    "OrderSet",
    "SwitchOutput",
    "branch_stats",
    "switch_bruteforce",
    "switch_closed_form",
    "ThermalSpec",
    "gibbs_state",
    "hamiltonian",
    "mean_energy",
    "TrajectoryConfig",
    "canonical_config",
    "dilation_oracle",
    "traj_branches",
    "traj_output",
]

__version__ = "0.1.0"
