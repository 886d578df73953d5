"""Single-step GHZ-state generation on fully connected qubit networks.

Simulates the anisotropic-exchange pulse protocols that turn N uniformly
coupled qubits into a GHZ state in one entangling step, and corrects the
pulse parameters when the pairwise couplings are imperfect.
"""

from .couplings import (
    CouplingGraph,
    ideal,
    perturbed_general,
    perturbed_n3,
    star_to_delta,
    to_sparse,
)
from .dense import (
    GlobalPhase,
    NoGlobalPhaseError,
    StateVector,
    all_zeros,
    basis_state,
    fidelity_frobenius,
)
from .optimizer import (
    OptimizationProblem,
    OptimizationResult,
    OptimizerConfig,
    objective,
    optimize,
    optimize_many,
    optimize_restricted_n4,
    problem_even_full,
    problem_even_restricted,
    problem_odd,
    sweep,
    uncorrected_fidelity,
    write_sweep_csv,
)
from .protocol import (
    PREPARATION,
    DegenerateCouplingError,
    EngineCapabilityError,
    GhzTarget,
    HamiltonianPropagator,
    PropagationError,
    ProtocolPlan,
    Pulse,
    compile_plan,
    entangling_time,
    execute,
    execute_symmetric,
    ghz_target,
    theta,
    verify,
)
from .symmetric import (
    WBasisState,
    analytic_eigenvalues,
    collective_rotation,
    embed,
    entangle_phases,
    ghz_w_target,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
