"""Quantum-search Hamiltonian evolution toolkit.

Cross-validates the two routes to quantum search -- continuous evolution
under the projector-sum Hamiltonian and iterated reflection products --
and provides the supporting machinery: a first-order product-formula
engine with commutator error bounds, edge-coloring block decomposition of
sparse Hamiltonians, a full state-vector oracle, and majority-vote error
amplification with the associated complexity accounting.
"""

from .amplify import (
    AmplificationPlan,
    CostModel,
    averaging_error,
    grover_complexity,
    majority_bound,
    majority_error_exact,
    register_width,
    simulate_majority,
    trotter_complexity,
)
from .decompose import (
    EdgeColoring,
    InteractionGraph,
    color_edges,
    graph_laplacian,
    honeycomb_lattice,
    laplacian_chain,
)
from .pauli import (
    PauliVector,
    bloch_point,
    pauli_decompose,
    phase_aligned_distance,
    rotation_unitary,
)
from .search import (
    SearchInstance,
    equivalence_params,
    equivalence_residual,
    evolve_continuous,
    grover_power,
    grover_step,
    hamiltonian_continuous,
    step_params,
)
from .statevector import grover_iterate, subspace_agreement, success_curve, uniform_state
from .trotter import (
    BlockTerm,
    HermitianTermSet,
    TrotterPlan,
    commutator_error,
    exact_term_exponential,
    plan_for_budget,
    trotter_evolve,
)

__version__ = "0.1.0"
