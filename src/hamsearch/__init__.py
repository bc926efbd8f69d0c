"""Quantum-search Hamiltonian evolution toolkit.

Cross-validates the two routes to quantum search -- continuous evolution
under the projector-sum Hamiltonian and iterated reflection products --
and provides the supporting machinery: a first-order product-formula
engine with commutator error bounds, edge-coloring block decomposition of
sparse Hamiltonians, a full state-vector oracle, and majority-vote error
amplification with the associated complexity accounting.
"""

import os

__version__ = "0.1.0"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where there is one."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1
