"""Quantum-search Hamiltonian evolution toolkit.

Cross-validates the two routes to quantum search -- continuous evolution
under the projector-sum Hamiltonian and iterated reflection products --
and provides the supporting machinery: a first-order product-formula
engine with commutator error bounds, edge-coloring block decomposition of
sparse Hamiltonians, a full state-vector oracle, and majority-vote error
amplification with the associated complexity accounting.
"""

__version__ = "0.1.0"
