# First-order product-formula evolution for a sum of exactly-exponentiable
# Hermitian terms, with the leading commutator error estimate and a step
# planner that turns an error budget into a step size.
#
# Error model: one step of the product formula differs from exp(-i H dt) by
# exp(-i E2 dt^2) with E2 = (1/2) sum_{i<j} [H_i, H_j] at leading order, so
# n steps stay within  t * ||E2|| * dt  of the exact evolution (spectral
# norm). The planner inverts that relation; measured errors on shipped
# examples stay below twice the bound (slack absorbs higher orders).

from __future__ import annotations

import json
from dataclasses import dataclass
from math import ceil

import numpy as np

from .linalg import assert_hermitian, spectral_norm

__all__ = [
    "BlockTerm",
    "HermitianTermSet",
    "TrotterPlan",
    "exact_term_exponential",
    "trotter_step",
    "trotter_evolve",
    "commutator_error",
    "plan_for_budget",
    "telescoping_bound_check",
    "energy_drift",
    "term_set_to_json",
    "term_set_from_json",
    "save_term_set",
    "load_term_set",
]

@dataclass(frozen=True)
class BlockTerm:
    """A direct sum of 2x2 blocks on disjoint index pairs plus a real diagonal.

    ``blocks[n]`` acts on rows and columns ``pairs[n]``; ``diagonal`` holds
    the sites no pair covers and is zero on covered ones. A term without
    pairs is purely diagonal. Nothing of size d x d is stored.
    """

    pairs: np.ndarray  # (k, 2) ints
    blocks: np.ndarray  # (k, 2, 2) complex
    diagonal: np.ndarray  # (d,) float

    def __post_init__(self) -> None:
        pairs = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        blocks = np.array(self.blocks, dtype=complex).reshape(-1, 2, 2)
        diagonal = np.array(self.diagonal, dtype=float)
        sites = pairs.ravel()
        if diagonal.ndim != 1 or len(blocks) != len(pairs):
            raise ValueError("block term needs (k, 2) pairs, (k, 2, 2) blocks and a (d,) diagonal")
        if sites.size and not (0 <= sites.min() and sites.max() < len(diagonal)):
            raise ValueError(f"block index outside dimension {len(diagonal)}")
        if np.unique(sites).size != sites.size:
            raise ValueError("block pairs must be disjoint")
        if np.any(diagonal[sites] != 0.0):
            raise ValueError("diagonal must vanish on sites covered by a block")
        for name, value in (("pairs", pairs), ("blocks", blocks), ("diagonal", diagonal)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return len(self.diagonal)

    def entries(self) -> tuple:
        """(rows, cols, values): every block entry, then the nonzero bare diagonal."""
        i, j = self.pairs.T
        free = np.flatnonzero(self.diagonal)
        rows = np.concatenate([i, i, j, j, free])
        cols = np.concatenate([i, j, i, j, free])
        values = np.concatenate([self.blocks.reshape(-1, 4).T.ravel(), self.diagonal[free]])
        return rows, cols, values

    def dense(self) -> np.ndarray:
        h = np.zeros((self.dimension,) * 2, dtype=complex)
        rows, cols, values = self.entries()
        h[rows, cols] = values
        return h


@dataclass(frozen=True)
class HermitianTermSet:
    """A Hamiltonian split H = sum_i H_i into labeled Hermitian terms.

    Each term is a dense (d, d) matrix or a ``BlockTerm``; block terms admit
    an exact closed-form exponential with zero fill-in.
    """

    dimension: int
    terms: tuple
    labels: tuple

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("term set must contain at least one term")
        d = int(self.dimension)
        terms = tuple(t if isinstance(t, BlockTerm) else np.asarray(t, dtype=complex)
                      for t in self.terms)
        for k, t in enumerate(terms):
            block = isinstance(t, BlockTerm)
            shape = (t.dimension,) * 2 if block else t.shape
            if shape != (d, d):
                raise ValueError(f"term {k} has shape {shape}, expected ({d}, {d})")
            assert_hermitian(t.blocks if block else t, what=f"term {k}")
            if not block:
                t.flags.writeable = False
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != len(terms):
            raise ValueError("labels and terms must have equal length")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.terms)

    def dense(self, k: int) -> np.ndarray:
        """Term k as a dense (d, d) matrix."""
        t = self.terms[k]
        return t.dense() if isinstance(t, BlockTerm) else t

    def total(self) -> np.ndarray:
        """The summed Hamiltonian H = sum_i H_i, as a dense matrix."""
        return np.sum([self.dense(k) for k in range(len(self))], axis=0)


@dataclass(frozen=True)
class TrotterPlan:
    """Total time and step count; the step size is dt = total_time/steps."""

    total_time: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 1 or int(self.steps) != self.steps:
            raise ValueError("steps must be a positive integer")
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")
        object.__setattr__(self, "steps", int(self.steps))
        object.__setattr__(self, "total_time", float(self.total_time))

    @property
    def dt(self) -> float:
        return self.total_time / self.steps


def _block_exponentials(b: np.ndarray, tau: float) -> np.ndarray:
    # exp(-i B tau) in closed form for a (k, 2, 2) stack of Hermitian
    # B = a0 I + a.sigma, one row of entries (00, 01, 10, 11) per block;
    # B = a0 I (r = 0) gives the pure phase.
    a0 = 0.5 * (b[:, 0, 0] + b[:, 1, 1]).real
    ax = b[:, 0, 1].real
    ay = -b[:, 0, 1].imag
    az = 0.5 * (b[:, 0, 0] - b[:, 1, 1]).real
    r = np.sqrt(ax * ax + ay * ay + az * az)
    phase = np.exp(-1j * a0 * tau)
    rotating = r != 0.0
    c = np.cos(r * tau)
    s = np.sin(r * tau) / np.where(rotating, r, 1.0)
    u = np.stack([c - 1j * s * az, -1j * s * (ax - 1j * ay), -1j * s * (ax + 1j * ay),
                  c + 1j * s * az], axis=1)
    u[~rotating] = [1.0, 0.0, 0.0, 1.0]
    return phase[:, None] * u


def exact_term_exponential(h, tau: float) -> np.ndarray:
    """exp(-i H tau) for a Hermitian term, exact up to round-off.

    Dense terms take an eigendecomposition. A ``BlockTerm`` is exponentiated
    block by block in closed form, which keeps entries outside the blocks
    exactly zero.
    """
    if not isinstance(h, BlockTerm):
        h = np.asarray(h, dtype=complex)
        assert_hermitian(h, what="term")
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * tau)) @ v.conj().T
    u = np.diag(np.exp(-1j * h.diagonal * tau))
    i, j = h.pairs.T
    u[np.r_[i, i, j, j], np.r_[i, j, i, j]] = _block_exponentials(h.blocks, tau).T.ravel()
    return u


def trotter_step(terms: HermitianTermSet, dt: float) -> np.ndarray:
    """One product step: exp(-i H_1 dt) exp(-i H_2 dt) ... in declared order."""
    u = np.eye(terms.dimension, dtype=complex)
    for h in terms.terms:
        u = u @ exact_term_exponential(h, dt)
    return u


def trotter_evolve(terms: HermitianTermSet, plan: TrotterPlan) -> np.ndarray:
    """(prod_i exp(-i H_i dt))^steps via repeated squaring."""
    step = trotter_step(terms, plan.dt)
    return np.linalg.matrix_power(step, plan.steps)


def commutator_error(terms: HermitianTermSet) -> float:
    """||E2|| = || (1/2) sum_{i<j} [H_i, H_j] ||, the dt -> 0 limit of the
    error generator; zero for commuting terms."""
    if len(terms) < 2:
        raise ValueError("commutator estimate needs at least two terms")
    acc = np.zeros((terms.dimension, terms.dimension), dtype=complex)
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            hi, hj = terms.dense(i), terms.dense(j)
            acc += hi @ hj - hj @ hi
    return 0.5 * spectral_norm(acc)


def plan_for_budget(
    terms: HermitianTermSet,
    total_time: float,
    error_budget: float,
    step_cap: int = 10_000_000,
) -> TrotterPlan:
    """Largest step size with  total_time * ||E2|| * dt <= error_budget.

    dt is rounded down so the step count is an integer. Commuting term sets
    get a single step. Raises when the required step count exceeds
    ``step_cap``.
    """
    if not (total_time > 0 and error_budget > 0):
        raise ValueError("total_time and error_budget must be positive")
    norm_e2 = commutator_error(terms)
    if norm_e2 == 0.0:
        return TrotterPlan(total_time, 1)
    raw_steps = total_time * total_time * norm_e2 / error_budget
    steps = max(1, ceil(raw_steps - 1e-12))
    if steps > step_cap:
        raise ValueError(
            f"budget {error_budget:g} needs {steps} steps, above the cap {step_cap}"
        )
    return TrotterPlan(total_time, steps)


def telescoping_bound_check(x: np.ndarray, y: np.ndarray, n: int) -> tuple[float, float]:
    """(||X^n - Y^n||, n ||X - Y||); the first never exceeds the second."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    lhs = spectral_norm(np.linalg.matrix_power(x, int(n)) - np.linalg.matrix_power(y, int(n)))
    rhs = int(n) * spectral_norm(x - y)
    return lhs, rhs


def energy_drift(terms: HermitianTermSet, plan: TrotterPlan, state: np.ndarray) -> float:
    """Diagnostic: max drift of <H> along the stepped evolution of ``state``.

    The product formula preserves unitarity but not the energy; this reports
    max_k |<psi_k|H|psi_k> - <psi_0|H|psi_0>|.
    """
    h = terms.total()
    step = trotter_step(terms, plan.dt)
    psi = np.asarray(state, dtype=complex).copy()
    e0 = float(np.real(psi.conj() @ h @ psi))
    drift = 0.0
    for _ in range(plan.steps):
        psi = step @ psi
        drift = max(drift, abs(float(np.real(psi.conj() @ h @ psi)) - e0))
    return drift


# ---------------------------------------------------------------------------
# JSON interchange: {dimension, terms: [{label, entries: [[row, col, re, im]]}]}


def _nonzero_entries(h) -> tuple:
    # (rows, cols, values) of the nonzero entries of a term, in (row, col) order.
    if not isinstance(h, BlockTerm):
        rows, cols = np.nonzero(h)
        return rows, cols, h[rows, cols]
    rows, cols, values = h.entries()
    keep = np.flatnonzero(values)
    order = keep[np.lexsort((cols[keep], rows[keep]))]
    return rows[order], cols[order], values[order]


def term_set_to_json(terms: HermitianTermSet) -> dict:
    doc_terms = []
    for label, h in zip(terms.labels, terms.terms):
        rows, cols, values = _nonzero_entries(h)
        entries = [list(e) for e in zip(rows.tolist(), cols.tolist(),
                                        values.real.tolist(), values.imag.tolist())]
        doc_terms.append({"label": label, "entries": entries})
    return {"dimension": terms.dimension, "terms": doc_terms}


def _term_from_entries(dim: int, entries: dict):
    # A BlockTerm when the off-diagonal support is a matching and the
    # uncovered diagonal is real; a dense matrix otherwise.
    pairs = sorted({(min(r, c), max(r, c)) for r, c in entries if r != c})
    covered = {site for pair in pairs for site in pair}
    free = {r: v for (r, c), v in entries.items() if r == c and r not in covered}
    if len(covered) == 2 * len(pairs) and not any(v.imag for v in free.values()):
        diagonal = np.zeros(dim)
        diagonal[list(free)] = [v.real for v in free.values()]
        blocks = [[[entries.get((a, b), 0.0) for b in pair] for a in pair] for pair in pairs]
        return BlockTerm(pairs, blocks, diagonal)
    h = np.zeros((dim, dim), dtype=complex)
    for (r, c), v in entries.items():
        h[r, c] = v
    return h


def term_set_from_json(doc: dict) -> HermitianTermSet:
    try:
        dim = int(doc["dimension"])
        raw_terms = doc["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed term-set document: {exc}") from exc
    terms, labels = [], []
    for k, item in enumerate(raw_terms):
        entries = {}
        for entry in item.get("entries", []):
            r, c, re, im = entry
            r, c, value = int(r), int(c), complex(float(re), float(im))
            if not (0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"term {k}: entry ({r}, {c}) outside dimension {dim}")
            if not np.isfinite(value):
                raise ValueError(f"term {k}: entry ({r}, {c}) is non-finite ({value})")
            if (r, c) in entries:
                raise ValueError(f"term {k}: duplicate entry ({r}, {c})")
            entries[r, c] = value
        terms.append(_term_from_entries(dim, entries))
        labels.append(item.get("label", f"term{k}"))
    return HermitianTermSet(dimension=dim, terms=tuple(terms), labels=tuple(labels))


def save_term_set(path, terms: HermitianTermSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(term_set_to_json(terms), fh, indent=1)
        fh.write("\n")


def load_term_set(path) -> HermitianTermSet:
    with open(path, "r", encoding="utf-8") as fh:
        return term_set_from_json(json.load(fh))
