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
import os
from math import ceil

import numpy as np

from . import CSV_CELLS, _format_rows, _json_array, _Record, _write_outputs
from .linalg import assert_hermitian, spectral_norm

__all__ = [
    "BlockTerm",
    "HermitianTermSet",
    "TrotterPlan",
    "exact_term_exponential",
    "trotter_step",
    "trotter_evolve",
    "commutator_error",
    "bloch_sectors",
    "trotter_scan",
    "plan_for_budget",
    "telescoping_bound_check",
    "read_document",
    "save_term_set",
    "load_term_set",
]

# Most steps plan_for_budget will plan; also trotter-scan's cap.
STEP_CAP = 10_000_000
# Largest d of a dense d x d block term or its exponential (256 MiB): the open-chain
# and odd-ring scans and the ring spectrum stop here with a ValueError, not a MemoryError.
MAX_DENSE_DIMENSION = 4096


def _check_dense_cap(d: int) -> None:
    if d > MAX_DENSE_DIMENSION:
        raise ValueError(f"dense term of d={d} exceeds the cap {MAX_DENSE_DIMENSION}")


def _dense(d: int, rows, cols, values) -> np.ndarray:
    # The d x d complex matrix with these entries, zero elsewhere; d up to the cap.
    _check_dense_cap(d)
    h = np.zeros((d, d), dtype=complex)
    h[rows, cols] = values
    return h


class BlockTerm(_Record):
    """A direct sum of 2x2 blocks on disjoint index pairs plus real diagonal entries.

    ``blocks[n]`` acts on rows and columns ``pairs[n]``; ``values[n]`` is the
    diagonal entry at ``sites[n]``, a site no pair covers. Every other entry
    is zero, and a term without pairs is purely diagonal. Nothing of size d
    is stored.
    """

    # int, (k, 2) ints, (k, 2, 2) complex, (s,) ints, (s,) float
    _fields = ("dimension", "pairs", "blocks", "sites", "values")

    def __init__(self, dimension: int, pairs, blocks, sites=(), values=()) -> None:
        d = int(dimension)
        pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        blocks = np.array(blocks, dtype=complex).reshape(-1, 2, 2)
        sites, values = np.array(sites, dtype=np.intp), np.array(values, dtype=float)
        if len(blocks) != len(pairs) or sites.ndim != 1 or values.shape != sites.shape:
            raise ValueError("block term needs (k, 2) pairs, (k, 2, 2) blocks and a value per site")
        used = np.sort(np.concatenate([pairs.ravel(), sites]))
        if used.size and not (0 <= used[0] and used[-1] < d):
            raise ValueError(f"block index outside dimension {d}")
        if np.any(used[1:] == used[:-1]):
            raise ValueError("block pairs and diagonal sites must be disjoint")
        for value in (pairs, blocks, sites, values):
            value.flags.writeable = False
        self._set(d, pairs, blocks, sites, values)

    def entries(self) -> tuple:
        """(rows, cols, values) of the nonzero entries, in (row, col) order."""
        i, j = self.pairs.T
        rows = np.concatenate([i, i, j, j, self.sites])
        cols = np.concatenate([i, j, i, j, self.sites])
        values = np.concatenate([self.blocks.reshape(-1, 4).T.ravel(), self.values])
        # Merge sort (stable): 11 us on a 32 x 32 torus term's 4096 keys, quicksort 52 (2-vCPU VM).
        order = np.argsort(rows * self.dimension + cols, kind="stable")
        order = order[values[order] != 0]
        return rows[order], cols[order], values[order]

    def dense(self) -> np.ndarray:
        return _dense(self.dimension, *self.entries())


class HermitianTermSet(_Record):
    """A Hamiltonian split H = sum_i H_i into labeled Hermitian terms.

    Each term is a dense (d, d) matrix or a ``BlockTerm``; block terms admit
    an exact closed-form exponential with zero fill-in.
    """

    _fields = ("dimension", "terms", "labels")

    def __init__(self, dimension: int, terms: tuple, labels: tuple) -> None:
        if not terms:
            raise ValueError("term set must contain at least one term")
        d = int(dimension)
        terms = tuple(t if isinstance(t, BlockTerm) else np.array(t, dtype=complex)
                      for t in terms)
        for k, t in enumerate(terms):
            block = isinstance(t, BlockTerm)
            shape = (t.dimension,) * 2 if block else t.shape
            if shape != (d, d):
                raise ValueError(f"term {k} has shape {shape}, expected ({d}, {d})")
            assert_hermitian(t.blocks if block else t, what=f"term {k}")
            if not block:
                t.flags.writeable = False
        labels = tuple(str(x) for x in labels)
        if len(labels) != len(terms):
            raise ValueError("labels and terms must have equal length")
        self._set(d, terms, labels)

    def __len__(self) -> int:
        return len(self.terms)

    def dense(self, k: int) -> np.ndarray:
        """Term k as a dense (d, d) matrix."""
        t = self.terms[k]
        return t.dense() if isinstance(t, BlockTerm) else t

    def total(self) -> np.ndarray:
        """The summed Hamiltonian H = sum_i H_i, as a dense matrix."""
        return np.sum([self.dense(k) for k in range(len(self))], axis=0)


class TrotterPlan(_Record):
    """Total time and step count; the step size is dt = total_time/steps."""

    _fields = ("total_time", "steps")

    def __init__(self, total_time: float, steps: int) -> None:
        if steps < 1 or int(steps) != steps:
            raise ValueError("steps must be a positive integer")
        if not total_time > 0:
            raise ValueError("total_time must be positive")
        self._set(float(total_time), int(steps))

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

    A dense term, or an (M, c, c) stack of them, takes an eigendecomposition
    per matrix. A ``BlockTerm`` is exponentiated block by block in closed
    form, which keeps entries outside the blocks exactly zero.
    """
    if not isinstance(h, BlockTerm):
        h = np.asarray(h, dtype=complex)
        assert_hermitian(h, what="term")
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * w * tau)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    _check_dense_cap(h.dimension)
    u = np.eye(h.dimension, dtype=complex)
    u[h.sites, h.sites] = np.exp(-1j * h.values * tau)
    i, j = h.pairs.T
    u[np.r_[i, i, j, j], np.r_[i, j, i, j]] = _block_exponentials(h.blocks, tau).T.ravel()
    return u


def _product_step(parts, dt: float, size: int) -> np.ndarray:
    # exp(-i H_1 dt) exp(-i H_2 dt) ... over terms or their sector stacks.
    u = np.eye(size, dtype=complex)
    for h in parts:
        u = u @ exact_term_exponential(h, dt)
    return u


def trotter_step(terms: HermitianTermSet, dt: float) -> np.ndarray:
    """One product step: exp(-i H_1 dt) exp(-i H_2 dt) ... in declared order."""
    return _product_step(terms.terms, dt, terms.dimension)


def trotter_evolve(terms: HermitianTermSet, plan: TrotterPlan) -> np.ndarray:
    """(prod_i exp(-i H_i dt))^steps via repeated squaring."""
    step = trotter_step(terms, plan.dt)
    return np.linalg.matrix_power(step, plan.steps)


def bloch_sectors(terms: HermitianTermSet):
    """Each term as a (d/2, 2, 2) stack of Bloch blocks, or None.

    Applies to block terms on an even dimension d that each equal their
    shift by two sites: entry (r, c) equals entry (r + 2, c + 2) mod d. In
    the Fourier basis of the M = d/2 two-site cells,
    |q, a> = sum_n exp(2 pi i q n / M) |2n + a> / sqrt(M), such a term is the
    direct sum over q of the 2x2 blocks sum_n H[2n + a, b] exp(-2 pi i q n / M).
    So are the terms' products, commutators and exponentials, whose
    spectral norm is the largest of their blocks' norms. The blocks come
    from each term's records in O(d); None when a term is dense or fails
    the shift check, and for a single cell (d = 2), the whole space.
    """
    d = terms.dimension
    if d % 2 or d < 4 or not all(isinstance(t, BlockTerm) for t in terms.terms):
        return None
    cells = d // 2
    sectors = []
    for term in terms.terms:
        rows, cols, values = term.entries()
        shifted = (rows + 2) % d * d + (cols + 2) % d
        there = np.argsort(shifted)
        if not (np.array_equal(rows * d + cols, shifted[there])
                and np.array_equal(values, values[there])):
            return None
        # Entry H[2n + a, b] of the column of cell 0 adds its value times
        # exp(-2 pi i q n / M) to entry (a, b) of every sector q.
        first = cols < 2
        n, a = np.divmod(rows[first], 2)
        phases = np.exp(-2j * np.pi * (np.outer(np.arange(cells), n) % cells) / cells)
        blocks = (phases * values[first]) @ np.eye(4)[2 * a + cols[first]]
        sectors.append(blocks.reshape(cells, 2, 2))
    return sectors


def _sector_terms(terms: HermitianTermSet) -> tuple:
    # (hamiltonians, parts): per term, the (M, c, c) stack of its sector
    # Hamiltonians, and what exact_term_exponential takes for it. Without
    # Bloch sectors the whole space is the one sector (M = 1, c = d), and
    # each term keeps its own exponential (closed form for a block term).
    sectors = bloch_sectors(terms)
    if sectors is not None:
        return sectors, sectors
    return [terms.dense(k)[None] for k in range(len(terms))], terms.terms


def commutator_error(terms: HermitianTermSet) -> float:
    """||E2|| = || (1/2) sum_{i<j} [H_i, H_j] ||, the dt -> 0 limit of the
    error generator; zero for commuting terms."""
    if len(terms) < 2:
        raise ValueError("commutator estimate needs at least two terms")
    hamiltonians = _sector_terms(terms)[0]
    acc = np.zeros_like(hamiltonians[0])
    for i, hi in enumerate(hamiltonians):
        for hj in hamiltonians[i + 1:]:
            acc += hi @ hj - hj @ hi
    return 0.5 * spectral_norm(acc)


def trotter_scan(terms: HermitianTermSet, total_time: float, step_counts) -> tuple:
    """(||E2||, rows) with one row (dt, n, error) per step count n: error is
    || (prod_i exp(-i H_i dt))^n - exp(-i H total_time) || at dt = total_time / n.

    Runs on the Bloch sectors of ``bloch_sectors`` when the terms have them
    (M = d/2, c = 2), and on the whole space otherwise (M = 1, c = d).
    """
    norm_e2 = commutator_error(terms)
    hamiltonians, parts = _sector_terms(terms)
    exact = exact_term_exponential(np.sum(hamiltonians, axis=0), total_time)
    rows = []
    for steps in step_counts:
        plan = TrotterPlan(total_time, steps)
        step = _product_step(parts, plan.dt, exact.shape[-1])
        error = spectral_norm(np.linalg.matrix_power(step, plan.steps) - exact)
        rows.append((plan.dt, plan.steps, error))
    return norm_e2, rows


def plan_for_budget(
    terms: HermitianTermSet,
    total_time: float,
    error_budget: float,
) -> TrotterPlan:
    """Largest step size with  total_time * ||E2|| * dt <= error_budget.

    dt is rounded down so the step count is an integer. Commuting term sets
    get a single step. Raises when the required step count exceeds
    ``STEP_CAP``.
    """
    if not (total_time > 0 and error_budget > 0):
        raise ValueError("total_time and error_budget must be positive")
    norm_e2 = commutator_error(terms)
    if norm_e2 == 0.0:
        return TrotterPlan(total_time, 1)
    raw_steps = total_time * total_time * norm_e2 / error_budget
    steps = max(1, ceil(raw_steps - 1e-12))
    if steps > STEP_CAP:
        raise ValueError(
            f"budget {error_budget:g} needs {steps} steps, above the cap {STEP_CAP}"
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


# ---------------------------------------------------------------------------
# JSON documents: term sets {dimension, terms: [{label, entries: [[row, col,
# re, im]]}]} and graphs {vertices, edges}. read_document checks what both share;
# each row is read once, where its record is built (an edge's in decompose).

# Most sites a document, a graph or a lattice may declare.
MAX_SITES = 2**20
# An entry's field types and the names its errors give them.
_ENTRY_KINDS = (int, int, float, float)
_ENTRY_FIELDS = ("row", "column", "entry ({}, {}) real part", "entry ({}, {}) imaginary part")


def _nonzero_entries(h) -> tuple:
    # (rows, cols, values) of the nonzero entries of a term, in (row, col) order.
    if isinstance(h, BlockTerm):
        return h.entries()
    rows, cols = np.nonzero(h)
    return rows, cols, h[rows, cols]


def _term_from_entries(dim: int, rows: list, where: str):
    # A term from its [row, col, re, im] rows, read here: lists of that shape with
    # integer indices and float parts (taken as they are when of those types),
    # inside the dimension, finite and not repeated. A BlockTerm when the off-diagonal
    # support is a matching and the uncovered diagonal is real; a dense matrix otherwise.
    entries = {}
    for row in rows:
        if type(row) is not list or tuple(map(type, row)) != _ENTRY_KINDS:
            if not (isinstance(row, list) and len(row) == 4):
                raise ValueError(f"{where}entry {row!r} is not [row, col, re, im]")
            row = [_number(x, kind, where + name, *row)
                   for x, kind, name in zip(row, _ENTRY_KINDS, _ENTRY_FIELDS)]
        r, c, re, im = row
        value = complex(re, im)
        if not (0 <= r < dim and 0 <= c < dim):
            raise ValueError(f"{where}entry ({r}, {c}) outside dimension {dim}")
        if not np.isfinite(value):
            raise ValueError(f"{where}entry ({r}, {c}) is non-finite ({value})")
        if (r, c) in entries:
            raise ValueError(f"{where}duplicate entry ({r}, {c})")
        entries[r, c] = value
    pairs = sorted({(min(r, c), max(r, c)) for r, c in entries if r != c})
    covered = {site for pair in pairs for site in pair}
    free = {r: v for (r, c), v in entries.items() if r == c and r not in covered}
    if len(covered) == 2 * len(pairs) and not any(v.imag for v in free.values()):
        sites = sorted(r for r, v in free.items() if v)
        blocks = [[[entries.get((a, b), 0.0) for b in pair] for a in pair] for pair in pairs]
        return BlockTerm(dim, pairs, blocks, sites, [free[r].real for r in sites])
    rows, cols = np.array(list(entries)).T
    return _dense(dim, rows, cols, list(entries.values()))


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice")
        doc[key] = value
    return doc


def _number(value, kind: type, what: str, *args):
    # value as an int (2.0 is one; 1.7 and true are not) or a float (true, "2.5"
    # and an integer past the float range are not); errors name what.format(*args).
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if kind is float or isinstance(value, (int, np.integer)) or value.is_integer():
                return kind(value)
        except OverflowError:  # an integer past the float range
            pass
    raise ValueError(f"{what.format(*args)} {value!r} is not "
                     f"{'a float' if kind is float else 'an integer'}")


def read_document(doc, size_key: str, key: str) -> tuple:
    """(size, list) of a graph or term-set document, parsed or at a path: keys
    unique, the size an integer up to MAX_SITES, the list's rows left unread."""
    if isinstance(doc, (str, os.PathLike)):
        with open(doc, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh, object_pairs_hook=_unique_keys)
            except ValueError as exc:  # not JSON, or a key given twice
                raise ValueError(f"{fh.name}: {exc}") from exc
    if not (isinstance(doc, dict) and size_key in doc and key in doc):
        raise ValueError(f"document is not an object with keys {size_key!r} and {key!r}")
    name = "vertex count" if size_key == "vertices" else size_key
    size, items = _number(doc[size_key], int, name), doc[key]
    if size > MAX_SITES:
        raise ValueError(f"{name} {size} above the site cap {MAX_SITES}")
    if not isinstance(items, list):
        raise ValueError(f"{key} {items!r} is not a list")
    return size, items


def load_term_set(doc) -> HermitianTermSet:
    """The term set of a document, given parsed or as a path."""
    dim, items = read_document(doc, "dimension", "terms")
    terms = []
    for k, item in enumerate(items):
        if not (isinstance(item, dict) and isinstance(item.get("entries"), list)):
            raise ValueError(f"term {k} is not an object with an \"entries\" list: {item!r}")
        terms.append(_term_from_entries(dim, item["entries"], f"term {k}: "))
    labels = [item.get("label", f"term{k}") for k, item in enumerate(items)]
    return HermitianTermSet(dimension=dim, terms=tuple(terms), labels=tuple(labels))


# One entry as json.dump(..., indent=1) lays it out, led by ",\n"; %s of a repr is the repr.
_ENTRY = ",\n    [\n     %d,\n     %d,\n     %s,\n     %s\n    ]"


def _term_set_chunks(terms: HermitianTermSet):
    # The term-set document as text chunks, byte for byte json.dump(doc, indent=1)
    # and a newline: the head, each term's entries in chunks of rows, the tail.
    yield f'{{\n "dimension": {terms.dimension},\n "terms": ['
    for k, (label, h) in enumerate(zip(terms.labels, terms.terms)):
        yield f'{"," if k else ""}\n  {{\n   "label": {json.dumps(label)},\n   "entries": '
        yield from _json_array(_entry_chunks(h), "   ")
        yield "\n  }"
    yield "\n ]\n}\n"


def _entry_chunks(h):
    # A term's entries, yielded CSV_CELLS cells at a time. The repr of each distinct
    # float is taken once a block, by bit pattern (0.0 and -0.0 apart).
    entries = _nonzero_entries(h)
    for s in range(0, len(entries[0]), CSV_CELLS // 4):
        rows, cols, values = (a[s:s + CSV_CELLS // 4] for a in entries)
        parts = np.concatenate([values.real, values.imag]).view(np.int64)
        keys, inverse = np.unique(parts, return_inverse=True)
        reprs = np.array(list(map(repr, keys.view(float).tolist())), object)[inverse]
        yield from _format_rows(_ENTRY, np.column_stack([rows, cols, reprs.reshape(2, -1).T]))


def save_term_set(path, terms: HermitianTermSet) -> None:
    """Write the term-set document, byte for byte as json.dump(doc, indent=1)
    followed by a newline, all or nothing (through a temporary file)."""
    _write_outputs((path, _term_set_chunks(terms)))
