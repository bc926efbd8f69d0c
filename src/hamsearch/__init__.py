"""Quantum-search Hamiltonian evolution toolkit.

Cross-validates the two routes to quantum search -- continuous evolution
under the projector-sum Hamiltonian and iterated reflection products --
and provides the supporting machinery: a first-order product-formula
engine with commutator error bounds, edge-coloring block decomposition of
sparse Hamiltonians, a full state-vector oracle, and majority-vote error
amplification with the associated complexity accounting.
"""

import os
import pickle
import sys
import warnings

import numpy as np

__version__ = "0.1.0"


class _Record:
    """A frozen record: a subclass names its fields in ``_fields``, and its
    ``__init__`` checks them and sets them with ``_set``. Equality, hash and
    repr go by the field values, as a frozen dataclass's do; array fields, and
    tuples of them, are equal when ``np.array_equal`` says so."""

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self._values(), other._values())

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def _equal(a, b) -> bool:
    # Field equality: arrays, alone or in tuples, by their shapes and elements.
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if type(a) is tuple and type(b) is tuple:
        return len(a) == len(b) and all(map(_equal, a, b))
    return a == b


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where there is one."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _shares(items, count: int) -> list:
    # items as max(1, min(usable CPUs, len(items), count)) contiguous slices;
    # one without os.fork.
    cpus = usable_cpus() if hasattr(os, "fork") else 1
    count = max(1, min(cpus, len(items), count))
    return [items[k * len(items) // count:(k + 1) * len(items) // count] for k in range(count)]


def _on_forks(work, parts: list) -> list:
    # [work(p) for p in parts]: forked workers run parts[1:] and pickle their
    # results into one pipe each while this process runs parts[0]. The part of
    # a worker that fails, is killed or writes a stream that does not unpickle
    # is rerun here, and so are the parts from one whose pipe or fork fails,
    # so the results do not depend on the workers.
    workers, results = [], {}  # workers: (pid, read end); results: by part index
    try:
        for part in parts[1:]:
            read_end = write_end = None
            try:
                read_end, write_end = os.pipe()
                with warnings.catch_warnings():  # Python 3.12 warns on a fork of a threaded
                    # process (OpenBLAS's); the worker takes none of their locks.
                    warnings.filterwarnings("ignore", "This process", DeprecationWarning)
                    pid = os.fork()
            except OSError:  # no pipe or no process: this part and the rest run here
                for fd in (read_end, write_end):
                    if fd is not None:
                        os.close(fd)
                break
            if pid == 0:  # the worker: os._exit runs no atexit handler, flushes no stdio
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as fh:
                        pickle.dump(work(part), fh, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:  # work or the write raised
                    os._exit(1)
            os.close(write_end)
            workers.append((pid, read_end))
        results[0] = work(parts[0])
        for k, (_, read_end) in enumerate(workers, 1):
            with open(read_end, "rb", closefd=False) as fh:
                try:
                    results[k] = pickle.load(fh)
                except (pickle.UnpicklingError, EOFError):  # cut short: rerun below
                    pass
    finally:  # every read end closed first: a later worker holds the earlier ones
        for _, read_end in workers:
            os.close(read_end)
        status = [0] + [os.waitpid(pid, 0)[1] for pid, _ in workers]
    return [results[k] if k in results and status[k] == 0 else work(part)
            for k, part in enumerate(parts)]


# Cells per block of output text, and the fewest that go to the CSV kernel in csvcells.
# A block's temporaries stay under 1 MiB. Loading the kernel, on first use, takes about
# 1.5 ms (its source compiled and its tables built) and 0.8 MiB (numpy code paged in),
# and it saves about 0.2 us a cell, so it pays from about 8000 cells.
CSV_CELLS = 8192


def _format_rows(template: str, rows):
    # The one row formatter, and the one cutter of table text: blocks of max(1, CSV_CELLS
    # // width) whole rows of a 2-D array, each yielded as one % operation of the template.
    # CSV rows ('%.17g' cells joined by ',', then '\n') of CSV_CELLS cells or more go block
    # by block to the numpy kernel in csvcells instead, which writes the same bytes.
    step = max(1, CSV_CELLS // (rows.shape[-1] or 1))  # an empty table may be 1-D
    blocks = (rows[k:k + step] for k in range(0, len(rows), step))
    if rows.size >= CSV_CELLS and template == ",".join(["%.17g"] * rows.shape[-1]) + "\n":
        from . import csvcells
        return map(csvcells.csv_block, blocks)
    return ((template * len(c)) % tuple(c.ravel().tolist()) for c in blocks)


def _json_array(chunks, indent: str):
    # The ",\n"-led items as json.dumps(..., indent=1) lays out a list closing at indent.
    first = True
    for chunk in chunks:
        yield "[" + chunk[1:] if first else chunk
        first = False
    yield "[]" if first else "\n" + indent + "]"


def _write_outputs(*outputs) -> None:
    # The package's one writer of output files, all or nothing over (path, text
    # chunks) pairs. Targets that are not regular files, such as /dev/null, are
    # written first; files go under temporary names next to their targets and
    # are renamed once all are written; stdout ('-') comes last. Two files with
    # one real path are rejected before anything is written.
    def write(path, content):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(content)

    devices = [k for k, (path, _) in enumerate(outputs)
               if os.path.exists(path) and not os.path.isfile(path)]
    staged = [(f"{path}.{os.getpid()}-{k}.tmp", path, content)
              for k, (path, content) in enumerate(outputs) if path != "-" and k not in devices]
    seen = set()
    for _, path, _ in staged:
        if os.path.realpath(path) in seen:
            raise ValueError(f"two outputs go to the same file {path}")
        seen.add(os.path.realpath(path))
    for k in devices:
        write(*outputs[k])
    try:
        for tmp, _, content in staged:
            write(tmp, content)
        for tmp, path, _ in staged:
            os.replace(tmp, path)
    finally:
        for tmp in [tmp for tmp, _, _ in staged if os.path.exists(tmp)]:
            os.remove(tmp)
    sys.stdout.writelines(chunk for path, content in outputs if path == "-" for chunk in content)
