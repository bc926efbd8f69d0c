# The package's one parallel primitive: _shares cuts items into contiguous
# parts, one per usable CPU at most, and _on_forks runs them in forked
# workers. A pipe or fork that fails leaves the part, and the parts after
# it, to the caller: the run exits 0 with the same bytes and counts, and
# leaves no file descriptor open and no worker behind.

import errno
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamsearch
from hamsearch import cli
from hamsearch.amplify import SHARD_SIZE, AmplificationPlan, simulate_majorities
from test_golden import SUBSPACE

CPUS = 3


@settings(max_examples=300, deadline=None)
@given(length=st.integers(min_value=0, max_value=40), count=st.integers(min_value=-1,
                                                                         max_value=50),
       cpus=st.integers(min_value=1, max_value=8), forks=st.booleans(),
       kind=st.sampled_from([list, range, np.arange]))
def test_shares_are_contiguous_and_cover_every_item_once(length, count, cpus, forks, kind):
    items = kind(length) if kind is not list else list(range(length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamsearch, "usable_cpus", lambda: cpus)
        if not forks:
            mp.delattr(os, "fork")
        parts = hamsearch._shares(items, count)
    assert len(parts) == (max(1, min(cpus, length, count)) if forks else 1)
    bounds = np.cumsum([0] + [len(part) for part in parts])
    assert bounds[-1] == length
    for part, start, stop in zip(parts, bounds, bounds[1:]):
        assert list(part) == list(range(start, stop))  # contiguous, in order
    assert max(map(len, parts)) - min(map(len, parts)) <= 1


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture
def failing(monkeypatch):
    # arm(call, number): on CPUS CPUs, os.<call> raises EAGAIN on its
    # ``number``-th call; returns the calls made so far, by name, and the
    # descriptors open before the run.
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to list open descriptors")
    calls = {"pipe": 0, "fork": 0}

    def arm(call, number):
        monkeypatch.setattr(hamsearch, "usable_cpus", lambda: CPUS)
        real = getattr(os, call)

        def flaky():
            calls[call] += 1
            if calls[call] == number:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, call, flaky)
        return calls, _open_fds()

    return arm


FAILURES = [("fork", 1), ("fork", 2), ("pipe", 1), ("pipe", 2)]


@pytest.mark.parametrize("call, number", FAILURES)
def test_a_failed_fork_leaves_the_equivalence_bytes(failing, capsys, call, number):
    # The 16000-row sweep: three shares, two of them meant for workers.
    argv, digest = SUBSPACE["equivalence-sweep"]
    calls, fds = failing(call, number)
    assert cli.main([*argv, "--out", "-"]) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (digest, "")
    assert calls[call] == number  # no pipe or fork is tried after the failed one
    assert _open_fds() == fds
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("call, number", FAILURES)
def test_a_failed_fork_leaves_the_majority_counts(failing, monkeypatch, call, number):
    # Four shards on three CPUs: three groups, two of them meant for workers.
    plans = [AmplificationPlan(1 / 16, r, 3 * SHARD_SIZE + 1, seed=4) for r in (1, 3, 5)]
    monkeypatch.setattr(hamsearch, "usable_cpus", lambda: 1)
    expected = [est.failures for est in simulate_majorities(plans)]
    calls, fds = failing(call, number)
    assert [est.failures for est in simulate_majorities(plans)] == expected
    assert calls[call] == number
    assert _open_fds() == fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
