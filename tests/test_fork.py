"""Tests of the fork map that spreads CV folds and study replications."""

import os

import pytest

from copulatree import _fork
from copulatree._fork import Forked, fork_map
from copulatree.errors import CopulaTreeError


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", [1, 2, 3, 7])
def test_results_in_item_order_and_item_0_here(jobs):
    me = os.getpid()
    out = fork_map(lambda x: (x * x, os.getpid()), range(7), jobs)
    assert [sq for sq, _ in out] == [x * x for x in range(7)]
    assert out[0][1] == me
    assert len({pid for _, pid in out}) == jobs
    assert_no_child_left()


def test_no_items():
    assert fork_map(lambda x: x, [], 4) == []


@pytest.mark.parametrize("bad, want", [({2, 4}, "item 2"), ({3, 5}, "item 3"), ({1, 3}, "item 1")])
def test_the_lowest_failing_item_raises_as_in_the_serial_loop(bad, want):
    """Items 0 and 3 run here, 1 and 4 in one child, 2 and 5 in the other:
    the lowest failure wins wherever it ran, with its type and message."""

    def fn(x):
        if x in bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^{want}$"):
        [fn(x) for x in range(6)]
    with pytest.raises(ValueError, match=f"^{want}$"):
        fork_map(fn, range(6), 3)
    assert_no_child_left()


def test_a_child_that_sends_nothing_raises():
    def fn(x):
        if x == 1:
            os._exit(3)
        return x

    with pytest.raises(CopulaTreeError, match=r"ended without its results \(exit code 3\)"):
        fork_map(fn, range(4), 2)
    assert_no_child_left()


def test_a_result_that_cannot_be_sent_raises():
    """A child that fails to pickle its reply part-way exits 1, and the
    parent reads that as a lost worker, not as a short reply."""
    with pytest.raises(CopulaTreeError, match=r"ended without its results \(exit code 1\)"):
        fork_map(lambda x: [x, lambda: x], range(4), 2)
    assert_no_child_left()


def test_interrupt_here_still_reaps_every_child():
    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        return x

    with pytest.raises(KeyboardInterrupt):
        fork_map(fn, range(6), 3)
    assert_no_child_left()


def test_a_read_that_raises_still_reaps_every_child(monkeypatch):
    """An interrupt while this process reads one child's reply leaves the
    other children for ``__exit__`` to reap."""
    real, reads = _fork._reply, []

    def reply(pid, fd):
        out = real(pid, fd)
        reads.append(pid)
        if len(reads) == 1:
            raise KeyboardInterrupt
        return out

    monkeypatch.setattr(_fork, "_reply", reply)
    with pytest.raises(KeyboardInterrupt):
        fork_map(lambda x: x, range(6), 3)
    assert len(reads) == 2
    assert_no_child_left()


def test_leaving_the_block_early_reaps_every_child():
    """The caller's own work between the fork and ``gather`` (the full-data
    tree of a pruned fit) may raise; the children are reaped all the same."""
    with pytest.raises(RuntimeError, match="caller"):
        with Forked(lambda x: x, range(6), 3):
            raise RuntimeError("caller")
    assert_no_child_left()


def test_a_failed_fork_leaves_its_stripe_here(monkeypatch):
    forks = []

    def no_fork():
        forks.append(1)
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(_fork.os, "fork", no_fork)
    assert fork_map(lambda x: x + 1, range(5), 10**6) == [1, 2, 3, 4, 5]
    assert len(forks) == 4  # the map is capped at one process per item


def test_cpus_reads_the_affinity_mask():
    assert _fork.cpus() == len(os.sched_getaffinity(0))


def test_cpus_without_an_affinity_mask_counts_every_cpu(monkeypatch):
    """Where ``fork`` exists but ``sched_getaffinity`` does not (macOS), the
    maps use every CPU, as the process pool they replace did."""
    monkeypatch.delattr(_fork.os, "sched_getaffinity")
    monkeypatch.setattr(_fork.os, "cpu_count", lambda: 5)
    assert _fork.cpus() == 5


def test_cpus_without_fork_is_1(monkeypatch):
    monkeypatch.delattr(_fork.os, "fork")
    assert _fork.cpus() == 1
