"""One process pool per run: every parallel call inside a scope shares it, and
no worker outlives the outermost scope, also when the run fails."""

import multiprocessing

import pytest

from abperc import parallel, percolation
from abperc.cli import main
from abperc.errors import EstimationError
from abperc.parallel import parallel_starmap, pool_scope


@pytest.fixture
def pools(monkeypatch):
    """The pools made while a test runs, counted where ``parallel`` looks the class up."""
    made = []

    def counted(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    real = parallel.ProcessPoolExecutor
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", counted)
    return made


def test_mu_c_opens_one_pool(pools):
    # the dense-B limit and every B level share the pool
    est = percolation.estimate_mu_c(1.0, 0.8, 8.0, 16, 0.5, 3, jobs=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert est == percolation.estimate_mu_c(1.0, 0.8, 8.0, 16, 0.5, 3, jobs=1)


def test_crossing_probability_opens_one_pool_across_keys(pools):
    queries = [(0.6, 0.5), (0.9, 0.5), (0.6, 2.0)]
    probes = percolation.crossing_probability("AB", queries, 1.0, 8.0, 16, 4, jobs=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert probes == percolation.crossing_probability("AB", queries, 1.0, 8.0, 16, 4, jobs=1)


def test_failed_estimate_leaves_no_worker(pools):
    # far above lambda_c both ends of the bracket cross
    with pytest.raises(EstimationError, match="straddle"):
        percolation.estimate_lambda_c(1.0, 8.0, 16, 0.1, 5, bracket=(2.0, 3.0), jobs=2)
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_nested_scopes_share_the_outer_pool(pools):
    with pool_scope():
        with pool_scope():
            assert parallel_starmap(abs, [(-1,), (-2,)], 2) == [1, 2]
        assert multiprocessing.active_children() != []
        assert parallel_starmap(abs, [(-3,), (4,)], 2) == [3, 4]
        # each jobs value has its own pool
        assert parallel_starmap(abs, [(-5,), (6,), (-7,)], 3) == [5, 6, 7]
    assert len(pools) == 2
    assert multiprocessing.active_children() == []


def test_pool_shut_down_when_the_scope_raises(pools):
    with pytest.raises(RuntimeError, match="inside"):
        with pool_scope():
            parallel_starmap(abs, [(-1,), (-2,)], 2)
            raise RuntimeError("inside")
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    # a later scope makes a new pool
    assert parallel_starmap(abs, [(-1,), (-2,)], 2) == [1, 2]
    assert len(pools) == 2


def test_cli_run_opens_one_pool_across_alphas(pools, tmp_path):
    argv = ["mindeg", "--n", "200", "--alpha", "0.3,1", "--trials", "2", "--jobs", "2",
            "--out", str(tmp_path / "mindeg")]
    assert main(argv) == 0
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_failed_cli_run_leaves_no_worker(pools, tmp_path):
    argv = ["percolate", "--bracket", "2,3", "--L", "8", "--trials", "16", "--jobs", "2",
            "--out", str(tmp_path / "fail")]
    assert main(argv) == 1
    assert len(pools) == 1
    assert multiprocessing.active_children() == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
def test_pool_capped_at_the_cpu_count(monkeypatch, cpus, workers):
    # a pool forks all its workers at its first map, so jobs beyond the CPUs would
    # only fork more processes; the recorder stands in for the pool and forks none
    made = []

    class Recorder:
        def __init__(self, max_workers):
            made.append(max_workers)

        def map(self, fn, *iterables, chunksize):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures):
            pass

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Recorder)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel_starmap(abs, [(-1,), (2,), (-3,)], 10**6) == [1, 2, 3]
    assert made == [workers]
    assert multiprocessing.active_children() == []
