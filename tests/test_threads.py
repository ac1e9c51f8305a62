"""The thread and size rules of :mod:`kfmetric.threads`, which the overlapped stages follow."""

import threading

import pytest

from kfmetric import threads

# how an overlapped stage runs: (one BLAS thread, usable CPUs) -> whether a helper runs
MODES = {
    "blas-threads": ((False, 2), False),
    "one-cpu": ((True, 1), False),
    "helper": ((True, 2), True),
}


def use_mode(monkeypatch, mode):
    """Make the thread rule read the inputs of ``mode``."""
    (one_blas, cpus), _ = MODES[mode]
    monkeypatch.setattr(threads, "_one_blas_thread", lambda: one_blas)
    monkeypatch.setattr(threads, "_cpus_usable", lambda: cpus)


def _blas_env(monkeypatch, env):
    for var in threads._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)


def _helpers(name):
    return [t for t in threading.enumerate() if t.name.startswith(name)]


@pytest.mark.parametrize(
    "env, one",
    [
        ({}, False),  # BLAS runs a thread per CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),  # 0 is unset
        ({"OPENBLAS_NUM_THREADS": "one", "OMP_NUM_THREADS": "4"}, False),
    ],
)
def test_one_blas_thread_follows_openblas(monkeypatch, env, one):
    _blas_env(monkeypatch, env)
    assert threads._one_blas_thread() is one


@pytest.mark.parametrize(
    "env, cpus, helped",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),  # one usable CPU: nothing to overlap
        ({}, 2, False),  # BLAS threads unset: a helper would contend with BLAS's pool
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ],
    ids=["one-cpu", "blas-threads-unset", "one-blas-thread-two-cpus"],
)
def test_a_helper_runs_only_with_one_blas_thread_and_two_cpus(monkeypatch, env, cpus, helped):
    _blas_env(monkeypatch, env)
    monkeypatch.setattr(threads, "_cpus_usable", lambda: cpus)
    with threads.helper("kfmetric-test") as start:
        assert (start is not None) is helped


def test_start_runs_a_call_on_the_helper(monkeypatch):
    use_mode(monkeypatch, "helper")
    with threads.helper("kfmetric-test") as start:
        wait = start(lambda a, b: (a + b, threading.current_thread().name), 2, 3)
        total, name = wait()
    assert total == 5 and name.startswith("kfmetric-test")
    assert _helpers("kfmetric-test") == []


def test_the_helper_is_gone_after_the_body_raises(monkeypatch):
    use_mode(monkeypatch, "helper")
    ran, release = [], threading.Event()
    with pytest.raises(ValueError, match="^body$"):
        with threads.helper("kfmetric-test") as start:
            start(lambda: release.wait(0.2))  # still running when the body raises
            start(ran.append, "queued")  # not started yet, so it is dropped
            assert _helpers("kfmetric-test")
            raise ValueError("body")
    assert _helpers("kfmetric-test") == [] and ran == []


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_step_below_the_size_rule_gets_no_helper(monkeypatch, mode):
    use_mode(monkeypatch, mode)
    before = threading.active_count()
    with threads.helper("kfmetric-test", threads.HELPER_MACS - 1) as start:
        assert start is None and threading.active_count() == before


@pytest.mark.parametrize("macs", [threads.HELPER_MACS, None], ids=["at-the-rule", "any-size"])
def test_a_step_at_the_size_rule_or_of_any_size_gets_a_helper(monkeypatch, macs):
    use_mode(monkeypatch, "helper")
    with threads.helper("kfmetric-test", macs) as start:
        assert start(threading.current_thread)().name.startswith("kfmetric-test")
    assert _helpers("kfmetric-test") == []
