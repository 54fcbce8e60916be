import multiprocessing
import threading

import pytest

from aeropipe.worker import both


def test_both_returns_each_result_and_runs_second_on_another_thread():
    assert both(threading.get_ident, threading.get_ident)[1] != threading.get_ident()
    assert both(lambda: "first", lambda: "second") == ("first", "second")


def test_second_finishes_before_an_error_in_first_propagates():
    done = threading.Event()
    second_started = threading.Event()

    def first():
        second_started.wait(timeout=10)
        raise KeyError("first")

    def second():
        second_started.set()
        done.wait(timeout=0.2)
        done.set()

    with pytest.raises(KeyError, match="first"):
        both(first, second)
    assert done.is_set()


def test_an_error_in_second_propagates():
    def second():
        raise KeyError("second")

    with pytest.raises(KeyError, match="second"):
        both(lambda: None, second)


def _both_in_child(conn) -> None:
    conn.send(both(lambda: 3, lambda: 4))


def test_both_runs_in_a_forked_child():
    """The child inherits the pool but not the worker thread that the
    parent's last call left running."""
    both(lambda: None, lambda: None)
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe()
    child = ctx.Process(target=_both_in_child, args=(child_end,))
    child.start()
    try:
        assert parent_end.poll(60)
        assert parent_end.recv() == (3, 4)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
