"""One persistent worker thread, so one frame can use a second core.

numpy and scipy release the GIL inside their array loops, so the two
tasks of `both` overlap. Each must write memory the other does not touch.
A worker task must never call `both`: the one thread would wait on itself.
Callers on several threads share the worker; their tasks queue.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait


def _new_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aeropipe-worker")


_new_pool()
# A forked child inherits the pool but not its thread, which would leave
# every task queued forever; the child gets a pool of its own.
os.register_at_fork(after_in_child=_new_pool)


def both(first, second):
    """(first(), second()), with `second` run on the worker thread. When
    `first` raises, `second` still finishes before the error propagates."""
    future = _POOL.submit(second)
    try:
        result = first()
    finally:
        wait((future,))
    return result, future.result()
