"""Independent tasks in forked worker processes.

run_tasks runs task(i, checkpoint) for i = 0..count-1 in
min(count, usable CPUs) processes and returns the results in task order.
The calling process takes part: task 0 runs here and task w in forked
worker w, and every later task goes to whichever process is free first.
Which process ran a task never shows in its result, so a task that owns
its seed gives the same result on any number of CPUs.

Forked workers read the caller's data in place instead of receiving a
pickled copy, and send back each result as one pickled message through a
pipe.  A task may call checkpoint() between units of its work: in a
worker it exits the worker if the parent has gone, and in the calling
process it reads any message the workers have sent, so a worker's failure
is raised there within POLL_SECONDS of a checkpoint instead of after the
caller's own tasks.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")
Checkpoint = Callable[[], None]
# the calling process reads its workers' pipes at most this often from a checkpoint
POLL_SECONDS = 0.02


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(task: Callable[[int, Checkpoint | None], T], count: int, noun: str) -> list[T]:
    """The results of task(i, checkpoint) for i in range(count), in that order.

    The tasks run in min(count, usable CPUs) processes; with one CPU,
    without the fork start method, while other Python threads run (a fork
    copies only the calling thread) or in a daemonic process (which may
    not start children) they run here in a loop, with checkpoint None.
    A worker's exception is raised again here with the same type and
    message; every worker has been joined when this returns or raises.
    noun names a task in the message for a worker that dies without
    sending its results.
    """
    procs = min(count, usable_cpus())
    results = _run_forked(task, count, procs, noun) if procs > 1 else None
    if results is None:
        results = [task(i, None) for i in range(count)]
    return results


def _run_forked(task, count: int, procs: int, noun: str) -> list | None:
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
        or multiprocessing.current_process().daemon
    ):
        return None
    ctx = multiprocessing.get_context("fork")
    # tasks 0..procs-1 start one in each process; the counter hands out the rest
    next_task = ctx.Value("q", procs)

    def claim() -> int:
        with next_task.get_lock():
            i = next_task.value
            next_task.value = i + 1
        return i

    workers = {}  # read end -> (worker number, process)
    results = {}
    try:
        for w in range(1, procs):
            receiver, sender = ctx.Pipe(duplex=False)
            # the worker closes every read end it inherits, its own included,
            # so a send to a parent that has gone fails instead of blocking
            readers = [*workers, receiver]
            proc = ctx.Process(
                target=_worker,
                args=(task, count, w, claim, sender, readers, os.getpid()),
                daemon=True,
            )
            proc.start()
            sender.close()
            workers[receiver] = (w, proc)
        running = dict(workers)

        def receive(reader) -> None:
            w, proc = running[reader]
            try:
                message = reader.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"{noun} worker {w} exited with code {proc.exitcode} "
                    f"before sending its {noun}s"
                ) from None
            if message[0] == "error":
                raise message[1]
            if message[0] == "done":
                del running[reader]
            else:
                results[message[1]] = message[2]

        def poll() -> None:
            for reader in wait(list(running), 0):
                receive(reader)

        due = time.monotonic()

        def checkpoint() -> None:
            nonlocal due
            now = time.monotonic()
            if now >= due:
                due = now + POLL_SECONDS
                poll()

        i = 0
        while i < count:
            poll()
            results[i] = task(i, checkpoint)
            i = claim()
        while running:
            for reader in wait(list(running)):
                receive(reader)
        return [results[i] for i in range(count)]
    finally:
        for receiver, (_, proc) in workers.items():
            if proc.is_alive():
                proc.terminate()
            proc.join()
            receiver.close()


def _worker(task, count: int, first: int, claim, sender, readers, parent: int) -> None:
    """Run task `first`, then each task claimed until none is left, sending
    each result as it is done; then send "done", or the exception that
    stopped the work.  Exit if the parent has gone."""
    import signal

    # an interrupt reaches the parent, which then stops every worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for reader in readers:
        reader.close()

    def exit_if_orphaned() -> None:
        if os.getppid() != parent:
            os._exit(1)

    try:
        i = first
        while i < count:
            sender.send(("ok", i, task(i, exit_if_orphaned)))
            exit_if_orphaned()
            i = claim()
        message = ("done",)
    except Exception as exc:  # noqa: BLE001 - re-raised by the parent
        message = ("error", exc)
    try:
        sender.send(message)
    except BrokenPipeError:
        os._exit(1)
