"""A training frame-batch's scenes, run by the calling process and by forked
worker processes.

Scenes share only the parameters, so each scene's frames can run and be
replayed apart. ``ScenePool`` splits a frame-batch's scenes over ``workers``
runners, scene k going to runner k mod workers. Runner 0 is the calling
process; the others are processes forked (``multiprocessing``'s "fork"
context) when the pool is made and stopped by ``close``. A runner keeps, for
each of its scenes, the carried state and one tape per frame of the current
truncation window. It hands back the loss values as arrays and, from the
seeds the caller gives them, each scene's gradient ``G_k``: the scene's
window replayed alone with ``diffcore.replay``, each parameter's sum
starting from zero. No tape joins the scenes, so the caller records none.

Arrays cross between processes through one anonymous shared mapping made
before the fork, not the pipe. It holds the parameters, then one slot per
scene of the largest frame-batch, each slot in the parameters' layout:
- the parent writes the parameters into it before each frame. A worker
  copies each out into a new array, never a view, since its window's older
  tapes still hold the old arrays for their backward (the rule
  ``optimizer_step`` keeps);
- the runner of scene k copies ``G_k`` into slot k, and the parent sets
  every parameter's ``grad`` to ``0 + G_0 + G_1 + ...``, in scene order.
  That order does not depend on the number of runners, so a one-runner run
  gives the same bits.
The pipe carries only commands, loss values, seeds and errors.

Workers are forked, not spawned, so that each starts with the model, the
dataset and the shared mapping in place, none of them pickled; the program
starts no thread, so a fork copies no lock that another thread holds.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import pickle
import traceback
from multiprocessing.connection import wait
from typing import Callable, Optional

import numpy as np

from .diffcore import Tensor, fresh_tape, replay
from .params import ParamStore

# what happens to the carried state before a frame: a fresh start, or the
# cut that ends a truncation window
RESET, DETACH = "reset", "detach"
_ALIGN = 64
_STOP_TIMEOUT_S = 5.0


class WorkerDied(RuntimeError):
    """A worker process ended before it answered."""


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception a worker raised."""

    def __str__(self):
        return self.args[0]


class _Failed(Exception):
    """Scene ``k`` raised ``exc``."""

    def __init__(self, k: int, exc: Exception):
        super().__init__(k, exc)
        self.k, self.exc = k, exc


def _padded(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


class _Runner:
    """Runner ``index`` of ``count``: scene k of a frame-batch when k mod
    count is its index. For each of them it keeps the carried state, the
    tapes of the current truncation window (one per frame, oldest first) and
    the last frame's det and seg losses. ``params`` and ``slots`` are the
    shared mapping's parameter block and per-scene gradient slots."""

    def __init__(self, index: int, count: int, groups: list[list[dict]], initial_state: Callable,
                 run_frame: Callable, store: ParamStore, params: dict[str, np.ndarray],
                 slots: list[dict[str, np.ndarray]]):
        self.index, self.count, self.groups = index, count, groups
        self.initial_state, self.run_frame = initial_state, run_frame
        self.store, self.params, self.slots = store, params, slots
        self.states: dict = {}
        self.tapes: dict[int, list] = {}
        self.losses: dict[int, tuple[Tensor, Tensor]] = {}

    def forward(self, group: int, t: int, cut: Optional[str]) -> dict:
        """Frame ``t`` of this runner's scenes of frame-batch ``group``,
        after ``cut``: each scene's det and seg loss values. A forked runner
        first copies out the parameters the parent wrote."""
        if self.index:
            for name, param in self.store.items():
                param.data = self.params[name].copy()
        metas = self.groups[group]
        mine = range(self.index, len(metas), self.count)
        if cut == RESET:
            self.states = {k: self.initial_state() for k in mine}
        elif cut == DETACH:
            self.states = {k: state.detached() for k, state in self.states.items()}
        if cut is not None:
            self.tapes = {k: [] for k in mine}
        out = {}
        for k in mine:
            with fresh_tape() as tape:
                try:
                    self.states[k], det, seg = self.run_frame(metas[k], t, self.states[k])
                except Exception as e:
                    raise _Failed(k, e) from None
            self.tapes[k].append(tape)
            self.losses[k] = det, seg
            out[k] = det.data, seg.data
        return out

    def backward(self, seeds: dict) -> dict:
        """Replay each scene's window alone from its (det, seg) loss seeds,
        frames newest first, into the parameters' ``grad``, and copy that
        gradient (zeros where none arrived) into the scene's slot. Nothing
        comes back by scene."""
        for k, pair in seeds.items():
            self.store.zero_grads()
            try:
                replay(self.tapes[k], list(zip(self.losses[k], pair)))
            except Exception as e:
                raise _Failed(k, e) from None
            for name, param in self.store.items():
                self.slots[k][name][...] = 0 if param.grad is None else param.grad
        return {}


def _error(k: int, exc: Exception) -> tuple:
    """The reply that scene ``k`` raised ``exc``: the exception itself if it
    survives a pickle round trip, else its type and message."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
    return "err", k, exc, text


def _serve(runner: _Runner, conn, inherited: list) -> None:
    """A worker process: answer each command on ``conn`` until told to stop
    or the parent's end closes. It leaves by ``os._exit``, so none of the
    parent's cleanup runs here."""
    status = 0
    try:
        for other in inherited:
            other.close()
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            cmd, args = msg
            try:
                reply = "ok", getattr(runner, cmd)(*args)
            except _Failed as f:
                reply = _error(f.k, f.exc)
            except Exception as e:
                reply = _error(runner.index, e)
            conn.send(reply)
    except BaseException:
        status = 1
    finally:
        os._exit(status)


def _stop(proc) -> None:
    proc.join(_STOP_TIMEOUT_S)
    if proc.exitcode is None:
        proc.kill()
        proc.join()


class ScenePool:
    """``workers`` runners for the frame-batches ``groups``: this process
    and ``workers - 1`` forked ones. ``initial_state()`` makes a scene's
    first carried state, and ``run_frame(meta, t, state)`` runs one scene's
    frame, returning its new state and its det and seg losses. Use it as a
    context manager, or call ``close``."""

    def __init__(self, store: ParamStore, groups: list[list[dict]], workers: int, initial_state: Callable,
                 run_frame: Callable):
        self.store, self.groups, self.workers = store, groups, workers
        self.group = 0
        self.conns, self.procs = [], []
        offsets, size = {}, 0
        for name, t in store.items():
            offsets[name] = size
            size += _padded(t.data.nbytes)
        blocks = 1 + max(len(group) for group in groups)
        shared = mmap.mmap(-1, max(size * blocks, 1))
        self.params, *self.slots = [
            {name: np.ndarray(t.data.shape, t.data.dtype, shared, b * size + offsets[name]) for name, t in store.items()}
            for b in range(blocks)]

        def runner(r):
            return _Runner(r, workers, groups, initial_state, run_frame, store, self.params, self.slots)

        self.local = runner(0)
        ctx = multiprocessing.get_context("fork")
        try:
            for r in range(1, workers):
                parent_end, child_end = ctx.Pipe()
                self.conns.append(parent_end)
                proc = ctx.Process(target=_serve, args=(runner(r), child_end, self.conns[:]),
                                   name=f"scene-worker-{r}")
                try:
                    proc.start()
                finally:
                    child_end.close()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ScenePool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def forward(self, group: int, t: int, cut: Optional[str]) -> list[tuple[np.ndarray, np.ndarray]]:
        """Frame ``t`` of every scene of frame-batch ``group``, after ``cut``
        (``RESET``, ``DETACH`` or None): each scene's det and seg loss
        values, in scene order. If scenes raised, the exception of the
        lowest scene index propagates."""
        self.group = group
        if self.conns:
            for name, param in self.store.items():
                self.params[name][...] = param.data
        for r in range(1, self.workers):
            self._send(r, ("forward", (group, t, cut)))
        losses = self._gather(lambda: self.local.forward(group, t, cut))
        return [losses[k] for k in range(len(self.groups[group]))]

    def backward(self, seeds: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Replay every scene's window from ``seeds[k]``, the gradient of
        the step's loss by scene k's last det and seg losses, and set each
        parameter's ``grad`` to ``0 + G_0 + G_1 + ...``: scene k's gradient,
        its window replayed alone, added in scene order."""

        def share(r):
            return {k: seeds[k] for k in range(r, len(seeds), self.workers)}

        for r in range(1, self.workers):
            self._send(r, ("backward", (share(r),)))
        self._gather(lambda: self.local.backward(share(0)))
        for name, param in self.store.items():
            grad = np.zeros_like(param.data)
            for slot in self.slots[:len(seeds)]:
                grad += slot[name]
            param.grad = grad

    def close(self) -> None:
        """Stop and join every worker."""
        for conn in self.conns:
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
        for proc in self.procs:
            _stop(proc)
        self.conns, self.procs = [], []
        self.local = None

    def _gather(self, local: Callable[[], dict]) -> dict:
        """Run ``local`` here while the workers answer the command just
        sent, and merge every runner's results by scene. If scenes raised,
        re-raise the exception of the lowest scene index."""
        out, failed = {}, []
        try:
            out.update(local())
        except _Failed as f:
            failed.append((f.k, f.exc, None))
        for r in range(1, self.workers):
            reply = self._reply(r)
            if reply[0] == "err":
                failed.append(reply[1:])
            else:
                out.update(reply[1])
        if failed:
            _, exc, text = min(failed, key=lambda f: f[0])
            if text is None:
                raise exc
            raise exc from WorkerTraceback(text)
        return out

    def _send(self, r: int, msg) -> None:
        try:
            self.conns[r - 1].send(msg)
        except OSError:
            raise self._died(r) from None

    def _reply(self, r: int):
        """Worker ``r``'s answer. Raises ``WorkerDied`` if it ended without
        one."""
        conn, proc = self.conns[r - 1], self.procs[r - 1]
        wait([conn, proc.sentinel])
        try:
            msg = conn.recv() if conn.poll() else None
        except (EOFError, OSError):
            msg = None
        if msg is None:
            raise self._died(r)
        return msg

    def _died(self, r: int) -> WorkerDied:
        proc = self.procs[r - 1]
        _stop(proc)
        metas = self.groups[self.group]
        scenes = ", ".join(f"{k} (id {metas[k]['id']})" for k in range(r, len(metas), self.workers))
        return WorkerDied(f"scene worker {r} died with exit status {proc.exitcode} while running "
                          f"scene {scenes} of frame-batch {self.group}")
