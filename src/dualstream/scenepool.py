"""A training frame-batch's scenes, run by the calling process and by forked
worker processes.

Scenes share only the parameters, so each scene's frames can run and be
replayed apart. ``ScenePool`` splits a frame-batch's scenes over ``workers``
runners, scene k going to runner k mod workers. Runner 0 is the calling
process; the others are processes forked (``multiprocessing``'s "fork"
context) when the pool is made and stopped by ``close``. A runner keeps, for
each of its scenes, the carried state and one tape per frame of the current
truncation window, and hands back the loss values and, from their seeds,
every gradient its tapes give a parameter (``diffcore.leaf_gradients``).

Arrays cross between processes through shared memory, not the pipe:
- the parameters through one anonymous shared mapping made before the fork.
  The parent writes them into it before each frame. A worker copies each out
  into a new array, never a view, since its window's older tapes still hold
  the old arrays for their backward (the rule ``optimizer_step`` keeps);
- a worker's gradients through a buffer it makes (a memfd handed over with
  ``send_handle``) and grows when a step needs more. The parent reads them
  in place.
The pipe carries only commands, loss values, seeds, and each gradient's
parameter name, offset, shape and dtype.

Workers are forked, not spawned, so that each starts with the model, the
dataset and the shared mapping in place, none of them pickled; training
starts no thread of its own before it forks.
"""

from __future__ import annotations

import contextlib
import mmap
import multiprocessing
import os
import pickle
import traceback
from multiprocessing.connection import wait
from multiprocessing.reduction import recv_handle, send_handle
from typing import Callable, Optional

import numpy as np

from .diffcore import Tensor, fresh_tape, leaf_gradients
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
    the last frame's det and seg losses."""

    def __init__(self, index: int, count: int, groups: list[list[dict]], initial_state: Callable,
                 run_frame: Callable):
        self.index, self.count, self.groups = index, count, groups
        self.initial_state, self.run_frame = initial_state, run_frame
        self.states: dict = {}
        self.tapes: dict[int, list] = {}
        self.losses: dict[int, tuple[Tensor, Tensor]] = {}

    def forward(self, group: int, t: int, cut: Optional[str]) -> dict:
        """Frame ``t`` of this runner's scenes of frame-batch ``group``,
        after ``cut``: each scene's det and seg losses as leaf stand-ins."""
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
            out[k] = tuple(Tensor(x.data, requires_grad=x.requires_grad) for x in (det, seg))
        return out

    def backward(self, seeds: dict) -> dict:
        """Replay each scene's window from its (det, seg) loss seeds (None
        for a loss that got none): its ``leaf_gradients``, frames newest
        first."""
        out = {}
        for k, pair in seeds.items():
            given = [(x, g) for x, g in zip(self.losses[k], pair) if g is not None]
            try:
                out[k] = leaf_gradients(self.tapes[k], given)
            except Exception as e:
                raise _Failed(k, e) from None
        return out


class _Worker:
    """A forked runner's side of the pipe: it copies the parameters out of
    the shared mapping before each frame and writes each step's gradients
    into its buffer."""

    def __init__(self, runner: _Runner, store: ParamStore, params: dict[str, np.ndarray], conn):
        self.runner, self.store, self.params, self.conn = runner, store, params, conn
        self.names = {id(t): name for name, t in store.items()}
        self.buf, self.size = None, 0

    def forward(self, group: int, t: int, cut: Optional[str]) -> dict:
        for name, param in self.store.items():
            param.data = self.params[name].copy()
        return self.runner.forward(group, t, cut)

    def backward(self, seeds: dict) -> dict:
        """The runner's gradients, written into the buffer: per scene and
        frame, each one's (parameter name, offset, shape, dtype)."""
        grads = {k: [[(self.names[id(t)], np.asarray(g)) for t, g in pairs] for pairs in frames]
                 for k, frames in self.runner.backward(seeds).items()}
        need = sum(_padded(g.nbytes) for frames in grads.values() for pairs in frames for _, g in pairs)
        if need > self.size:
            self.size = -(-(need + need // 4) // mmap.PAGESIZE) * mmap.PAGESIZE
            fd = os.memfd_create("dualstream-grads")
            try:
                os.ftruncate(fd, self.size)
                self.buf = mmap.mmap(fd, self.size)
                self.conn.send(("buffer", self.size))
                send_handle(self.conn, fd, os.getppid())
            finally:
                os.close(fd)
        offset, out = 0, {}
        for k, frames in grads.items():
            out[k] = []
            for pairs in frames:
                entries = []
                for name, g in pairs:
                    np.ndarray(g.shape, g.dtype, self.buf, offset)[...] = g
                    entries.append((name, offset, g.shape, g.dtype.str))
                    offset += _padded(g.nbytes)
                out[k].append(entries)
        return out


def _error(k: int, exc: Exception) -> tuple:
    """The reply that scene ``k`` raised ``exc``: the exception itself if it
    survives a pickle round trip, else its type and message."""
    text = "".join(traceback.format_exception(exc))
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
    return "err", k, exc, text


def _serve(worker: _Worker, inherited: list) -> None:
    """A worker process: answer each command until told to stop or the
    parent's end closes. It leaves by ``os._exit``, so none of the parent's
    cleanup runs here."""
    status = 0
    try:
        for conn in inherited:
            conn.close()
        while True:
            try:
                msg = worker.conn.recv()
            except EOFError:
                break
            if msg is None:
                break
            cmd, args = msg
            try:
                reply = "ok", getattr(worker, cmd)(*args)
            except _Failed as f:
                reply = _error(f.k, f.exc)
            except Exception as e:
                reply = _error(worker.runner.index, e)
            worker.conn.send(reply)
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
        self.local = _Runner(0, workers, groups, initial_state, run_frame)
        self.group = 0
        self.stand_ins: list[tuple[Tensor, Tensor]] = []
        self.conns, self.procs, self.bufs = [], [], []
        self.params: dict[str, np.ndarray] = {}
        if workers == 1:
            return
        offsets, size = {}, 0
        for name, t in store.items():
            offsets[name] = size
            size += _padded(t.data.nbytes)
        shared = mmap.mmap(-1, max(size, 1))
        self.params = {name: np.ndarray(t.data.shape, t.data.dtype, shared, offsets[name])
                       for name, t in store.items()}
        ctx = multiprocessing.get_context("fork")
        try:
            for r in range(1, workers):
                parent_end, child_end = ctx.Pipe()
                self.conns.append(parent_end)
                worker = _Worker(_Runner(r, workers, groups, initial_state, run_frame), store, self.params,
                                 child_end)
                proc = ctx.Process(target=_serve, args=(worker, self.conns[:]), name=f"scene-worker-{r}")
                try:
                    proc.start()
                finally:
                    child_end.close()
                self.procs.append(proc)
                self.bufs.append(None)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ScenePool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def forward(self, group: int, t: int, cut: Optional[str]) -> list[tuple[Tensor, Tensor]]:
        """Frame ``t`` of every scene of frame-batch ``group``, after ``cut``
        (``RESET``, ``DETACH`` or None): each scene's det and seg losses, in
        scene order, as leaves holding their values. If scenes raised, the
        exception of the lowest scene index propagates."""
        self.group = group
        if self.conns:
            for name, param in self.store.items():
                self.params[name][...] = param.data
        for r in range(1, self.workers):
            self._send(r, ("forward", (group, t, cut)))
        losses = self._gather(lambda: self.local.forward(group, t, cut), lambda r, reply: reply)
        self.stand_ins = [losses[k] for k in range(len(self.groups[group]))]
        return self.stand_ins

    def backward(self, seeds: dict) -> list[tuple[Tensor, np.ndarray]]:
        """Replay every scene's window from ``seeds`` (the gradient each of
        the last ``forward``'s losses got, by loss) and return the
        ``(parameter, gradient)`` pairs in one tape's order: frames newest
        first; within a frame, the later scene first; within a scene, its
        replay order."""
        pairs = {k: (seeds.get(det), seeds.get(seg)) for k, (det, seg) in enumerate(self.stand_ins)}

        def share(r):
            return {k: pair for k, pair in pairs.items() if k % self.workers == r}

        for r in range(1, self.workers):
            self._send(r, ("backward", (share(r),)))
        grads = self._gather(lambda: self.local.backward(share(0)), self._unpack)
        return [pair for f in range(len(grads[0])) for k in reversed(range(len(grads)))
                for pair in grads[k][f]]

    def close(self) -> None:
        """Stop and join every worker."""
        for conn in self.conns:
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
        for proc in self.procs:
            _stop(proc)
        self.conns, self.procs, self.bufs = [], [], []
        self.local = None

    def _unpack(self, r: int, reply: dict) -> dict:
        buf = self.bufs[r - 1]
        return {k: [[(self.store[name], np.ndarray(shape, np.dtype(dtype), buf, offset))
                     for name, offset, shape, dtype in entries] for entries in frames]
                for k, frames in reply.items()}

    def _gather(self, local: Callable[[], dict], unpack: Callable[[int, dict], dict]) -> dict:
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
                out.update(unpack(r, reply[1]))
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
        """Worker ``r``'s answer, taking over any new gradient buffer it
        announces first. Raises ``WorkerDied`` if it ended without one."""
        conn, proc = self.conns[r - 1], self.procs[r - 1]
        while True:
            wait([conn, proc.sentinel])
            try:
                msg = conn.recv() if conn.poll() else None
            except (EOFError, OSError):
                msg = None
            if msg is None:
                raise self._died(r)
            if msg[0] != "buffer":
                return msg
            fd = recv_handle(conn)
            try:
                self.bufs[r - 1] = mmap.mmap(fd, msg[1])
            finally:
                os.close(fd)

    def _died(self, r: int) -> WorkerDied:
        proc = self.procs[r - 1]
        _stop(proc)
        metas = self.groups[self.group]
        scenes = ", ".join(f"{k} (id {metas[k]['id']})" for k in range(r, len(metas), self.workers))
        return WorkerDied(f"scene worker {r} died with exit status {proc.exitcode} while running "
                          f"scene {scenes} of frame-batch {self.group}")
