"""Zero-pickle shipping of compiled structures to process workers.

``run_trials(..., executor="process")`` historically shipped the trial
callable — and everything it closed over — through ``pickle``, so a
process pool paid a structure serialize/deserialize per worker that
dwarfed the trial arithmetic (the ``montecarlo_workers_4`` regression).
This module moves the *data* out of the pickle stream entirely:

* :class:`SharedArena` — one ``multiprocessing.shared_memory`` block
  holding a dict of numpy arrays (64-byte aligned), plus a tiny
  :class:`ArenaHandle` manifest (segment name, dtypes, shapes, offsets).
* :class:`ArenaHandle` — the picklable reference.  ``arrays()`` attaches
  to the segment (cached per process) and returns zero-copy, read-only
  views; handles are a few hundred bytes no matter how large the
  arrays.
* :class:`SharedMemoryTrial` — a picklable trial callable: handle +
  module-level ``build``/``run`` functions.  Each worker process builds
  its state once from the attached views (cached per process) and then
  runs trials at array speed.
* :class:`SharedTrialArena` — the convenience wrapper the benches use:
  arena + ``trial()`` factory.

Lifecycle and caveats
---------------------

The *creator* owns the segment: ``close()`` (or the context manager)
unlinks it.  Attached mappings in workers are dropped when the worker
exits; the attach cache deliberately keeps segments mapped for the
process lifetime so repeated trials stay zero-cost.  The start method
must be ``fork``: forked children share the parent's resource tracker, so
create/attach registrations deduplicate and the creator's single
``unlink`` retires the name.  Under ``spawn`` or ``forkserver`` each child
runs its own tracker, which would unlink the segment when the first
worker exits, so :class:`SharedArena` refuses to build under any other
start method with ``RuntimeError``.

If live views still reference the mapping when the creator closes (e.g.
a kernel built in the creating process), the mapping itself is left to
die with the process — the named segment is unlinked regardless, so
nothing leaks system-wide.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

#: Alignment of every array inside the block, so vector loads never
#: straddle cache lines because of a neighbor's odd byte length.
_ALIGN = 64

_CACHE_LOCK = threading.Lock()
#: Per-process attached segments, by name.  Entries live until the
#: creator closes (its own entry) or the process exits (workers).
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}
#: Per-process built trial states, keyed (segment name, build, run).
_STATES: Dict[Tuple[str, Any, Any], Any] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    with _CACHE_LOCK:
        shm = _ATTACHED.get(name)
        if shm is None:
            shm = shared_memory.SharedMemory(name=name)
            _ATTACHED[name] = shm
        return shm


def _forget(name: str) -> None:
    with _CACHE_LOCK:
        _ATTACHED.pop(name, None)
        for key in [k for k in _STATES if k[0] == name]:
            del _STATES[key]


@dataclass(frozen=True)
class ArraySpec:
    """Manifest entry: where one array lives inside the block."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable reference to a :class:`SharedArena`'s contents.

    Pickling a handle costs bytes proportional to the *manifest* (a few
    entries), never the arrays — this is the object that crosses the
    process-pool boundary.
    """

    name: str
    specs: Tuple[ArraySpec, ...]

    def arrays(self) -> Dict[str, np.ndarray]:
        """Zero-copy, read-only views of every array (attaches to the
        segment on first use in this process, cached thereafter)."""
        shm = _attach(self.name)
        out: Dict[str, np.ndarray] = {}
        for spec in self.specs:
            view: np.ndarray = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=shm.buf,
                offset=spec.offset,
            )
            view.flags.writeable = False
            out[spec.key] = view
        return out


class SharedArena:
    """One shared-memory block holding a named set of numpy arrays.

    Only under the ``fork`` start method (see the module docstring);
    any other raises ``RuntimeError``.
    """

    def __init__(
        self, arrays: Mapping[str, np.ndarray], name: Optional[str] = None
    ) -> None:
        method = multiprocessing.get_start_method()
        if method != "fork":
            raise RuntimeError(
                f"SharedArena needs the 'fork' start method, not {method!r}: "
                "each worker would run its own resource tracker and unlink "
                "the segment when it exits"
            )
        specs = []
        prepared = []
        offset = 0
        for key, value in arrays.items():
            arr = np.ascontiguousarray(value)
            offset = -(-offset // _ALIGN) * _ALIGN
            specs.append(
                ArraySpec(
                    key=key, dtype=arr.dtype.str, shape=arr.shape, offset=offset
                )
            )
            prepared.append((arr, offset))
            offset += arr.nbytes
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(offset, 1), name=name
        )
        for (arr, off), spec in zip(prepared, specs):
            dst: np.ndarray = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=self._shm.buf, offset=off
            )
            dst[...] = arr
        self._handle = ArenaHandle(name=self._shm.name, specs=tuple(specs))
        self._closed = False
        with _CACHE_LOCK:
            # The creator is also a reader; share the same mapping.
            _ATTACHED[self._shm.name] = self._shm

    @property
    def name(self) -> str:
        return self._handle.name

    @property
    def handle(self) -> ArenaHandle:
        return self._handle

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def arrays(self) -> Dict[str, np.ndarray]:
        """Read-only views of the stored arrays (creator-side)."""
        return self._handle.arrays()

    def close(self, unlink: bool = True) -> None:
        """Retire the segment.  ``unlink=True`` (creator's duty) removes
        the name system-wide; attached workers keep their mappings until
        they exit.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        _forget(self.name)
        if unlink:
            self._shm.unlink()
        try:
            self._shm.close()
        except BufferError:
            # Live views (a kernel built in this process) still pin the
            # mapping; it dies with the process, and the name is already
            # unlinked, so nothing leaks system-wide.
            pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _trial_state(trial: "SharedMemoryTrial") -> Any:
    key = (trial.handle.name, trial.build, trial.run)
    with _CACHE_LOCK:
        state = _STATES.get(key)
    if state is None:
        built = trial.build(trial.handle.arrays())
        with _CACHE_LOCK:
            state = _STATES.setdefault(key, built)
    return state


@dataclass(frozen=True)
class SharedMemoryTrial:
    """A picklable ``trial(seed)`` whose data rides shared memory.

    ``build`` (module-level function) turns the attached array views
    into the per-process state — e.g.
    ``CompiledSkewSampler.from_arrays`` — and runs once per process;
    ``run`` (module-level function) maps ``(state, seed)`` to the trial
    value.  Pickling ships only the handle and the two function
    references, so process pools pay O(manifest) serialization
    regardless of structure size.
    """

    handle: ArenaHandle
    build: Callable[[Mapping[str, np.ndarray]], Any]
    run: Callable[[Any, int], float]

    def __call__(self, seed: int) -> float:
        return self.run(_trial_state(self), seed)


class SharedTrialArena(SharedArena):
    """A :class:`SharedArena` that mints :class:`SharedMemoryTrial`\\ s.

    The Monte-Carlo pattern in one object::

        arena = SharedTrialArena(sampler.arrays())
        trial = arena.trial(_build_sampler, _run_sampler)
        summary = run_trials(trial, n, workers=4, executor="process")
        arena.close()

    where ``_build_sampler`` / ``_run_sampler`` are module-level
    functions.  Workers attach to the arena instead of unpickling the
    structure; summaries are bit-identical to the serial path because
    only the execution venue changes, never the per-seed arithmetic.
    """

    def trial(
        self,
        build: Callable[[Mapping[str, np.ndarray]], Any],
        run: Callable[[Any, int], float],
    ) -> SharedMemoryTrial:
        return SharedMemoryTrial(handle=self.handle, build=build, run=run)
