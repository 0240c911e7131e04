"""Scratch buffers for the morsel hot path: per-thread, or per-lease.

Two hot-path kernels write into reusable buffers instead of allocating
per morsel: the ``exists`` probe's keep-mask
(:class:`~repro.engine.operators.AIRProbe`) and the hash aggregate's
dense-domain code offsets
(:func:`~repro.engine.aggregate.hash_aggregate`).  With small morsels
the allocator — not the kernel work — would dominate their profile.
This module keeps one growable buffer per ``(dtype, slot)`` pair **per
execution context**, so the serial backend reuses the same buffers
across every morsel of a query, each thread of the ``thread`` backend
owns its own set, and a ``process`` shard worker keeps its buffers
warm across queries for the lifetime of the worker.

The predicate-vector probe and the MVCC mask gather are not users:
they gather with fancy indexing, because ``np.take`` — the only gather
that writes into a buffer — copies a read-only index array first, and
shard positions are often read-only arena views.

Lifetime discipline (the reason this is safe):

* a scratch view is valid only until the *next* request for the same
  ``(dtype, slot)`` in the same context;
* operators therefore only hand scratch views to consumers that finish
  with them inside the same ``process()`` call (``Morsel.refine`` reads
  the mask once and materializes owned index/position arrays);
* anything that outlives the operator call — deferred ``pending``
  masks, group codes, gathered values, aggregation states — is copied
  into (or built as) an owned array before it is stored.

**Contexts.**  The sync backends identify a context with a thread: one
pipeline runs per thread at a time, so a plain ``threading.local`` pool
is safe and allocation-free.  Under asyncio that identification is
wrong — many pipeline runs interleave on *one* event-loop thread, and a
thread-keyed buffer handed to pipeline A would still be live when
pipeline B awoke between awaits and asked for the same ``(dtype,
slot)``.  Concurrent runs therefore take a **lease**
(:func:`lease_pool`): a pool checked out from a free list for the
duration of one pipeline run and published through a
:class:`contextvars.ContextVar`, which asyncio copies per task — two
interleaved tasks see two different pools, while the thread-local fast
path below stays untouched for the sync backends.

Requests larger than :data:`MAX_POOLED_ELEMENTS` bypass the pool so a
one-off huge morsel cannot pin its high-water mark forever.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Largest request (in elements) served from the pool; bigger buffers are
#: plain one-shot allocations.
MAX_POOLED_ELEMENTS = 1 << 22


class ScratchPool:
    """A set of reusable, growable scratch buffers keyed by (dtype, slot).

    ``take(n, dtype, slot)`` returns a length-*n* view of the backing
    buffer for that key, growing it geometrically when needed.  Two
    simultaneously-live scratch arrays must use distinct slots.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[np.dtype, int], np.ndarray] = {}

    def take(self, n: int, dtype=np.bool_, slot: int = 0) -> np.ndarray:
        """A length-*n* scratch view (contents undefined)."""
        if n > MAX_POOLED_ELEMENTS:
            return np.empty(n, dtype=dtype)
        key = (np.dtype(dtype), slot)
        buf = self._buffers.get(key)
        if buf is None or len(buf) < n:
            capacity = max(1024, 1 << int(max(0, n - 1)).bit_length())
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[key] = buf
        return buf[:n]

    def bool_mask(self, n: int, slot: int = 0) -> np.ndarray:
        """A boolean keep-mask buffer (the common case)."""
        return self.take(n, np.bool_, slot)

    @property
    def nbytes(self) -> int:
        """Total bytes currently pooled (for diagnostics)."""
        return sum(buf.nbytes for buf in self._buffers.values())

    def clear(self) -> None:
        self._buffers.clear()


_TLS = threading.local()

#: The pool of the innermost active lease in this context (``None``
#: outside a lease).  ContextVars are copied per asyncio task, so a
#: lease taken inside one task is invisible to every other task even
#: when they interleave on the same event-loop thread.
_LEASED: "contextvars.ContextVar[Optional[ScratchPool]]" = (
    contextvars.ContextVar("repro_scratch_lease", default=None))

#: Returned lease pools waiting for the next checkout (bounded so a
#: burst of concurrency cannot pin its high-water pool count forever).
_FREE: List[ScratchPool] = []
_FREE_LOCK = threading.Lock()
MAX_FREE_POOLS = 64

#: Lock contract, machine-checked by ``astore lint`` (lock-discipline):
#: the free list is popped/pushed from every engine thread and asyncio
#: task boundary, so it may only be touched under its lock.
GUARDED_BY = {
    "_FREE": "_FREE_LOCK",
}


class PoolLease:
    """A scratch pool checked out for exactly one pipeline run.

    ``with lease_pool():`` makes :func:`local_pool` — and therefore
    every operator's scratch request — resolve to a private pool for
    the duration, then returns the pool (buffers kept warm) to the
    free list.  Leases nest: the innermost lease wins, and exiting
    restores the outer one.
    """

    __slots__ = ("pool", "_token")

    def __init__(self) -> None:
        self.pool: Optional[ScratchPool] = None
        self._token = None

    def __enter__(self) -> ScratchPool:
        with _FREE_LOCK:
            self.pool = _FREE.pop() if _FREE else ScratchPool()
        self._token = _LEASED.set(self.pool)
        return self.pool

    def __exit__(self, *exc) -> None:
        _LEASED.reset(self._token)
        pool, self.pool = self.pool, None
        with _FREE_LOCK:
            if len(_FREE) < MAX_FREE_POOLS:
                _FREE.append(pool)


def lease_pool() -> PoolLease:
    """Check out a scratch pool for one pipeline run (see module doc).

    Use around any execution that can interleave with another on the
    same thread (asyncio serving); the sync backends keep the cheaper
    thread-local path."""
    return PoolLease()


def local_pool() -> ScratchPool:
    """The active scratch pool: the innermost lease of this context if
    one is held, else the calling thread's pool (created on first use).
    """
    pool = _LEASED.get()
    if pool is not None:
        return pool
    pool = getattr(_TLS, "pool", None)
    if pool is None:
        pool = _TLS.pool = ScratchPool()
    return pool
