"""Batch drivers: NumPy arrays in, compiled CSR list walk out.

These functions marshal :class:`~repro.core.traversal.InteractionLists`
CSR blocks into the compiled kernels of
:mod:`repro.core.kernels.cnative`.  Every driver is *total*: when the
native library is unavailable (no compiler, kill-switch set, unsupported
numerics) it reports failure -- ``(False, 0)`` / ``False`` -- and the
caller falls back to the per-sink reference loop of
:meth:`~repro.core.kernels.ForceBackend.eval_lists`.  Callers never
need to know whether the fast path exists.

Three properties the execution layer depends on:

* **Assignment semantics** -- output rows are written with ``=``, never
  ``+=``, so re-running a sink range (the pipeline engine's retry
  ladder, the corrupt-result checksum path) is idempotent.
* **Non-rebased CSR views** -- the ``lists`` argument may carry offset
  slices that do not start at zero, with index arrays spanning the whole
  shard; the kernels index ``idx[off[g]:off[g+1]]`` directly, so workers
  can evaluate a half-open batch ``[g0, g1)`` without copying lists.
* **Threaded sweeps, bit-identical** -- a sweep with enough work is cut
  into contiguous group ranges of about equal work (sinks x list
  length), one per usable CPU, each evaluated by the compiled routine
  on its own thread (``ctypes`` releases the GIL) with its own scratch
  buffer.  Every output row is assigned by exactly one thread with
  unchanged per-row arithmetic, so the bytes equal the single-call walk.
  Sweeps below :data:`MIN_WORK_PER_THREAD` per thread stay one call on
  the calling thread.  Threads live for one call only, so nothing
  survives into the processes the pipeline engine forks.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

from . import cnative

__all__ = ["f64_eval_lists", "g5_eval_lists", "native_available",
           "take_threads", "MIN_WORK_PER_THREAD"]

#: interactions (sinks x list length) a sweep needs per evaluation
#: thread -- about 40 ms of serial kernel time, so thread start-up and
#: the join stay under a percent of what each thread computes
MIN_WORK_PER_THREAD = 1 << 22

#: evaluation threads a sweep may use in this process; ``None`` means
#: one per usable CPU.  Only :func:`_pin_single_thread` sets it.
_thread_cap: Optional[int] = None


class _ThreadLog(threading.local):
    """Per calling thread: the widest split since :func:`take_threads`."""

    threads = 1


_log = _ThreadLog()


def native_available() -> bool:
    """Whether the compiled fast path is usable in this process."""
    return cnative.available()


def take_threads() -> int:
    """The most evaluation threads any compiled sweep issued from the
    calling thread used since the previous call (1 when none ran), and
    reset the record.  The treecode reads it to attribute a sweep."""
    threads = _log.threads
    _log.threads = 1
    return threads


def _pin_single_thread() -> None:
    """Evaluate every sweep of this process on its calling thread.

    Pipeline-engine workers call this at start-up: W worker processes
    already occupy the CPUs, and W x T evaluation threads would
    oversubscribe them.
    """
    global _thread_cap
    _thread_cap = 1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity masks
        return os.cpu_count() or 1


def _group_ranges(work: np.ndarray, threads: Optional[int]
                  ) -> List[Tuple[int, int]]:
    """Cut groups ``[0, n_groups)`` into contiguous ranges of about
    equal work, one per evaluation thread.

    ``threads`` forces the count (tests); ``None`` takes
    ``min(usable CPUs, total work // MIN_WORK_PER_THREAD, n_groups)``.
    """
    n_groups = int(work.shape[0])
    cum = np.cumsum(work)
    total = int(cum[-1])
    if threads is None:
        threads = total // MIN_WORK_PER_THREAD
        if threads > 1:
            threads = min(threads, _thread_cap or _usable_cpus())
    threads = max(1, min(int(threads), n_groups))
    if threads == 1:
        return [(0, n_groups)]
    targets = total * np.arange(1, threads, dtype=np.float64) / threads
    cuts = np.searchsorted(cum, targets, side="right")
    bounds = np.unique(np.concatenate(([0], cuts, [n_groups])))
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def _dp(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _ip(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong))


def _f64c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _writable(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous \
        and a.flags.writeable


def _sweep(kernel, pos, pmass, com, cmass, lists, sink_start, sink_count,
           params: tuple, out_acc, out_pot, threads: Optional[int]) -> int:
    """Run one CSR sweep through ``kernel`` and return its interaction
    count.

    ``params`` are the flavour's constants between ``n_groups`` and the
    scratch pointers.  Each group range ``[g0, g1)`` reads the offset
    views ``off[g0:]`` (the kernel's non-rebased contract) and owns the
    output rows of its groups; with one range this is the single call
    on the calling thread.
    """
    cell_idx = _i64c(lists.cell_idx)
    cell_off = _i64c(lists.cell_off)
    part_idx = _i64c(lists.part_idx)
    part_off = _i64c(lists.part_off)
    start = _i64c(sink_start)
    count = _i64c(sink_count)
    n_groups = int(start.shape[0])
    if n_groups == 0:
        return 0
    lengths = np.diff(cell_off) + np.diff(part_off)
    work = count * lengths
    max_len = max(int(lengths.max()), 1)
    sources = [_f64c(a) for a in (pos, pmass, com, cmass)]
    ranges = _group_ranges(work, threads)

    def call(g0: int, g1: int) -> None:
        scratch = np.empty((4, max_len), dtype=np.float64)
        kernel(*map(_dp, sources),
               _ip(cell_idx), _ip(cell_off[g0:]), _ip(part_idx),
               _ip(part_off[g0:]), _ip(start[g0:]), _ip(count[g0:]),
               g1 - g0, *params,
               _dp(scratch[0]), _dp(scratch[1]), _dp(scratch[2]),
               _dp(scratch[3]), _dp(out_acc), _dp(out_pot))

    if len(ranges) == 1:
        call(*ranges[0])
    else:
        with ThreadPoolExecutor(max_workers=len(ranges) - 1) as pool:
            futures = [pool.submit(call, *r) for r in ranges[1:]]
            call(*ranges[0])
            for f in futures:
                f.result()
    _log.threads = max(_log.threads, len(ranges))
    return int(work.sum())


def f64_eval_lists(pos, pmass, com, cmass, lists, sink_start, sink_count,
                   eps, out_acc, out_pot, *, _threads: Optional[int] = None
                   ) -> Tuple[bool, int]:
    """IEEE-double CSR list walk.  Returns ``(done, interactions)``.

    ``_threads`` forces the evaluation-thread count (equivalence tests
    only); by default it follows the work of the sweep.
    """
    lib = cnative.load()
    if lib is None or not (_writable(out_acc) and _writable(out_pot)):
        return False, 0
    inter = _sweep(lib.repro_f64_csr, pos, pmass, com, cmass, lists,
                   sink_start, sink_count, (float(eps) ** 2,),
                   out_acc, out_pot, _threads)
    return True, inter


def _g5_params(eps, numerics, fixed):
    """The reduced-precision constants, or None when the datapath falls
    outside what the compiled kernel models (then use the Python
    pipeline, which is authoritative)."""
    fb = int(numerics.force_fraction_bits)
    if not 1 <= fb <= 52:
        return None
    from repro.grape.numerics import round_mantissa
    eps2q = float(round_mantissa(np.float64(eps) ** 2, fb))
    if fixed is not None:
        use_quant = 1
        xmin = float(fixed.xmin)
        res = float(fixed.resolution)
        qmax = float((1 << int(fixed.bits)) - 1)
    else:
        use_quant, xmin, res, qmax = 0, 0.0, 1.0, 0.0
    return eps2q, fb, use_quant, xmin, res, qmax


def g5_eval_lists(pos, pmass, com, cmass, lists, sink_start, sink_count,
                  eps, out_acc, out_pot, *, numerics, fixed,
                  _threads: Optional[int] = None) -> bool:
    """GRAPE-5 datapath CSR list walk, bit-identical per pair to
    :class:`repro.grape.pipeline.G5Pipeline`.  Returns ``done``.

    ``_threads`` forces the evaluation-thread count (equivalence tests
    only); by default it follows the work of the sweep.
    """
    lib = cnative.load()
    if lib is None or not (_writable(out_acc) and _writable(out_pot)):
        return False
    params = _g5_params(eps, numerics, fixed)
    if params is None:
        return False
    _sweep(lib.repro_g5_csr, pos, pmass, com, cmass, lists, sink_start,
           sink_count, params, out_acc, out_pot, _threads)
    return True
