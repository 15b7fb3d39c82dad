"""Differential harness for list evaluation (docs/kernels.md).

Every interaction-list sweep goes through
:meth:`~repro.core.kernels.ForceBackend.eval_lists`.  The bundled
backends override it with the compiled CSR walk; the base-class
implementation is the per-sink reference loop over ``compute``.  The
contract between the two:

* **forces and potentials agree to tight float tolerance** -- the
  compiled walk re-associates sums, so exact equality is not required,
  but the error budget is a few ULPs per interaction;
* **the GRAPE time model does not notice** -- call count, interaction
  total and modelled seconds are exactly equal;
* the ``kernels=`` selection is **uniform**: the same value works on
  :class:`~repro.core.treecode.TreeCode`,
  :class:`~repro.cosmo.periodic_tree.PeriodicTreeCode`, the serial
  engine and the pipeline engine, and unknown names fail loudly.

Within the compiled walk, a sweep split across threads is **byte-equal**
to the single call at any thread count (``TestThreadedSweep``).

With ``REPRO_KERNELS_NO_CNATIVE=1`` both sides run the reference loop
and the comparisons hold trivially (and ``TestThreadedSweep`` skips).
"""

import sys
import threading

import numpy as np
import pytest

from repro.cluster.let import take_rows
from repro.core import TreeCode
from repro.core.kernels import (Float64Backend, ForceBackend, batch,
                                kernel_names, resolve_kernels)
from repro.core.traversal import InteractionLists
from repro.cosmo.periodic_tree import PeriodicTreeCode
from repro.exec import PipelineEngine
from repro.grape import GrapeBackend
from repro.grape.numerics import G5_NUMERICS, FixedPointFormat
from repro.obs.trace import Tracer
from repro.sim.models import plummer_model

#: relative tolerance of the native-vs-reference force comparison; the
#: observed error is ~1e-15 (re-association of per-interaction sums),
#: so 1e-12 is two-plus decades of headroom without masking a real
#: kernel bug
RTOL = 1e-12

EPS = 0.01
BOX = 10.0

#: (n, geometry, theta) sweep; the large-N points run one theta to
#: keep the suite inside tier-1 budgets
CASES = [
    (64, "open", 0.75),
    (64, "periodic", 0.75),
    (1000, "open", 0.5),
    (1000, "open", 0.75),
    (1000, "periodic", 0.5),
    (1000, "periodic", 0.75),
    (10000, "open", 0.75),
    (10000, "periodic", 0.75),
]


class ReferenceFloat64(Float64Backend):
    """Float64 arithmetic through the base-class reference loop."""

    eval_lists = ForceBackend.eval_lists


class ReferenceGrape(GrapeBackend):
    """The GRAPE emulator through the base-class reference loop (one
    :meth:`Grape5System.compute` call per sink)."""

    eval_lists = ForceBackend.eval_lists


@pytest.fixture(scope="module")
def snapshots():
    """Deterministic particle sets per (n, geometry)."""
    cache = {}
    for n in sorted({c[0] for c in CASES}):
        rng = np.random.default_rng(1000 + n)
        pos, _, mass = plummer_model(n, rng)
        cache[(n, "open")] = (pos, mass)
        cache[(n, "periodic")] = (rng.uniform(0.0, BOX, size=(n, 3)),
                                  np.full(n, 1.0 / n))
    return cache


@pytest.fixture(scope="module")
def ewald_table():
    """One correction table shared by every periodic case (it is
    position-independent and costs more than the sweeps themselves)."""
    from repro.cosmo.ewald import EwaldCorrectionTable
    return EwaldCorrectionTable(BOX)


def _treecode(geometry, theta, backend, ewald_table, n_crit=256):
    if geometry == "open":
        return TreeCode(theta=theta, n_crit=n_crit, backend=backend)
    return PeriodicTreeCode(box=BOX, theta=theta, n_crit=n_crit,
                            backend=backend, ewald_table=ewald_table)


def _assert_close(acc1, pot1, acc0, pot0):
    scale = np.max(np.abs(acc0))
    np.testing.assert_allclose(acc1, acc0, rtol=RTOL, atol=RTOL * scale)
    # potentials cancel strongly in periodic boxes, so judge them
    # against the field's magnitude, not each near-zero entry
    np.testing.assert_allclose(pot1, pot0, rtol=RTOL,
                               atol=RTOL * np.max(np.abs(pot0)))


class TestRegistry:
    def test_known_names(self):
        assert "python" in kernel_names()
        assert "numpy" in kernel_names()

    def test_default_and_retired_name_resolve_to_one_set(self):
        ks = resolve_kernels(None)
        assert ks.name == "numpy"
        assert ks.batched is True
        assert resolve_kernels("python") is ks
        assert resolve_kernels("numpy") is ks

    def test_resolve_passthrough(self):
        ks = resolve_kernels("numpy")
        assert resolve_kernels(ks) is ks

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            resolve_kernels("fortran")

    def test_shared_tree_kernels(self):
        """Tree bit-identity by construction: every accepted name runs
        the very same build/traverse callables."""
        py, nx = resolve_kernels("python"), resolve_kernels("numpy")
        assert py.morton_keys is nx.morton_keys
        assert py.build_tree is nx.build_tree
        assert py.traverse is nx.traverse

    def test_uniform_rejection_across_surfaces(self):
        from repro.sim.recipes import build_force
        with pytest.raises(ValueError, match="unknown kernels"):
            TreeCode(kernels="bogus")
        with pytest.raises(ValueError, match="unknown kernels"):
            PeriodicTreeCode(box=1.0, kernels="bogus")
        with pytest.raises(ValueError, match="unknown kernels"):
            build_force(theta=0.75, ncrit=256, kernels="bogus")


class TestTreeBitIdentity:
    @pytest.mark.parametrize("n", [64, 1000])
    def test_morton_and_structure_identical(self, snapshots, n):
        pos, mass = snapshots[(n, "open")]
        py, nx = resolve_kernels("python"), resolve_kernels("numpy")
        corner, size = py.bounding_cube(pos)
        assert np.array_equal(py.morton_keys(pos, corner, size),
                              nx.morton_keys(pos, corner, size))
        tp = TreeCode(theta=0.75, n_crit=256, kernels=py).build(pos, mass)
        tn = TreeCode(theta=0.75, n_crit=256, kernels=nx).build(pos, mass)
        assert np.array_equal(tp.keys, tn.keys)
        assert np.array_equal(tp.order, tn.order)
        assert np.array_equal(tp.prefix, tn.prefix)
        assert np.array_equal(tp.start, tn.start)
        assert np.array_equal(tp.count, tn.count)
        assert np.array_equal(tp.child, tn.child)
        assert np.array_equal(tp.is_leaf, tn.is_leaf)


class TestForceEquivalence:
    @pytest.mark.parametrize("n,geometry,theta", CASES)
    def test_numpy_matches_python(self, snapshots, ewald_table, n,
                                  geometry, theta):
        """Native ``eval_lists`` against the reference loop."""
        pos, mass = snapshots[(n, geometry)]
        ref = _treecode(geometry, theta, ReferenceFloat64(), ewald_table)
        acc0, pot0 = ref.accelerations(pos, mass, EPS)
        tc = _treecode(geometry, theta, Float64Backend(), ewald_table)
        acc1, pot1 = tc.accelerations(pos, mass, EPS)
        _assert_close(acc1, pot1, acc0, pot0)
        # identical lists -> identical interaction counts
        assert (tc.last_stats.total_interactions
                == ref.last_stats.total_interactions)
        assert tc.backend.interactions == ref.backend.interactions

    @pytest.mark.parametrize("geometry", ["open", "periodic"])
    def test_original_algorithm(self, snapshots, ewald_table, geometry):
        """One list per particle: single-row sinks through the same
        sweep."""
        pos, mass = snapshots[(1000, geometry)]
        ref = _treecode(geometry, 0.75, ReferenceFloat64(), ewald_table)
        acc0, pot0 = ref.accelerations(pos, mass, EPS,
                                       algorithm="original")
        tc = _treecode(geometry, 0.75, Float64Backend(), ewald_table)
        acc1, pot1 = tc.accelerations(pos, mass, EPS, algorithm="original")
        _assert_close(acc1, pot1, acc0, pot0)
        assert tc.backend.interactions == ref.backend.interactions

    def test_quadrupole_path(self, snapshots):
        pos, mass = snapshots[(1000, "open")]
        ref = TreeCode(theta=0.75, n_crit=256, quadrupole=True,
                       backend=ReferenceFloat64())
        acc0, pot0 = ref.accelerations(pos, mass, EPS)
        tc = TreeCode(theta=0.75, n_crit=256, quadrupole=True)
        acc1, pot1 = tc.accelerations(pos, mass, EPS)
        _assert_close(acc1, pot1, acc0, pot0)

    def _grape_pair(self, snapshots, ewald_table, geometry):
        pos, mass = snapshots[(1000, geometry)]
        out = []
        for gb in (ReferenceGrape(), GrapeBackend()):
            tc = _treecode(geometry, 0.5, gb, ewald_table)
            acc, pot = tc.accelerations(pos, mass, EPS)
            out.append((acc, pot, gb.system.n_calls,
                        gb.system.interactions, gb.system.model_seconds))
        (a0, p0, *counters0), (a1, p1, *counters1) = out
        _assert_close(a1, p1, a0, p0)
        assert counters1 == counters0

    def test_grape_backend_counters_and_forces(self, snapshots,
                                               ewald_table):
        """On the emulator the native walk must preserve the *model*:
        same call count, same interaction totals, same modelled
        seconds -- the paper's time accounting must not notice the
        host-side vectorization."""
        self._grape_pair(snapshots, ewald_table, "open")

    def test_periodic_grape_counters_and_forces(self, snapshots,
                                                ewald_table):
        """The same for the periodic box's one single-sink sweep per
        group."""
        self._grape_pair(snapshots, ewald_table, "periodic")


class TestEngines:
    def test_pipeline_numpy_bit_identical_to_serial_numpy(self,
                                                          snapshots):
        """Worker batches see CSR *slices*; the per-sink arithmetic is
        row-independent, so slicing must not change a single bit."""
        pos, mass = snapshots[(1000, "open")]
        tc = TreeCode(theta=0.75, n_crit=64, kernels="numpy")
        acc0, pot0 = tc.accelerations(pos, mass, EPS)
        with PipelineEngine(workers=2, batch_nj=2048) as eng:
            tcp = TreeCode(theta=0.75, n_crit=64, kernels="numpy",
                           engine=eng)
            acc1, pot1 = tcp.accelerations(pos, mass, EPS)
        assert np.array_equal(acc1, acc0)
        assert np.array_equal(pot1, pot0)

    def test_pipeline_numpy_matches_python_reference(self, snapshots):
        """Pipeline batches against the reference loop."""
        pos, mass = snapshots[(1000, "open")]
        ref = TreeCode(theta=0.75, n_crit=64, backend=ReferenceFloat64())
        acc0, pot0 = ref.accelerations(pos, mass, EPS)
        with PipelineEngine(workers=2, batch_nj=2048) as eng:
            tcp = TreeCode(theta=0.75, n_crit=64, kernels="numpy",
                           engine=eng)
            acc1, pot1 = tcp.accelerations(pos, mass, EPS)
        _assert_close(acc1, pot1, acc0, pot0)


@pytest.mark.chaos
class TestChaosSmoke:
    def test_worker_crash_recovers_bit_identical(self, snapshots):
        """The retry ladder re-executes crashed batches; because
        ``eval_lists`` *assigns* output rows (never accumulates), the
        recovered sweep equals the undisturbed one exactly."""
        pos, mass = snapshots[(1000, "open")]
        with PipelineEngine(workers=2, batch_nj=2048) as eng:
            tc = TreeCode(theta=0.75, n_crit=64, kernels="numpy",
                          engine=eng)
            acc0, pot0 = tc.accelerations(pos, mass, EPS)
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        with PipelineEngine(workers=2, batch_nj=2048,
                            faults="worker_crash@batch=1") as eng:
            tc = TreeCode(theta=0.75, n_crit=64, kernels="numpy",
                          engine=eng, metrics=reg)
            acc1, pot1 = tc.accelerations(pos, mass, EPS)
        assert np.array_equal(acc1, acc0)
        assert np.array_equal(pot1, pot0)
        assert reg.value("exec.fault.worker_deaths") >= 1
        assert reg.value("exec.fault.batch_retries") >= 1


def _sweep_inputs(snapshots, shape):
    """``(tree, lists, sink_start, sink_count)`` of one CSR sweep in
    one of the shapes ``eval_lists`` receives."""
    pos, mass = snapshots[(1000, "open")]
    tc = TreeCode(theta=0.75, n_crit=64)
    algorithm = "original" if shape == "original" else "modified"
    tc.accelerations(pos, mass, EPS, algorithm=algorithm)
    tree, lists = tc.last_tree, tc.last_lists
    if algorithm == "original":
        start = np.arange(tree.n_particles, dtype=np.int64)
        count = np.ones(tree.n_particles, dtype=np.int64)
    else:
        start, count = tc.last_groups.start, tc.last_groups.count
    if shape == "batch_slice":
        # a pipeline batch [g0, g1): offset views into full index arrays
        g0, g1 = 3, lists.n_sinks - 2
        lists = InteractionLists(
            n_sinks=g1 - g0, cell_idx=lists.cell_idx,
            cell_off=lists.cell_off[g0:g1 + 1], part_idx=lists.part_idx,
            part_off=lists.part_off[g0:g1 + 1])
        start, count = start[g0:g1], count[g0:g1]
    elif shape == "take_rows":
        rows = np.arange(1, lists.n_sinks, 3)
        lists = take_rows(lists, rows)
        start, count = start[rows], count[rows]
    elif shape == "two_groups":
        lists = take_rows(lists, np.array([0, 5]))
        start, count = start[[0, 5]], count[[0, 5]]
    elif shape == "empty_lists":
        # every other group has a zero-length list
        keep = np.arange(lists.n_sinks) % 2 == 0
        cells = [lists.cells_of(g) if k else np.empty(0, np.int64)
                 for g, k in enumerate(keep)]
        parts = [lists.parts_of(g) if k else np.empty(0, np.int64)
                 for g, k in enumerate(keep)]
        lists = InteractionLists(
            n_sinks=lists.n_sinks, cell_idx=np.concatenate(cells),
            cell_off=np.concatenate(([0], np.cumsum([len(c) for c in cells]))),
            part_idx=np.concatenate(parts),
            part_off=np.concatenate(([0], np.cumsum([len(p) for p in parts]))))
    return tree, lists, start, count


def _threaded_eval(flavour, tree, lists, start, count, threads):
    """One compiled sweep at a forced thread count; untouched rows stay
    NaN so a row nobody assigned shows in the bytes."""
    acc = np.full((tree.n_particles, 3), np.nan)
    pot = np.full(tree.n_particles, np.nan)
    args = (tree.pos_sorted, tree.mass_sorted, tree.com, tree.mass, lists,
            start, count, EPS, acc, pot)
    if flavour == "f64":
        done, _ = batch.f64_eval_lists(*args, _threads=threads)
    else:
        fixed = None
        if flavour == "g5":
            lo, hi = float(tree.pos_sorted.min()), float(tree.pos_sorted.max())
            fixed = FixedPointFormat(bits=G5_NUMERICS.position_bits,
                                     xmin=lo - 1.0, xmax=hi + 1.0)
        done = batch.g5_eval_lists(*args, numerics=G5_NUMERICS, fixed=fixed,
                                   _threads=threads)
    assert done
    return acc.tobytes() + pot.tobytes()


@pytest.fixture
def split_sweeps(monkeypatch):
    """Call to let the automatic plan split any sweep with work into up
    to four ranges, whatever the host's CPU count."""
    def split():
        monkeypatch.setattr(batch, "MIN_WORK_PER_THREAD", 1)
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 4)
    return split


def _grape_step(pos, mass, **backend_kw):
    """One traced GRAPE force step: ``(output bytes, counters, backend,
    tracer)``."""
    gb = GrapeBackend(**backend_kw)
    tracer = Tracer()
    tc = TreeCode(theta=0.5, n_crit=64, backend=gb, tracer=tracer)
    acc, pot = tc.accelerations(pos, mass, EPS)
    counters = (gb.system.n_calls, gb.system.interactions,
                gb.system.model_seconds)
    return acc.tobytes() + pot.tobytes(), counters, tc, tracer


@pytest.mark.skipif(not batch.native_available(),
                    reason="compiled kernel unavailable")
class TestThreadedSweep:
    """Threaded CSR sweeps are byte-equal to the single-call walk and
    leave the GRAPE time model untouched."""

    @pytest.mark.parametrize("shape", ["modified", "original",
                                       "batch_slice", "take_rows",
                                       "two_groups", "empty_lists"])
    @pytest.mark.parametrize("flavour", ["f64", "g5", "g5_unquantised"])
    def test_forced_threads_byte_equal(self, snapshots, flavour, shape):
        sweep = _sweep_inputs(snapshots, shape)
        ref = _threaded_eval(flavour, *sweep, threads=1)
        assert batch.take_threads() == 1
        for threads in (2, 3, 8):
            assert _threaded_eval(flavour, *sweep, threads=threads) == ref
        # the widest split really ran several ranges (two_groups: two)
        assert batch.take_threads() == min(8, sweep[1].n_sinks)

    def test_concurrent_callers(self, snapshots):
        """Callers on several threads (serve jobs) sweep at once: every
        output stays byte-equal and each caller's record is its own."""
        sweep = _sweep_inputs(snapshots, "modified")
        ref = _threaded_eval("g5", *sweep, threads=1)
        batch.take_threads()
        results = {}

        def job(k):
            out = _threaded_eval("g5", *sweep, threads=3)
            results[k] = (out, batch.take_threads())

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=job, args=(k,))
                       for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in callers)
        assert results == {k: (ref, 3) for k in range(4)}
        assert batch.take_threads() == 1

    def test_automatic_plan(self, monkeypatch):
        work = np.full(10, batch.MIN_WORK_PER_THREAD, dtype=np.int64)
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 4)
        assert batch._group_ranges(work[:1], None) == [(0, 1)]
        assert len(batch._group_ranges(work[:3], None)) == 3
        ranges = batch._group_ranges(work, None)
        assert ranges == [(0, 2), (2, 5), (5, 7), (7, 10)]
        monkeypatch.setattr(batch, "_thread_cap", 1)
        assert batch._group_ranges(work, None) == [(0, 10)]

    def test_grape_counters_and_trace(self, snapshots, split_sweeps):
        """Counters to the last bit, forces to the byte, and the kernel
        span records the split while ``times["kernel"]`` stays wall
        time."""
        pos, mass = snapshots[(1000, "open")]
        out0, counters0, _, tracer0 = _grape_step(pos, mass)
        split_sweeps()
        out1, counters1, tc, tracer1 = _grape_step(pos, mass)
        assert out1 == out0
        assert counters1 == counters0
        for tracer, threads in ((tracer0, 1), (tracer1, 4)):
            (kernel,) = [s for s in tracer.iter_spans()
                         if s.name == "grape_force"]
            assert kernel.attrs["threads"] == threads
        assert tc.last_stats.times["kernel"] == pytest.approx(
            kernel.duration)

    def test_transient_fault_retried_and_charged_once(self, snapshots,
                                                      split_sweeps):
        from repro.faults import FaultInjector, FaultPlan, FaultSpec
        pos, mass = snapshots[(1000, "open")]
        out0, counters0, _, _ = _grape_step(pos, mass)
        split_sweeps()
        plan = FaultPlan([FaultSpec("transient_error",
                                    site="grape.compute", count=1)])
        out1, counters1, tc, _ = _grape_step(
            pos, mass, fault_injector=FaultInjector(plan))
        assert tc.backend.transient_retries == 1
        assert out1 == out0
        assert counters1 == counters0

    def test_pipeline_workers_single_threaded(self, snapshots,
                                              split_sweeps):
        """W worker processes x T threads would oversubscribe the CPUs:
        workers pin their sweeps to one thread (the patched plan is
        inherited through ``fork``, so unpinned workers would split)."""
        pos, mass = snapshots[(1000, "open")]
        split_sweeps()
        tracer = Tracer()
        acc0, pot0 = TreeCode(theta=0.75, n_crit=64,
                              tracer=tracer).accelerations(pos, mass, EPS)
        (kernel,) = [s for s in tracer.iter_spans()
                     if s.name == "host_kernel"]
        assert kernel.attrs["threads"] == 4
        tracer = Tracer()
        with PipelineEngine(workers=2, batch_nj=1 << 20) as eng:
            tc = TreeCode(theta=0.75, n_crit=64, engine=eng, tracer=tracer)
            acc1, pot1 = tc.accelerations(pos, mass, EPS)
        evals = [s for s in tracer.iter_spans() if s.name == "exec.eval"]
        assert evals
        assert all(s.attrs["threads"] == 1 for s in evals)
        assert acc1.tobytes() == acc0.tobytes()
        assert pot1.tobytes() == pot0.tobytes()
