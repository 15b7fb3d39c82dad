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

With ``REPRO_KERNELS_NO_CNATIVE=1`` both sides run the reference loop
and the comparisons hold trivially.
"""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import (Float64Backend, ForceBackend,
                                kernel_names, resolve_kernels)
from repro.cosmo.periodic_tree import PeriodicTreeCode
from repro.exec import PipelineEngine
from repro.grape import GrapeBackend
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
