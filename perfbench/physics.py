"""The physics workloads: ``paper_step`` and ``cosmo_run``.

``paper_step`` is one live force step at the paper's operating point
(mean group size near 2,000, lists near 13,000 terms) followed by the
sampled original-algorithm recount and the section-5 headline row.
Nearly all of its time is the force kernel, so it shows kernel
changes and hides host-tree changes.

``cosmo_run`` is a whole ``Simulation.run`` of the CLI schedule at a
small group size, with periodic checkpoints.  Small groups make host
traversal the larger cost, so it weighs the same tree layers the
other way, and it is the only workload that runs the integrator and
the checkpoint writer.

Untraced units call ``TreeCode.accelerations``.  Traced units build
each force step from the public layer calls instead, each inside a
span, and must reproduce the untraced output bit for bit.
"""

from __future__ import annotations

import gc
import hashlib
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.kernels import self_potential_correction
from repro.core.groups import make_groups
from repro.core.multipole import compute_moments
from repro.core.kernels.backend import Float64Backend
from repro.cosmo import SCDM
from repro.grape.system import Grape5System
from repro.grape.timing import OPS_PER_INTERACTION
from repro.host.machine import ALPHASERVER_DS10
from repro.perf.opcount import original_interaction_count
from repro.perf.report import HeadlineReport
from repro.sim import Simulation
from repro.sim import checkpoint as sim_checkpoint
from repro.sim.recipes import (build_force, carve_run_region, run_schedule,
                               state_digest)

from outcome import Outcome, median
from spans import SpanRecorder, self_time_by_name

#: the paper's operating point at a size one core evaluates in seconds:
#: N = 113,104 gives mean n_g ~ 1,770 and lists ~ 14,500 terms
PAPER_STEP = {"ngrid": 60, "z_init": 24.0, "theta": 0.5, "n_crit": 4000,
              "backend": "grape", "kernels": "numpy",
              "recount_sample": 8192, "error_sinks": 256}

#: the CLI schedule at a small group size (N = 17,256)
COSMO_RUN = {"ngrid": 32, "z_init": 24.0, "z_final": 0.0, "steps": 12,
             "theta": 0.75, "n_crit": 32, "backend": "grape",
             "kernels": "numpy", "checkpoint_every": 3}

#: RMS relative force error allowed at theta = 0.5: E2 accepts the
#: GRAPE tree error up to 3x the float64 tree error of its ~0.15 %
#: regime
FORCE_ERROR_BOUND = 3 * 0.0015

#: bytes one force call moves per source term (x, y, z, m as float64)
#: and per sink (position in, acceleration and potential out); the
#: kernel byte counts are computed from these, not measured
BYTES_PER_TERM = 32
BYTES_PER_SINK = 56

SETUP_REPEATS = 5

PAPER_VALUES = {"mean_group_size": 2000.0, "mean_list_length": 13431.0,
                "modified_over_original": 6.18, "effective_gflops": 5.92,
                "usd_per_mflops": 7.0}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass
class StepCounts:
    """Counts of one force step, taken from its tree, groups and lists."""

    n: int
    cells: int
    n_groups: int
    mean_group_size: float
    list_terms: int
    interactions: int
    mean_group_list: float
    kernel_bytes: int

    @classmethod
    def of(cls, tree, groups, lists) -> "StepCounts":
        lengths = lists.list_lengths
        return cls(n=tree.n_particles, cells=tree.n_cells,
                   n_groups=groups.n_groups,
                   mean_group_size=float(groups.mean_size),
                   list_terms=lists.total_terms,
                   interactions=int(np.sum(lengths * groups.count)),
                   mean_group_list=float(lengths.mean()),
                   kernel_bytes=int(BYTES_PER_TERM * lengths.sum()
                                    + BYTES_PER_SINK * tree.n_particles))

    @property
    def mean_list_length(self) -> float:
        """Interactions per particle: the paper's list length."""
        return self.interactions / self.n


def layered_step(tc, pos: np.ndarray, mass: np.ndarray, eps: float,
                 rec: SpanRecorder) -> Tuple[np.ndarray, np.ndarray,
                                             StepCounts]:
    """``TreeCode.accelerations`` rebuilt from the public layer calls,
    one span per layer, for a batched kernel set on a plain backend."""
    k = tc.kernels
    with rec.span("core.octree"):
        tree = k.build_tree(pos, mass, leaf_size=tc.leaf_size)
    with rec.span("core.multipole"):
        compute_moments(tree)
    tc.backend.set_domain(float(np.min(tree.corner)),
                          float(np.max(tree.corner + tree.size)))
    with rec.span("core.groups"):
        groups = make_groups(tree, tc.n_crit)
    with rec.span("core.traversal"):
        lists = k.traverse(tree, groups.center, groups.radius, tc.mac)
    acc_s = np.empty((tree.n_particles, 3), dtype=np.float64)
    pot_s = np.empty(tree.n_particles, dtype=np.float64)
    with rec.span("core.kernels"):
        tc.backend.eval_lists(tree.pos_sorted, tree.mass_sorted, tree.com,
                              tree.mass, lists, groups.start, groups.count,
                              eps, acc_s, pot_s)
    pot_s += self_potential_correction(tree.mass_sorted, eps)
    acc = np.empty_like(acc_s)
    pot = np.empty_like(pot_s)
    acc[tree.order] = acc_s
    pot[tree.order] = pot_s
    return acc, pot, StepCounts.of(tree, groups, lists)


def _check_layered(tc) -> None:
    if not tc.kernels.batched or tc.quadrupole or tc.engine is not None \
            or tc.cluster is not None:
        raise ValueError("layered steps need a batched kernel set on a "
                         "plain monopole backend")


class LayeredForce:
    """A force solver for :class:`Simulation` whose every call is a
    traced :func:`layered_step` of ``tc``."""

    def __init__(self, tc, rec: SpanRecorder, key: str) -> None:
        _check_layered(tc)
        self.tc, self.rec, self.key = tc, rec, key
        self.counts = []

    def accelerations(self, pos, mass, eps):
        with self.rec.span("core.treecode",
                           key=f"{self.key}/call{len(self.counts)}"):
            acc, pot, counts = layered_step(self.tc, pos, mass, eps,
                                            self.rec)
        self.counts.append(counts)
        return acc, pot


@contextmanager
def traced_checkpoints(rec: SpanRecorder, written: list):
    """Time every ``save_checkpoint`` call as a ``sim.checkpoint`` span
    and collect the size of each file written (rotation prunes old
    generations, so they are measured at once)."""
    inner = sim_checkpoint.save_checkpoint

    def traced(*args, **kwargs):
        with rec.span("sim.checkpoint"):
            path = inner(*args, **kwargs)
        written.append(Path(path).stat().st_size)
        return path

    sim_checkpoint.save_checkpoint = traced
    try:
        yield
    finally:
        sim_checkpoint.save_checkpoint = inner


# ----------------------------------------------------------------------
# paper_step

class PaperStep:
    """Set-up state of ``paper_step``: the carved sphere and the
    GRAPE-backed solver."""

    def __init__(self, seed: int, cfg: Dict[str, object]) -> None:
        self.seed, self.cfg = seed, cfg
        region = carve_run_region(ngrid=cfg["ngrid"], seed=seed,
                                  z_init=cfg["z_init"])
        self.tc, self.gb = build_force(theta=cfg["theta"],
                                       ncrit=cfg["n_crit"],
                                       backend=cfg["backend"],
                                       kernels=cfg["kernels"])
        sim = Simulation.from_sphere(region, force=self.tc)
        self.pos, self.mass, self.eps = sim.pos, sim.G * sim.mass, sim.eps

    def unit(self, rec: Optional[SpanRecorder] = None) -> Dict[str, object]:
        """One headline evaluation: force step, sampled recount,
        headline row.  Traced when ``rec`` is given."""
        cfg = self.cfg
        self.gb.reset_stats()
        t0 = time.perf_counter()
        with rec.span("paper_step", key="unit") if rec else nullcontext():
            if rec is None:
                acc, pot = self.tc.accelerations(self.pos, self.mass,
                                                 self.eps)
                counts = StepCounts.of(self.tc.last_tree,
                                       self.tc.last_groups,
                                       self.tc.last_lists)
            else:
                _check_layered(self.tc)
                with rec.span("core.treecode", key="unit"):
                    acc, pot, counts = layered_step(
                        self.tc, self.pos, self.mass, self.eps, rec)
            t_step = time.perf_counter()
            with rec.span("perf.opcount") if rec else nullcontext():
                original = original_interaction_count(
                    self.pos, self.mass, theta=cfg["theta"],
                    leaf_size=self.tc.leaf_size,
                    sample=cfg["recount_sample"],
                    rng=np.random.default_rng(self.seed))
            t_recount = time.perf_counter()
            row = headline_row(counts, original, self.gb.model_seconds)
        t1 = time.perf_counter()
        return {"acc": acc, "pot": pot, "counts": counts,
                "original": original, "row": row,
                "model_s": self.gb.model_seconds,
                "grape_interactions": self.gb.interactions,
                "step_s": t_step - t0, "recount_s": t_recount - t_step,
                "unit_s": t1 - t0}


def headline_row(counts: StepCounts, original: float,
                 model_s: float) -> HeadlineReport:
    """The section-5 row from one live step: GRAPE timing-model seconds
    plus the paper host's modelled step time, live interaction counts."""
    host_s = ALPHASERVER_DS10.step_time(counts.n, counts.n_groups,
                                        counts.mean_group_list)
    return HeadlineReport(n_particles=counts.n, n_steps=1,
                          modified_interactions=float(counts.interactions),
                          original_interactions=float(original),
                          wall_seconds=model_s + host_s)


def force_error(ps: PaperStep, acc: np.ndarray) -> float:
    """RMS relative error of ``acc`` against a float64 direct sum over
    a fixed seeded sample of sinks."""
    rng = np.random.default_rng([ps.seed, 2])
    pick = rng.choice(len(ps.pos), size=ps.cfg["error_sinks"], replace=False)
    ref, _ = Float64Backend().compute(ps.pos[pick], ps.pos, ps.mass, ps.eps)
    err = np.linalg.norm(acc[pick] - ref, axis=1) / np.linalg.norm(ref,
                                                                   axis=1)
    return float(np.sqrt(np.mean(err ** 2)))


def run_paper_step(seed: int, seconds: float, trace: bool,
                   cfg: Dict[str, object] = PAPER_STEP) -> Outcome:
    """Headline evaluations for ``seconds`` (at least one).  Traced, each
    untraced unit is followed by a traced one."""
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ps = PaperStep(seed, cfg)
        out.setup_s.append(time.perf_counter() - t0)
    rec = SpanRecorder() if trace else None
    digests, traced, first = set(), [], None
    t_start = time.perf_counter()
    while first is None or fits(t_start, seconds, len(out.unit_s)):
        u = ps.unit()
        out.attempted += 1
        first = first or u
        out.unit_s.append(u["unit_s"])
        out.run_s.append(u["step_s"])
        out.interactions += u["counts"].interactions
        out.interaction_s += u["step_s"]
        digests.add(_digest(u["acc"], u["pot"]))
        if trace:
            t = ps.unit(rec)
            traced.append(t)
            digests.add(_digest(t["acc"], t["pot"]))
            out.check("grape_model_matches_untraced",
                      t["model_s"] == u["model_s"])
    out.wall_s = time.perf_counter() - t_start

    c = first["counts"]
    out.check("acc_pot_digest_repeats", len(digests) == 1)
    err = force_error(ps, first["acc"])
    out.check("force_error_within_e2_bound", err <= FORCE_ERROR_BOUND)
    ref = Grape5System()
    ref.charge_batch(np.asarray(ps.tc.last_groups.count),
                     ps.tc.last_lists.list_lengths)
    out.check("grape_model_seconds_exact",
              ref.model_seconds == first["model_s"]
              and ref.interactions == first["grape_interactions"]
              == c.interactions)
    row = first["row"]
    out.info.update({
        "config": dict(cfg, N=c.n),
        "acc_pot_sha256": digests.pop() if len(digests) == 1 else None,
        "force_error_rms": err,
        "force_error_bound": FORCE_ERROR_BOUND,
        "accounting": {
            "mean_group_size": (c.mean_group_size,
                                PAPER_VALUES["mean_group_size"]),
            "mean_list_length": (c.mean_list_length,
                                 PAPER_VALUES["mean_list_length"]),
            "modified_over_original": (row.counter.overhead_ratio,
                                       PAPER_VALUES["modified_over_original"]),
            "effective_gflops": (row.effective_gflops,
                                 PAPER_VALUES["effective_gflops"]),
            "usd_per_mflops": (row.price_per_mflops,
                               PAPER_VALUES["usd_per_mflops"]),
        },
    })
    if trace:
        out.layers.update(_layer_metrics(rec, [t["counts"] for t in traced],
                                         len(traced)))
        out.layers.update({
            "grape.model_s": traced[0]["model_s"],
            "perf.opcount.original_interactions": traced[0]["original"],
            "perf.opcount.modified_over_original":
                traced[0]["row"].counter.overhead_ratio,
        })
        _trace_totals(out, rec, "paper_step",
                      [t["unit_s"] for t in traced])
        out.info["spans"] = rec
    return out


# ----------------------------------------------------------------------
# cosmo_run

def realization(seed: int, i: int) -> int:
    """The initial-condition seed of unit ``i`` of a run seeded
    ``seed``.  Units use different realizations so that a run's median
    averages over the run-to-run scatter of clustering."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def cosmo_setup(ic_seed: int, cfg: Dict[str, object],
                rec: Optional[SpanRecorder] = None, key: str = ""):
    """ICs, solver and schedule of one run: the timed set-up."""
    region = carve_run_region(ngrid=cfg["ngrid"], seed=ic_seed,
                              z_init=cfg["z_init"])
    tc, _ = build_force(theta=cfg["theta"], ncrit=cfg["n_crit"],
                        backend=cfg["backend"], kernels=cfg["kernels"])
    force = LayeredForce(tc, rec, key) if rec else tc
    sim = Simulation.from_sphere(region, force=force)
    sim.t = SCDM.age(cfg["z_init"])
    sched = run_schedule(z_init=cfg["z_init"], z_final=cfg["z_final"],
                         steps=cfg["steps"])
    return sim, sched


def cosmo_unit(ic_seed: int, cfg: Dict[str, object], workdir: Path,
               rec: Optional[SpanRecorder] = None) -> Dict[str, object]:
    """Set up and run the whole schedule once, checkpointing into
    ``workdir``.  Traced when ``rec`` is given."""
    t0 = time.perf_counter()
    sim, sched = cosmo_setup(ic_seed, cfg, rec, workdir.name)
    t1 = time.perf_counter()
    sizes = []
    workdir.mkdir(parents=True)
    ck = workdir / "ck.npz"
    with (traced_checkpoints(rec, sizes) if rec else nullcontext()):
        with rec.span("sim", key=workdir.name) if rec else nullcontext():
            sim.run(sched, checkpoint_path=ck,
                    checkpoint_every=cfg["checkpoint_every"])
    t2 = time.perf_counter()
    final = state_digest(sim.pos, sim.vel, sim.t)
    back = sim_checkpoint.load_latest(ck)
    counts = sim.force.counts if rec else None
    return {"setup_s": t1 - t0, "run_s": t2 - t1,
            "n": sim.n_particles,
            "interactions": (sum(r.interactions for r in sim.history)
                             if rec is None else
                             sum(c.interactions for c in counts)),
            "counts": counts, "checkpoint_bytes": sizes,
            "digest": final,
            "reload_digest": state_digest(back.pos, back.vel, back.t)}


def run_cosmo(seed: int, seconds: float, trace: bool,
              cfg: Dict[str, object] = COSMO_RUN) -> Outcome:
    """Whole runs for ``seconds`` (at least one), each from its own
    realization into a fresh checkpoint directory.  Traced, each
    untraced run is followed by a traced run of the same realization,
    which must end on the same digest."""
    out = Outcome()
    rec = SpanRecorder() if trace else None
    digests, traced = {}, []
    with tempfile.TemporaryDirectory(prefix="cosmo-") as tmp:
        root = Path(tmp)
        t_start = time.perf_counter()
        i = 0
        while i == 0 or fits(t_start, seconds, i):
            ic = realization(seed, i)
            u = cosmo_unit(ic, cfg, root / f"u{i}")
            out.attempted += 1
            out.setup_s.append(u["setup_s"])
            out.unit_s.append(u["run_s"])
            out.run_s.append(u["run_s"])
            out.interactions += u["interactions"]
            out.interaction_s += u["run_s"]
            digests[ic] = u["digest"]
            out.check("checkpoint_reloads_to_final_digest",
                      u["reload_digest"] == u["digest"])
            if trace:
                t = cosmo_unit(ic, cfg, root / f"t{i}", rec)
                traced.append(t)
                out.check("traced_final_digest_matches_untraced",
                          t["digest"] == u["digest"])
                out.check("checkpoint_reloads_to_final_digest",
                          t["reload_digest"] == t["digest"])
            i += 1
            # a Simulation and its integrator form a reference cycle;
            # free each run's arrays before the next so peak memory is
            # one run's, not a count of runs
            gc.collect()
        out.wall_s = time.perf_counter() - t_start
    # set-up time is measured at every unit; top it up so the median
    # always has SETUP_REPEATS samples
    while len(out.setup_s) < SETUP_REPEATS:
        t0 = time.perf_counter()
        cosmo_setup(realization(seed, 0), cfg)
        out.setup_s.append(time.perf_counter() - t0)
    out.info.update({"config": dict(cfg, N=u["n"]),
                     "final_state_digests": digests})
    if trace:
        counts = [c for t in traced for c in t["counts"]]
        out.layers.update(_layer_metrics(rec, counts, len(traced)))
        sizes = [b for t in traced for b in t["checkpoint_bytes"]]
        out.layers.update({
            "sim.force_calls": len(counts) / len(traced),
            "sim.checkpoint.writes": len(sizes) / len(traced),
            "sim.checkpoint.bytes": sum(sizes) / len(traced),
        })
        _trace_totals(out, rec, "sim", [t["run_s"] for t in traced])
        out.info["spans"] = rec
    return out


def fits(t_start: float, seconds: float, units: int) -> bool:
    """Whether another unit, as long as the mean so far, still ends
    within ``seconds`` of ``t_start``."""
    elapsed = time.perf_counter() - t_start
    return elapsed + elapsed / max(units, 1) <= seconds


# ----------------------------------------------------------------------
# per-layer table

#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "core.octree": "core.octree.build_s",
    "core.multipole": "core.multipole.moments_s",
    "core.groups": "core.groups.group_s",
    "core.traversal": "core.traversal.traverse_s",
    "core.kernels": "core.kernels.eval_s",
    "core.treecode": "core.treecode.self_s",
    "perf.opcount": "perf.opcount.recount_s",
    "sim": "sim.self_s",
    "sim.checkpoint": "sim.checkpoint.save_s",
    "paper_step": "bench.self_s",
}


def _layer_metrics(rec: SpanRecorder, counts, units: int
                   ) -> Dict[str, float]:
    """Self times and work counts per unit, sizes per force step."""
    own = self_time_by_name(rec.spans)
    out = {metric: own.get(name, 0.0) / units
           for name, metric in SELF_TIME_METRICS.items()}

    def total(attr):
        return sum(getattr(c, attr) for c in counts)

    out.update({
        "core.octree.cells": total("cells") / len(counts),
        "core.groups.n_groups": total("n_groups") / len(counts),
        "core.groups.mean_size": total("mean_group_size") / len(counts),
        "core.traversal.list_terms": total("list_terms") / units,
        "core.traversal.mean_list_length":
            total("interactions") / total("n"),
        "core.kernels.interactions": total("interactions") / units,
        "core.kernels.bytes": total("kernel_bytes") / units,
        "core.kernels.ops_per_byte":
            OPS_PER_INTERACTION * total("interactions")
            / total("kernel_bytes"),
    })
    return out


def _trace_totals(out: Outcome, rec: SpanRecorder, root: str,
                  traced_s) -> None:
    """Check that the self times account for the traced end-to-end
    time, and report the tracing overhead against the untraced units."""
    roots = [s for s in rec.spans if s.parent is None]
    total = sum(s.duration for s in roots)
    accounted = sum(self_time_by_name(rec.spans).values())
    out.check("layer_self_times_add_up",
              all(s.name == root for s in roots)
              and abs(accounted - total) <= 1e-9 * max(total, 1.0))
    out.layers["trace.accounted_share"] = accounted / total
    out.layers["trace.overhead_share"] = (median(traced_s)
                                          / median(out.unit_s) - 1.0)
