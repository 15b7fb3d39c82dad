"""E13 -- in-process threads vs the pipeline engine's process pool.

The paper's machine splits the i-particles of one Barnes group across
GRAPE pipelines fed by one shared j-stream.  The software analogue
runs two ways here: the in-process ``eval_lists`` sweep, which the
compiled kernel splits across one thread per usable CPU, and
``repro.exec.PipelineEngine``, which ships CSR batches to worker
processes (each evaluating on one thread).  This benchmark runs one
force sweep of a Plummer workload through a one-thread in-process
reference, the default threaded in-process sweep, and the pipeline at
several worker counts; it checks bit-identity at each and writes
``results/e13_parallel.json`` (wall seconds, speedups over the
one-thread reference, threads-over-pool ratios) as a machine-readable
artifact.

Each configuration is timed as the best of :data:`ROUNDS` sweeps after
one warm-up sweep, so pool start-up and the first kernel load stay out
of the numbers.

The >= 1.3x speedup acceptance bound for 4 workers only applies where
the hardware can express it: it is asserted when the machine has >= 4
cores, and recorded (not asserted) on smaller boxes -- a single-core
CI runner cannot speed anything up, and the bit-identity checks are
the correctness content.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from conftest import emit
from repro.bench import register
from repro.core import TreeCode
from repro.core.kernels import batch
from repro.exec import PipelineEngine
from repro.obs.trace import Tracer
from repro.perf.report import format_table
from repro.sim.models import plummer_model

N = 8192
N_CRIT = 256
EPS = 0.01
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_BOUND = 1.3
ROUNDS = 5


@contextmanager
def _one_thread():
    """Evaluate in-process sweeps on the calling thread only (the
    single-thread reference the speedups are measured against)."""
    saved = batch._thread_cap
    batch._thread_cap = 1
    try:
        yield
    finally:
        batch._thread_cap = saved


def _sweep(pos, mass, engine=None):
    """Best-of-``ROUNDS`` sweep after a warm-up: ``(acc, pot, wall,
    stats, kernel threads)``."""
    best = None
    for i in range(ROUNDS + 1):
        tracer = Tracer()
        tc = TreeCode(theta=0.75, n_crit=N_CRIT, engine=engine,
                      tracer=tracer)
        t0 = time.perf_counter()
        acc, pot = tc.accelerations(pos, mass, EPS)
        wall = time.perf_counter() - t0
        if i == 0 or (best is not None and wall >= best[2]):
            continue  # warm-up, or not the fastest round
        (kernel,) = [s for s in tracer.iter_spans()
                     if s.name == "host_kernel"]
        best = (acc, pot, wall, tc.last_stats, kernel.attrs["threads"])
    return best


@register("e13_parallel", tier="fast", section="ext. (engine)",
          summary="in-process threads vs pipeline engine: bit-identity "
                  "+ speedup")
def test_e13_parallel(benchmark, results_dir):
    rng = np.random.default_rng(13)
    pos, _, mass = plummer_model(N, rng)

    def measure():
        with _one_thread():
            acc0, pot0, t_serial, stats0, _ = _sweep(pos, mass)
        acc_t, pot_t, t_threads, stats_t, threads = _sweep(pos, mass)
        assert np.array_equal(acc0, acc_t), "threads diverged from serial"
        assert np.array_equal(pot0, pot_t)
        assert stats_t.total_interactions == stats0.total_interactions
        runs = []
        for w in WORKER_COUNTS:
            with PipelineEngine(workers=w) as eng:
                acc1, pot1, t_pipe, stats1, _ = _sweep(pos, mass,
                                                       engine=eng)
            assert np.array_equal(acc0, acc1), \
                f"pipeline({w}) diverged from serial"
            assert np.array_equal(pot0, pot1)
            assert stats1.total_interactions == stats0.total_interactions
            runs.append({
                "workers": w,
                "wall_seconds": t_pipe,
                "speedup": t_serial / t_pipe,
                "threads_speedup_over_pipeline": t_pipe / t_threads,
                "traverse_seconds": stats1.times.get("traverse", 0.0),
                "eval_seconds": stats1.times.get("eval", 0.0),
            })
        return t_serial, t_threads, threads, stats0, stats_t, runs

    t_serial, t_threads, threads, stats0, stats_t, runs = \
        benchmark.pedantic(measure, rounds=1, iterations=1)

    cores = batch._usable_cpus()
    doc = {
        "schema": "repro.e13_parallel/v2",
        "n_particles": N,
        "n_crit": N_CRIT,
        "interactions": int(stats0.total_interactions),
        "cpu_cores": cores,
        "rounds": ROUNDS,
        "serial_wall_seconds": t_serial,
        "threads": {"threads": threads, "wall_seconds": t_threads,
                    "speedup": t_serial / t_threads,
                    "traverse_seconds": stats_t.times["traverse"],
                    "eval_seconds": stats_t.times["eval"]},
        "pipeline": runs,
        "threads_match_or_beat_pipeline": all(
            t_threads <= r["wall_seconds"] for r in runs),
        "bit_identical": True,
    }
    (results_dir / "e13_parallel.json").write_text(
        json.dumps(doc, indent=2) + "\n")

    rows = [{"engine": "in-process", "workers": "-", "threads": 1,
             "wall [s]": round(t_serial, 3), "speedup": 1.0},
            {"engine": "in-process", "workers": "-", "threads": threads,
             "wall [s]": round(t_threads, 3),
             "speedup": round(t_serial / t_threads, 2)}]
    rows += [{"engine": "pipeline", "workers": r["workers"], "threads": 1,
              "wall [s]": round(r["wall_seconds"], 3),
              "speedup": round(r["speedup"], 2)} for r in runs]
    emit(results_dir, "e13_parallel",
         format_table(rows)
         + f"\n(best of {ROUNDS} sweeps each; bit-identical to the "
         f"one-thread sweep at every configuration; {cores} usable "
         f"cores; threads match or beat the pool at every W: "
         f"{doc['threads_match_or_beat_pipeline']})")

    if cores >= 4:
        best = max(r["speedup"] for r in runs if r["workers"] == 4)
        assert best >= SPEEDUP_BOUND, \
            f"4-worker speedup {best:.2f} < {SPEEDUP_BOUND}"
