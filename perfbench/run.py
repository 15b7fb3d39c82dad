"""The repository's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_step --seed 1 --seconds 30 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``paper_step``  -- one live force step at the paper's operating point,
  the sampled original-algorithm recount and the section-5 headline row;
* ``cosmo_run``   -- a whole ``Simulation.run`` with checkpoints;
* ``serve_local`` -- two closed-loop clients on the default service;
* ``serve_fleet`` -- the same load on two workers over one network store.

Each run repeats its workload's unit of work for ``--seconds`` (at
least once) and prints every end-to-end metric (``--trace 0``) or
every per-layer metric (``--trace 1``) by name and unit, then one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  The
end-to-end metrics mean, on every workload:

* ``setup_s``            median set-up time before the timed work;
* ``headline_s``         median unit time: for ``paper_step`` the force
  step, recount and headline row; else the whole run or job;
* ``run_s``              median time spent running the step schedule:
  the force step, the whole run, or a computed job's run on a worker;
* ``interactions_per_s`` modified-algorithm interactions per ``run_s``
  second;
* ``jobs_per_s``         units completed per wall second;
* ``job_latency_p50_s`` / ``job_latency_p95_s``  nearest-rank unit
  latency percentiles (for jobs: submit until the event stream shows
  the terminal state);
* ``peak_rss_mb``        peak resident memory of the process.

``failed_share`` (failed or refused units plus failed correctness
checks, over units plus checks) is printed and is ``failed /
attempted`` of the JSON line.  Any failed correctness check makes the
run exit 1.

The first run in a checkout compiles the program's native kernel into
``.bench_build/``; every file the benchmark writes stays in there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper_step", "cosmo_run", "serve_local", "serve_fleet")


def _isolate() -> None:
    """Keep every file the program writes inside the checkout: the
    compiled kernel cache and all temporary directories."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload and return its :class:`outcome.Outcome`."""
    if name == "paper_step":
        from physics import run_paper_step
        return run_paper_step(seed, seconds, trace)
    if name == "cosmo_run":
        from physics import run_cosmo
        return run_cosmo(seed, seconds, trace)
    from serving import run_serve
    return run_serve(name, seed, seconds, trace)


def end_to_end(out) -> dict:
    """The end-to-end metric values of an untraced outcome."""
    from outcome import median, percentile
    return {
        "setup_s": median(out.setup_s),
        "headline_s": median(out.unit_s),
        "run_s": median(out.run_s),
        "interactions_per_s": out.interactions / out.interaction_s,
        "jobs_per_s": len(out.unit_s) / out.wall_s,
        "job_latency_p50_s": percentile(out.unit_s, 50),
        "job_latency_p95_s": percentile(out.unit_s, 95),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(spec: dict, workload: str, seed: int, trace: bool, out,
           elapsed: float) -> dict:
    """Print the human-readable report and return the result line."""
    from outcome import beyond
    from repro.bench.fingerprint import machine_fingerprint

    e2e = end_to_end(out)
    checks_failed = sum(not ok for ok in out.checks.values())
    attempted = out.attempted + len(out.checks)
    failed = out.failed + checks_failed
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = out.layers if trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}

    meta = {"workload": workload, "seed": seed, "trace": int(trace),
            "nproc": os.cpu_count(), "config": out.info.get("config"),
            "fingerprint": machine_fingerprint()}
    print(f"# {workload}  seed={seed}  trace={int(trace)}  "
          f"nproc={meta['nproc']}  wall={elapsed:.1f}s")
    print(f"# config: {json.dumps(meta['config'])}")
    print(f"# machine: {json.dumps(meta['fingerprint'])}")
    print("# end-to-end" + ("  (untraced units of this run)"
                            if trace else ""))
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<40} {e2e[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'failed_share':<40} {failed / attempted:>16.6g} share")
    print(f"  samples: {len(out.unit_s)} units, "
          f"{beyond(out.unit_s, 95)} beyond the p95, "
          f"{len(out.run_s)} in run_s")
    if trace:
        print("# per-layer (traced units)")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<40} {metrics[m['name']]['value']:>16.6g} "
                  f"{m['unit']}")
    acct = out.info.get("accounting")
    if acct:
        print("# live paper accounting            live          paper")
        for k, (live, paper) in acct.items():
            print(f"  {k:<28} {live:>12.4g} {paper:>14.4g}")
    for k in ("acc_pot_sha256", "final_state_digests", "force_error_rms"):
        if k in out.info:
            print(f"# {k}: {out.info[k]}")
    print("# checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}"
                                   for k, v in out.checks.items()))

    BUILD.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    spans = out.info.pop("spans", None)
    if spans is not None:
        spans.dump(BUILD / "results" / f"{stem}.spans.jsonl")
    doc = dict(meta, metrics=metrics, end_to_end=e2e, layers=out.layers,
               checks=out.checks, info=out.info, attempted=attempted,
               failed=failed)
    (BUILD / "results" / f"{stem}.json").write_text(
        json.dumps(doc, indent=1, default=str))
    return {"correct": checks_failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _isolate()
    from repro.core.kernels import cnative
    if not cnative.available():
        print("perfbench: native kernel did not build; the program "
              "falls back to its NumPy loop", file=sys.stderr)
    t0 = time.perf_counter()
    out = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    line = report(spec, args.workload, args.seed, bool(args.trace), out,
                  time.perf_counter() - t0)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
