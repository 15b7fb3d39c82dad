"""The serving workloads: ``serve_local`` and ``serve_fleet``.

Both drive the HTTP service with a closed loop of two clients: each
client submits a ``force_eval`` job, follows the job's event stream
until it sees a terminal state, fetches the job document, and only
then submits the next job.  The callers of the service are scripts
that wait for each reply, so a closed loop is the load they make.

A seeded three in eight of the submissions repeat one of :data:`POOL`
pool specs, so after its first computation the result cache answers
them; the rest use fresh seeds and go through claim, evaluation and
the cache write.

``serve_local`` is the default ``repro serve`` topology: one
in-process server and scheduler on the in-memory store.
``serve_fleet`` runs two schedulers, each behind its own server with
one client each, over one network store server backed by SQLite.
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fleet import StoreServer
from repro.serve import (JOB_SCHEMA, Backpressure, Scheduler, ServeClient,
                         ServeHTTPError, Server, SQLiteJobStore)

from outcome import Outcome, median
from spans import SpanRecorder

CLIENTS = 2        #: closed-loop clients, one thread each
POOL = 8           #: specs that repeat, so the cache answers them
JOB_N = 1024       #: particles per force_eval job
FLEET_WORKERS = 2  #: schedulers sharing the network store
BLOCK = 8          #: submissions per block of the repeat/fresh mix
REPEATS = 3        #: submissions per block that repeat a pool spec
SETUP_REPEATS = 15  #: extra topologies started only to time set-up

#: the store methods every topology counts and times when traced; the
#: primitive operations of the JobStore contract, so each call on a
#: network store is one RPC
STORE_OPS = ("allocate", "insert", "update", "get", "list", "claim",
             "heartbeat", "recover", "request_cancel", "requeue",
             "append_event", "events", "cache_put", "cache_get",
             "cache_stats", "fleet_register", "fleet_heartbeat",
             "fleet_deregister", "fleet_workers")


def job_spec(seed: int, index: int) -> Dict[str, object]:
    """The ``index``-th submission of a run seeded ``seed``.

    In every block of :data:`BLOCK` submissions a seeded
    :data:`REPEATS` of them repeat one of the :data:`POOL` pool specs;
    the rest carry a seed no other submission of the run uses.  A
    fixed share per block keeps the hit share, and so the throughput,
    the same from seed to seed; a share below one half keeps the
    median latency inside the computed jobs instead of on the edge
    between cache reads and computed jobs, where it would swing from
    run to run.
    """
    block, slot = divmod(index, BLOCK)
    rng = np.random.default_rng([seed, block])
    repeats = rng.permutation(BLOCK) < REPEATS
    picks = rng.integers(POOL, size=BLOCK)
    if repeats[slot]:
        job_seed = pool_seeds(seed)[int(picks[slot])]
    else:
        job_seed = 1_000_000 + index
    return {"schema": JOB_SCHEMA, "kind": "force_eval",
            "params": {"n": JOB_N, "seed": int(job_seed)}}


def pool_seeds(seed: int) -> List[int]:
    """The run's :data:`POOL` repeating job seeds (below 1,000,000, so
    they never meet a fresh seed)."""
    rng = np.random.default_rng([seed, 2**31])
    return [int(s) for s in rng.choice(1_000_000, size=POOL, replace=False)]


def reference_digest(job_seed: int) -> str:
    """The result digest of a ``force_eval`` of ``job_seed`` computed
    in process, through the same construction the job runner uses."""
    from repro.serve.jobs import JobSpec
    from repro.sim.models import plummer_model
    from repro.sim.recipes import build_force
    spec = JobSpec.from_dict({"schema": JOB_SCHEMA, "kind": "force_eval",
                              "params": {"n": JOB_N, "seed": job_seed}})
    p = spec.params
    pos, _, mass = plummer_model(p["n"], np.random.default_rng(p["seed"]))
    tc, _ = build_force(theta=p["theta"], ncrit=p["ncrit"],
                        kernels=spec.kernels)
    acc, pot = tc.accelerations(pos, mass, p["eps"])
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(acc, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(pot, dtype=np.float64).tobytes())
    return h.hexdigest()


class _Loop:
    """An asyncio loop on its own thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()

    def run(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout=timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class Topology:
    """A started service topology; :attr:`ports` lists the HTTP ports
    the clients talk to, one per client.  Every server runs on its own
    event loop thread, as it would in its own process: a worker's
    handlers make blocking store calls, which must not stall another
    worker's requests."""

    def __init__(self, kind: str, root: Path,
                 rec: Optional[SpanRecorder] = None) -> None:
        self.rec = rec
        self.servers: List[Tuple[Server, _Loop]] = []
        self.backing: Optional[SQLiteJobStore] = None
        self.store_server: Optional[Tuple[StoreServer, _Loop]] = None
        root.mkdir(parents=True)
        try:
            if kind == "serve_local":
                self._add_server(Scheduler(workdir=root / "work"))
            else:
                self.backing = SQLiteJobStore(root / "jobs.db")
                if rec is not None:
                    rec.wrap(self.backing, STORE_OPS, "serve.store")
                store_server = StoreServer(self.backing)
                self.store_server = (store_server, _Loop())
                self.store_server[1].run(store_server.start())
                for w in range(FLEET_WORKERS):
                    self._add_server(Scheduler(
                        workdir=root / f"work{w}", store=store_server.url,
                        worker_id=f"bench-w{w}"))
            for port in self.ports:
                ServeClient(port=port, timeout=30.0).healthz()
        except BaseException:
            self.close()
            raise

    def _add_server(self, sched: Scheduler) -> None:
        if self.rec is not None:
            self.rec.wrap(sched.store, STORE_OPS,
                          "serve.store" if self.backing is None
                          else "fleet.rpc")
        server, loop = Server(sched, port=0), _Loop()
        self.servers.append((server, loop))
        loop.run(server.start())

    @property
    def ports(self) -> List[int]:
        ports = [server.port for server, _ in self.servers]
        return ports * CLIENTS if len(ports) == 1 else ports

    @property
    def store_errors(self) -> int:
        """Error envelopes the network store server answered with."""
        return self.store_server[0].errors if self.store_server else 0

    def close(self) -> None:
        for server, loop in self.servers:
            loop.run(server.stop())
            loop.close()
        if self.store_server is not None:
            store_server, loop = self.store_server
            loop.run(store_server.stop())
            loop.close()
        if self.backing is not None:
            self.backing.close()


@dataclass
class JobSample:
    """What one client saw of one submission."""

    index: int
    job_seed: int
    refused: bool
    state: Optional[str] = None
    latency: float = 0.0       #: submit to terminal state seen (s)
    submit_s: float = 0.0      #: the POST /jobs call (s)
    seen_at: float = 0.0       #: wall clock when the terminal state came
    doc: Optional[dict] = None


def closed_loop(ports: List[int], seed: int, seconds: float
                ) -> Tuple[List[JobSample], float]:
    """Run the closed loop for ``seconds``; returns every sample and
    the wall time until the last client finished its last job.  A
    client whose request fails records the failed job and stops."""
    samples: List[JobSample] = []
    lock = threading.Lock()
    counter = iter(range(10**9))
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def client(port: int) -> None:
        c = ServeClient(port=port, timeout=60.0)
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            spec = job_spec(seed, index)
            s = JobSample(index, spec["params"]["seed"], refused=False)
            try:
                start = time.perf_counter()
                try:
                    doc = c.submit(spec)
                except Backpressure as e:
                    s.refused = True
                    with lock:
                        samples.append(s)
                    time.sleep(min(e.retry_after, 1.0))
                    continue
                s.submit_s = time.perf_counter() - start
                for ev in c.events(doc["id"]):
                    if ev.get("event") == "state":
                        s.state = ev["state"]
                s.latency = time.perf_counter() - start
                s.seen_at = time.time()
                s.doc = c.job(doc["id"])
            except (OSError, ServeHTTPError):
                s.state = "error"
                with lock:
                    samples.append(s)
                return
            with lock:
                samples.append(s)

    threads = [threading.Thread(target=client, args=(p,)) for p in ports]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return sorted(samples, key=lambda s: s.index), wall


def _setup(kind: str, root: Path,
           rec: Optional[SpanRecorder] = None) -> Tuple[Topology, float]:
    """Start a topology; the time until every server answers
    ``/healthz`` is the set-up time."""
    t0 = time.perf_counter()
    topo = Topology(kind, root, rec)
    return topo, time.perf_counter() - t0


def run_serve(kind: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """The closed loop for ``seconds`` on a fresh topology and store.
    Traced, the first half runs untraced and the second half on
    another fresh topology with the stores wrapped in spans."""
    out = Outcome()
    # computed first, so the job runner's imports are warm as well
    refs = {s: reference_digest(s) for s in pool_seeds(seed)}
    with tempfile.TemporaryDirectory(prefix=f"{kind}-") as tmp:
        root = Path(tmp)
        # the first start in a process pays one-off imports; untimed
        _setup(kind, root / "warmup")[0].close()
        for i in range(SETUP_REPEATS):
            topo, t = _setup(kind, root / f"setup{i}")
            topo.close()
            out.setup_s.append(t)
        topo, t = _setup(kind, root / "load")
        out.setup_s.append(t)
        try:
            samples, wall = closed_loop(topo.ports, seed,
                                        seconds / 2 if trace else seconds)
        finally:
            topo.close()
        _record(out, samples, wall)
        if trace:
            rec = SpanRecorder()
            topo, _ = _setup(kind, root / "traced", rec)
            try:
                traced, _ = closed_loop(topo.ports, seed, seconds / 2)
            finally:
                topo.close()
            out.attempted += len(traced)
            out.failed += sum(s.state != "done" for s in traced)
            out.layers.update(_layer_metrics(traced, rec, topo))
            done = [s for s in traced if s.state == "done"]
            out.layers["trace.overhead_share"] = (
                median(s.latency for s in done)
                / median(out.unit_s) - 1.0)
            out.info["spans"] = rec
            samples = samples + traced
    _check(out, samples, refs)
    out.info["config"] = {"clients": CLIENTS, "pool_specs": POOL,
                          "job": {"kind": "force_eval",
                                  "params": {"n": JOB_N,
                                             "seed": "pool or fresh"}},
                          "kernels": "service default",
                          "workers": 1 if kind == "serve_local"
                          else FLEET_WORKERS,
                          "store": "memory" if kind == "serve_local"
                          else "sqlite over the network store"}
    return out


def _record(out: Outcome, samples: List[JobSample], wall: float) -> None:
    done = [s for s in samples if s.state == "done"]
    out.attempted += len(samples)
    out.failed += len(samples) - len(done)
    out.wall_s = wall
    out.unit_s = [s.latency for s in done]
    computed = [s for s in done if not s.doc.get("cache_hit")]
    out.run_s = [s.doc["finished_at"] - s.doc["started_at"]
                 for s in computed]
    out.interactions = sum(s.doc["result"]["interactions"] for s in computed)
    out.interaction_s = sum(out.run_s)


def _check(out: Outcome, samples: List[JobSample],
           refs: Dict[int, str]) -> None:
    """Every job done; one digest per spec across hits, misses, workers
    and runs; pool digests equal an in-process evaluation."""
    out.check("every_job_done", all(s.state == "done" for s in samples))
    digests: Dict[int, set] = {}
    for s in samples:
        if s.state == "done":
            digests.setdefault(s.job_seed, set()).add(
                s.doc["result"]["digest"])
    out.check("one_digest_per_spec",
              all(len(d) == 1 for d in digests.values()))
    for job_seed, ref in refs.items():
        seen = digests.get(job_seed)
        if seen:
            out.check("pool_digest_matches_in_process", seen == {ref})


def _layer_metrics(samples: List[JobSample], rec: SpanRecorder,
                   topo: Topology) -> Dict[str, float]:
    """The serving layers' table for one traced loop: job-document
    timestamps give p50 values, store spans give calls and busy time."""
    done = [s for s in samples if s.state == "done"]
    jobs = max(1, len(done))
    computed = [s for s in done if not s.doc.get("cache_hit")]

    def p50(values):
        values = list(values)
        return median(values) if values else 0.0

    store = rec.by_name("serve.store.")
    store_ids = {s.id for s in store}
    rpc = rec.by_name("fleet.rpc.")
    return {
        "serve.server.submit_s": p50(s.submit_s for s in done),
        "serve.server.refused": sum(s.refused for s in samples),
        "serve.server.notify_lag_s": p50(s.seen_at - s.doc["finished_at"]
                                         for s in done),
        "serve.scheduler.queue_wait_s": p50(s.doc["started_at"]
                                            - s.doc["submitted_at"]
                                            for s in done),
        "serve.scheduler.cache_hit_ratio": (len(done) - len(computed))
        / max(1, len(samples)),
        "serve.runner.eval_s": p50(s.doc["finished_at"] - s.doc["started_at"]
                                   for s in computed),
        "serve.store.calls_per_job": len(store) / jobs,
        "serve.store.list_calls_per_job":
            sum(s.name == "serve.store.list" for s in store) / jobs,
        "serve.store.busy_s": sum(s.duration for s in store
                                  if s.parent not in store_ids) / jobs,
        "fleet.rpc_per_job": len(rpc) / jobs,
        "fleet.rpc_s": sum(s.duration for s in rpc) / jobs,
        "fleet.rpc_errors": float(
            sum(s.error for s in rpc)
            + topo.store_errors),
    }
