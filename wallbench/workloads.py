"""The benchmark's workloads, driven through ``repro``'s public API.

Every workload follows the same life cycle, run by ``run.py``:

1. ``setup()`` — trace generation, pre-ingest, store open and warm-up;
   run ``setup_reps`` times so its median is steady; only the last
   set-up's state is kept.
2. ``prepare()`` — builds the brute-force oracle and the request lists
   from the generated records.  Untimed: it is benchmark work.
3. ``timed(budget, tracer)`` — the measured phase: ``--seconds`` long
   in a measured run, a fixed amount of work in a traced run.
4. ``finish()`` — checks and reads done after the timed window, then
   closes the session.

Every answer is checked against the oracle outside the timed window;
mismatches, exceptions and non-ok statuses count as failed operations.
"""

from __future__ import annotations

import itertools
import resource
import shutil
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro.api import Session
from repro.core.config import CarpOptions
from repro.core.records import KEY_DTYPE, RecordBatch
from repro.exec.api import SERIAL_EXEC
from repro.query.request import STATUS_OK, QueryRequest, QueryResponse
from repro.storage.log import list_logs
from repro.traces.vpic import VpicTraceSpec, generate_timestep

from hostspeed import HostSpeed
from layertrace import NullTracer

#: Failure descriptions kept for the report; the count is always exact.
_MAX_PROBLEMS = 10


@dataclass(frozen=True)
class Budget:
    """When a timed phase stops.

    Time-bounded (``units is None``): after ``seconds`` of measured time
    and at least ``min_units`` units of work.  Fixed: after exactly
    ``units`` units, whatever the time.
    """

    seconds: float
    min_units: int
    units: int | None = None

    def more(self, elapsed: float, done: int) -> bool:
        if self.units is not None:
            return done < self.units
        return done < self.min_units or elapsed < self.seconds


@dataclass
class Measures:
    """What one pass measured; the end-to-end metrics derive from it."""

    ingest_records: int = 0
    ingest_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    read_window_s: float = 0.0
    #: wall time of the timed phase, the base of trace_overhead_ratio
    wall_s: float = 0.0
    #: units of work the timed phase completed
    units: int = 0
    log_bytes: int = 0
    user_bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    rejected: int = 0


class Oracle:
    """One epoch's generated records, sorted by key (stable)."""

    def __init__(self, streams: list[RecordBatch]) -> None:
        keys = np.concatenate([b.keys for b in streams])
        rids = np.concatenate([b.rids for b in streams])
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.rids = rids[order]

    def __len__(self) -> int:
        return len(self.keys)

    def matches(self, request: QueryRequest, response: QueryResponse) -> bool:
        """Exact keys in ``[lo, hi]``, and the rid multiset of a full read.

        Query bounds are generated from stored float32 keys, so
        searching in float32 is exact.
        """
        lo = np.float32(request.lo)
        hi = np.float32(request.hi)
        i = int(np.searchsorted(self.keys, lo, side="left"))
        j = int(np.searchsorted(self.keys, hi, side="right"))
        if not np.array_equal(response.keys, self.keys[i:j]):
            return False
        if request.keys_only:
            return True
        return np.array_equal(np.sort(response.rids), np.sort(self.rids[i:j]))


def make_requests(
    rng: np.random.Generator,
    sorted_keys: list[np.ndarray],
    count: int,
    queries: dict[str, Any],
    epoch_per_request: bool,
) -> list[QueryRequest]:
    """Range requests anchored at random key quantiles.

    Request ``i`` targets epoch ``i % len(sorted_keys)`` and is keys_only
    once in every ``keys_only_every`` requests, at a position that
    rotates so every epoch gets its share.  With ``epoch_per_request``
    false the requests name no epoch (latest committed) and anchor in
    ``sorted_keys[0]``.
    """
    lo_exp, hi_exp = queries["log10_selectivity"]
    every = queries["keys_only_every"]
    selectivity = 10.0 ** rng.uniform(lo_exp, hi_exp, count)
    quantile = rng.uniform(0.0, 1.0 - selectivity)
    requests = []
    for i in range(count):
        target = i % len(sorted_keys) if epoch_per_request else 0
        keys = sorted_keys[target]
        n = len(keys)
        lo = keys[min(int(quantile[i] * n), n - 1)]
        hi = keys[min(int((quantile[i] + selectivity[i]) * n), n - 1)]
        requests.append(QueryRequest(
            lo=float(lo),
            hi=float(hi),
            epoch=target if epoch_per_request else None,
            keys_only=(i % every) == (i // every) % every,
        ))
    return requests


def percentile_ms(samples: list[float], q: float) -> float:
    """``q``-th percentile of latency samples, in milliseconds."""
    return float(np.percentile(np.asarray(samples), q)) * 1e3


class Workload:
    """Shared plumbing: sessions, failure accounting, metrics."""

    name = ""

    def __init__(
        self, design: dict[str, Any], seed: int, seconds: float, workdir: Path
    ) -> None:
        self.design = design
        self.spec = design["workloads"][self.name]
        self.trace = self.spec["trace"]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.options = CarpOptions(
            **{k: v for k, v in design["options"].items() if k != "about"}
        )
        self.record_bytes = KEY_DTYPE.itemsize + self.options.value_size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # the serve client and the writer both record failures
        self._fail_lock = threading.Lock()
        self.setup_s: list[float] = []
        self.session: Session | None = None
        self.host = HostSpeed(**design["host_speed"]["probe"])

    # ----------------------------------------------------------- plumbing

    def vpic(self, particles_per_rank: int | None = None) -> VpicTraceSpec:
        return VpicTraceSpec(
            nranks=self.trace["nranks"],
            particles_per_rank=(
                particles_per_rank or self.trace["particles_per_rank"]
            ),
            seed=self.seed,
            value_size=self.options.value_size,
        )

    def generate(self) -> list[list[RecordBatch]]:
        spec = self.vpic()
        return [generate_timestep(spec, i) for i in self.trace["timestep_indices"]]

    def open_session(self, name: str) -> Session:
        """A session over a fresh, empty directory of the work area."""
        directory = self.workdir / name
        shutil.rmtree(directory, ignore_errors=True)
        return Session(
            self.trace["nranks"], directory, self.options, executor=SERIAL_EXEC
        )

    def close_session(self) -> None:
        if self.session is not None:
            self.session.close()
            shutil.rmtree(self.session.out_dir, ignore_errors=True)
            self.session = None

    def fail(self, what: str) -> None:
        with self._fail_lock:
            self.failed += 1
            if len(self.problems) < _MAX_PROBLEMS:
                self.problems.append(what)

    def ingest(self, session: Session, epoch: int, streams: list[RecordBatch],
               measures: Measures) -> bool:
        """One timed ``ingest_epoch``; False when it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            session.ingest_epoch(epoch, streams)
        except Exception as exc:  # counted, reported, and the phase stops
            self.fail(f"ingest_epoch({epoch}): {type(exc).__name__}: {exc}")
            return False
        measures.ingest_s += perf_counter() - start
        measures.ingest_records += sum(len(s) for s in streams)
        return True

    def check_answer(self, oracle: Oracle | None, request: QueryRequest,
                     response: QueryResponse | None) -> None:
        self.attempted += 1
        if response is None:
            return  # the exception was already counted
        if response.status != STATUS_OK:
            self.fail(f"status {response.status}: {response.detail}")
        elif oracle is None:
            self.fail(f"answer names unknown epoch {response.epoch}")
        elif not oracle.matches(request, response):
            self.fail(
                f"oracle mismatch: epoch {response.epoch} "
                f"[{request.lo}, {request.hi}] keys_only={request.keys_only}"
            )

    def check_committed(self, session: Session, counts: dict[int, int]) -> None:
        """Committed records of each epoch equal the generated ones."""
        store = session.store()
        for epoch, expected in counts.items():
            got = store.total_records(epoch)
            if got != expected:
                self.fail(f"epoch {epoch}: {got} records committed, "
                          f"{expected} generated")

    def store_bytes(self, session: Session, measures: Measures,
                    records: int) -> None:
        measures.log_bytes = sum(p.stat().st_size for p in list_logs(session.out_dir))
        measures.user_bytes = records * self.record_bytes

    def read_loop(self, session: Session, requests: list[QueryRequest],
                  oracles: list[Oracle], budget: Budget, tracer: Any,
                  measures: Measures, verify_every: int) -> None:
        """Closed loop of ``Session.query`` calls, one outstanding.

        The clock and the tracer pause while a batch of answers is
        checked and while the host speed is probed, so neither is timed.
        """
        pending: list[tuple[QueryRequest, QueryResponse | None]] = []
        elapsed = 0.0
        done = 0
        every = self.design["host_speed"]["read_every_s"]
        next_probe = 0.0
        segment = perf_counter()
        tracer.resume()
        while budget.more(elapsed + perf_counter() - segment, done):
            if elapsed + perf_counter() - segment >= next_probe:
                tracer.pause()
                elapsed += perf_counter() - segment
                self.host.probe("read")
                next_probe += every
                segment = perf_counter()
                tracer.resume()
            request = requests[done % len(requests)]
            start = perf_counter()
            try:
                response: QueryResponse | None = session.query(request)
            except Exception as exc:  # counted as a failed read
                self.fail(f"query: {type(exc).__name__}: {exc}")
                response = None
            measures.latencies_s.append(perf_counter() - start)
            pending.append((request, response))
            done += 1
            if len(pending) >= verify_every:
                tracer.pause()
                elapsed += perf_counter() - segment
                self.verify_reads(pending, oracles)
                segment = perf_counter()
                tracer.resume()
        tracer.pause()
        elapsed += perf_counter() - segment
        self.verify_reads(pending, oracles)
        measures.read_window_s += elapsed
        measures.units += done

    def verify_reads(self, pending: list[tuple[QueryRequest, QueryResponse | None]],
                     oracles: list[Oracle]) -> None:
        for request, response in pending:
            epoch = request.epoch
            self.check_answer(
                oracles[epoch] if epoch is not None else None, request, response
            )
        pending.clear()

    #: host-speed phase each figure was measured in: ingest, read
    phases = {"ingest": "ingest", "read": "read"}

    def end_to_end(self, measures: Measures) -> tuple[dict[str, float], dict[str, float]]:
        """The end-to-end metrics of an untraced run, raw and calibrated.

        Calibrated figures are at the reference host speed (see
        :mod:`hostspeed`): wall times divided by their phase's host
        factor, rates multiplied by it.
        """
        raw = {
            "ingest_records_per_s": measures.ingest_records / measures.ingest_s,
            "read_p50_ms": percentile_ms(measures.latencies_s, 50),
            "read_p99_ms": percentile_ms(measures.latencies_s, 99),
            "reads_per_s": len(measures.latencies_s) / measures.read_window_s,
            "bytes_per_user_byte": measures.log_bytes / measures.user_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(self.setup_s),
        }
        ingest = self.host.factor(self.phases["ingest"])
        read = self.host.factor(self.phases["read"])
        scale = {
            "ingest_records_per_s": ingest,
            "read_p50_ms": 1.0 / read,
            "read_p99_ms": 1.0 / read,
            "reads_per_s": read,
            "setup_s": 1.0 / self.host.factor("setup"),
        }
        return raw, {name: value * scale.get(name, 1.0) for name, value in raw.items()}

    # ------------------------------------------------------ the life cycle

    def run_setup(self) -> None:
        self.setup_s.append(self.setup())
        self.host.probe("setup", self.design["host_speed"]["setup_units"])

    def setup(self) -> float:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def timed(self, budget: Budget, tracer: Any) -> Measures:
        raise NotImplementedError

    def budget(self) -> Budget:
        """The timed phase of a measured run: ``--seconds`` long."""
        raise NotImplementedError

    def trace_budget(self) -> Budget:
        """The fixed work of a traced run, so its counts repeat exactly."""
        return Budget(0.0, 0, units=self.spec["trace_units"])

    def finish(self, measures: Measures) -> None:
        self.close_session()

    def rerun_needs_setup(self) -> bool:
        """Whether a second timed pass must start from a fresh set-up."""
        return False


class IngestVpic(Workload):
    """Reps of a fresh session ingesting two drifting VPIC timesteps."""

    name = "ingest-vpic"

    def setup(self) -> float:
        start = perf_counter()
        self.streams = self.generate()
        warm_spec = self.vpic(self.spec["warmup_particles_per_rank"])
        warm = generate_timestep(warm_spec, self.trace["timestep_indices"][0])
        with self.open_session("warmup") as session:
            session.ingest_epoch(0, warm)
        elapsed = perf_counter() - start
        shutil.rmtree(self.workdir / "warmup", ignore_errors=True)
        return elapsed

    def prepare(self) -> None:
        self.oracles = [Oracle(streams) for streams in self.streams]
        rng = np.random.default_rng([self.seed, 1])
        # far more than a read-back completes; the loop wraps around if not
        self.readback = [
            QueryRequest(lo=r.lo, hi=r.hi, epoch=r.epoch, keys_only=True)
            for r in make_requests(
                rng, [o.keys for o in self.oracles], 20_000,
                self.design["queries"], True,
            )
        ]

    def budget(self) -> Budget:
        return Budget(self.seconds, min_units=1)

    def timed(self, budget: Budget, tracer: Any) -> Measures:
        measures = Measures()
        ok = True
        while ok and budget.more(measures.ingest_s, measures.units):
            self.close_session()
            self.session = session = self.open_session("ingest")
            for epoch, streams in enumerate(self.streams):
                self.host.probe("ingest")
                tracer.resume()
                ok = self.ingest(session, epoch, streams, measures)
                tracer.pause()
                if not ok:
                    break
            if not ok:
                break
            measures.units += 1
            self.check_committed(session, {
                epoch: sum(len(s) for s in streams)
                for epoch, streams in enumerate(self.streams)
            })
            self.store_bytes(session, measures, sum(
                len(s) for streams in self.streams for s in streams
            ))
        self.host.probe("ingest")
        measures.wall_s = measures.ingest_s
        return measures

    def finish(self, measures: Measures) -> None:
        """Read back the last rep's epochs: this workload's read metrics."""
        if self.session is not None:
            self.read_loop(
                self.session, self.readback, self.oracles,
                Budget(self.seconds * self.spec["readback_share"],
                       min_units=self.spec["readback_min_reads"]),
                NullTracer(), measures,
                verify_every=self.spec["verify_every"],
            )
        super().finish(measures)


class RangeQuery(Workload):
    """One closed-loop Session.query client over a four-epoch store."""

    name = "range-query"
    #: its ingest figure comes from the set-ups
    phases = {"ingest": "setup", "read": "read"}

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.setup_ingest = Measures()

    def setup(self) -> float:
        self.close_session()
        start = perf_counter()
        self.streams = self.generate()
        self.session = session = self.open_session("store")
        for epoch, streams in enumerate(self.streams):
            if not self.ingest(session, epoch, streams, self.setup_ingest):
                raise RuntimeError(f"set-up ingest failed: {self.problems}")
        session.store()
        # warm-up ranges come from each epoch's first rank, so set-up
        # needs no oracle
        warm_keys = [np.sort(streams[0].keys) for streams in self.streams]
        rng = np.random.default_rng([self.seed, 2])
        for request in make_requests(rng, warm_keys, self.spec["warmup_queries"],
                                     self.design["queries"], True):
            session.query(request)
        return perf_counter() - start

    def prepare(self) -> None:
        self.oracles = [Oracle(streams) for streams in self.streams]
        rng = np.random.default_rng([self.seed, 1])
        # far more than a run completes; the loop wraps around if not
        self.requests = make_requests(
            rng, [o.keys for o in self.oracles], 20_000,
            self.design["queries"], True,
        )

    def budget(self) -> Budget:
        return Budget(self.seconds, min_units=self.spec["min_reads"])

    def timed(self, budget: Budget, tracer: Any) -> Measures:
        assert self.session is not None
        measures = Measures()
        self.read_loop(self.session, self.requests, self.oracles, budget,
                       tracer, measures, self.spec["verify_every"])
        measures.wall_s = measures.read_window_s
        return measures

    def finish(self, measures: Measures) -> None:
        assert self.session is not None
        self.check_committed(self.session, {
            epoch: len(oracle) for epoch, oracle in enumerate(self.oracles)
        })
        # the epochs every set-up ingested are this workload's ingest
        measures.ingest_records = self.setup_ingest.ingest_records
        measures.ingest_s = self.setup_ingest.ingest_s
        self.store_bytes(self.session, measures,
                         sum(len(o) for o in self.oracles))
        super().finish(measures)


class ServeUnderIngest(Workload):
    """A writer ingests while a client reads through Session.serve."""

    name = "serve-under-ingest"
    #: probes run only before and after the window, when no other
    #: thread competes for the GIL
    phases = {"ingest": "serve", "read": "serve"}

    def setup(self) -> float:
        self.close_session()
        start = perf_counter()
        self.streams = self.generate()
        self.session = session = self.open_session("serve")
        session.ingest_epoch(0, self.streams[0])
        warm_keys = [np.sort(self.streams[0][0].keys)]
        rng = np.random.default_rng([self.seed, 2])
        for request in make_requests(rng, warm_keys, self.spec["warmup_queries"],
                                     self.design["queries"], False):
            session.query(request)
        self.service = session.serve(
            workers=self.spec["workers"],
            cache_capacity=self.spec["cache_capacity"],
        )
        return perf_counter() - start

    def prepare(self) -> None:
        self.oracles = [Oracle(streams) for streams in self.streams]
        pooled = np.sort(np.concatenate([o.keys for o in self.oracles]))
        rng = np.random.default_rng([self.seed, 1])
        self.pool = make_requests(rng, [pooled], self.spec["pool_size"],
                                  self.design["queries"], False)
        size = self.spec["pool_size"]
        weights = np.arange(1, size + 1, dtype=np.float64) ** -self.spec["zipf_s"]
        rank_to_request = rng.permutation(size)
        self.draws = rank_to_request[
            rng.choice(size, size=200_000, p=weights / weights.sum())
        ]

    def budget(self) -> Budget:
        return Budget(self.seconds, min_units=self.spec["min_epochs"])

    def rerun_needs_setup(self) -> bool:
        return True

    def oracle_for(self, epoch: int) -> Oracle:
        return self.oracles[epoch % len(self.oracles)]

    def timed(self, budget: Budget, tracer: Any) -> Measures:
        assert self.session is not None
        session = self.session
        service = self.service
        measures = Measures()
        answers: list[tuple[QueryRequest, QueryResponse | None]] = []
        stop = threading.Event()
        draws = itertools.count()

        # One client with ``outstanding`` requests in flight, run as that
        # many threads with one request each: a thread blocked on an
        # answer uses no CPU, and each latency is then exact, where one
        # thread consuming answers in order would charge a cache hit
        # with the miss queued ahead of it.
        def client() -> None:
            while not stop.is_set():
                request = self.pool[self.draws[next(draws) % len(self.draws)]]
                sent = perf_counter()
                try:
                    response: QueryResponse | None = (
                        service.submit(request).result(timeout=60.0)
                    )
                except Exception as exc:  # counted as a failed read
                    self.fail(f"serve: {type(exc).__name__}: {exc}")
                    response = None
                measures.latencies_s.append(perf_counter() - sent)
                answers.append((request, response))

        readers = [
            threading.Thread(target=client, name=f"wallbench-client-{i}")
            for i in range(self.spec["outstanding"])
        ]
        self.host.probe("serve")
        start = perf_counter()
        tracer.resume()
        for reader in readers:
            reader.start()
        try:
            # this thread is the writer
            epoch = 1
            while budget.more(perf_counter() - start, measures.units):
                streams = self.streams[epoch % len(self.streams)]
                if not self.ingest(session, epoch, streams, measures):
                    break
                measures.units += 1
                epoch += 1
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=120.0)
        tracer.pause()
        measures.wall_s = measures.read_window_s = perf_counter() - start
        self.host.probe("serve")
        if any(reader.is_alive() for reader in readers):
            raise RuntimeError("serve client did not finish")
        stats = service.stats
        measures.cache_hits = stats.cache_hits
        measures.cache_misses = stats.cache_misses
        measures.rejected = stats.rejected
        committed = measures.units + 1
        for request, response in answers:
            epoch_ok = response is not None and 0 <= response.epoch < committed
            self.check_answer(
                self.oracle_for(response.epoch) if epoch_ok else None,
                request, response,
            )
        self.committed = committed
        return measures

    def finish(self, measures: Measures) -> None:
        assert self.session is not None
        self.check_committed(self.session, {
            epoch: len(self.oracle_for(epoch)) for epoch in range(self.committed)
        })
        self.store_bytes(self.session, measures, sum(
            len(self.oracle_for(epoch)) for epoch in range(self.committed)
        ))
        super().finish(measures)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (IngestVpic, RangeQuery, ServeUnderIngest)
}
