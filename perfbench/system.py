"""Set-up, load generation, correctness checks and metrics of one benchmark run.

:class:`BenchRun` builds the system the workload names, measures it for the
requested seconds, checks every answer against the single-pool reference
outside the timed sections, and returns the end-to-end metrics (untraced
run) or the per-layer metrics (traced run) plus the run's metadata.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import platform
import queue
import resource
import statistics
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence, Set, Tuple
from zlib import crc32

import numpy as np

from repro.cluster import ClusterConfig, ClusterGateway
from repro.cluster import gateway as cluster_gateway_module
from repro.core import server as core_server
from repro.core.pool import PoolOfExperts
from repro.core.server import deserialize_task_model
from repro.models.flops import profile
from repro.models.fused_head import FusedHeadBank
from repro.nn.fused import FusedTrunk
from repro.nn.layers import Conv2d, Linear
from repro.net import NetworkedCluster, RemoteShardClient
from repro.obs.arena import ARENA
from repro.serving import ServingGateway, build_demo_pool
from repro.serving.cache import merge_cache_stats
from repro.tensor import Tensor, no_grad

from . import workloads as W
from .checks import Reference, WeightHistory, fingerprint, perturbed_copy
from .spans import SpanRecorder
from .stats import OpLog, failed_ratio

#: Set-up (pool preprocessing + gateway/fleet start + warm-up) runs this
#: many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The benchmark pool: 20 primitive tasks of 2 classes on 6x6 images,
#: trained briefly — serving cost does not depend on model quality.
POOL_RECIPE = dict(
    num_tasks=W.NUM_TASKS, classes_per_task=2, image_size=6, train_per_class=8, epochs=1, seed=7
)
#: predict-stream checks every answer of its first round and this share
#: of later rounds' answers (a full autograd reference costs about three
#: times the measured compute).
PREDICT_CHECK_SHARE = 1 / 16
#: Benchmark images: per-class base draws and the jitter that makes each
#: batch new content.
BASE_IMAGES = 32
IMAGE_JITTER = 0.1
ARENA_OPS = ("im2col", "conv_gemm", "affine", "conv1x1", "linear_gemm")
CLUSTER_COUNTERS = ("invalidations", "net_bytes_rx", "net_requests", "net_retries", "hedge_fired")


@dataclass
class Round:
    log: OpLog
    wall: float
    traced: bool
    completed: int


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    meta: Dict[str, object] = field(default_factory=dict)


class BenchRun:
    """One run of one workload.

    Timed deliveries decode their payload as a client would; right after
    the timing, the model's :class:`~perfbench.checks.Fingerprint` is taken
    and the model dropped, and the checks after each round compare
    fingerprints.  Holding a round's hundreds of decoded models instead
    made garbage-collector pauses, which grow with the live heap, part of
    the timings.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> None:
        if workload not in W.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {W.WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.recorder = SpanRecorder()
        self.tracing = False
        self.errors: List[str] = []
        self.failures: List[str] = []
        self.meta: Dict[str, object] = {}
        self._request_ids = itertools.count(1)
        self._images: Dict[W.Images, np.ndarray] = {}
        self._base_images: Tuple[object, Optional[np.ndarray]] = (None, None)
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def span(self, name: str, request: Optional[int] = None):
        return self.recorder.span(name, request) if self.tracing else nullcontext()

    def images(self, spec: W.Images) -> np.ndarray:
        """The image batch ``spec`` names (memoized so repeats share it).

        Each image is one of ``BASE_IMAGES`` per-class draws of the pool's
        image generator plus fresh seeded jitter: new content for every
        batch, at a fraction of the generator's per-image cost.
        """
        array = self._images.get(spec)
        if array is None:
            if self._base_images[0] is not self.data:
                generator = self.data.generator
                labels = np.repeat(np.arange(self.pool.hierarchy.num_classes), BASE_IMAGES)
                batch = generator.sample_batch(labels, np.random.default_rng(0))
                self._base_images = (self.data, batch.reshape((-1, BASE_IMAGES) + batch.shape[1:]))
            base = self._base_images[1]
            rng = np.random.default_rng(list(spec.seed))
            classes = np.asarray(self.pool.hierarchy.composite(spec.names).classes)
            labels = rng.choice(classes, size=spec.count)
            picked = base[labels, rng.integers(BASE_IMAGES, size=spec.count)]
            jitter = rng.normal(0.0, IMAGE_JITTER, size=picked.shape).astype(np.float32)
            array = self._images[spec] = picked + jitter
        return array

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            print(f"perfbench: WRONG: {message}", file=sys.stderr)
        self.errors.append(message)

    def failure(self, kind: str, error: BaseException) -> None:
        if len(self.failures) < 20:
            print(f"perfbench: {kind} failed: {error!r}", file=sys.stderr)
        self.failures.append(f"{kind}: {error!r}")

    def set_tracing(self, on: bool) -> None:
        if on == self.tracing:
            return
        if on:
            R = self.recorder
            payload_bytes = lambda payload: {"bytes": len(payload)}
            R.wrap(PoolOfExperts, "consolidate", "core.consolidate")
            R.wrap(core_server, "serialize_task_model", "core.serialize", payload_bytes)
            R.wrap(cluster_gateway_module, "serialize_task_model", "core.serialize", payload_bytes)
            R.wrap(ServingGateway, "serve", "serving.serve")
            R.wrap(FusedTrunk, "__call__", "nn.trunk")
            R.wrap(FusedHeadBank, "__call__", "models.heads")
            R.wrap(ClusterGateway, "serve", "cluster.serve")
            R.wrap(ClusterGateway, "predict", "cluster.predict")
            for method in ("serve", "predict", "fetch_heads", "install_heads"):
                R.wrap(RemoteShardClient, method, f"net.{method}")
            ARENA.reset()
            ARENA.enable()
        else:
            ARENA.disable()
            self.recorder.uninstall()
        self.tracing = on

    def keep_going(self, rounds: Sequence[Round]) -> bool:
        """Workloads run whole rounds until their measured time reaches the
        run's seconds (input generation and checks do not count); a traced
        run needs at least one untraced and one traced round.  Each round
        starts from a collected heap, so garbage from the last round's
        checks does not land in the next round's timings."""
        if self.trace and len(rounds) < 2:
            going = True
        else:
            going = sum(r.wall for r in rounds) < self.seconds
        if going:
            gc.collect()
        return going

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        times = []
        self.system = None
        for _ in range(SETUP_REPEATS):
            self.close_system()
            start = perf_counter()
            self.pool, self.data = build_demo_pool(**POOL_RECIPE)
            self.task_names = tuple(sorted(self.pool.expert_names()))
            self.system = self.start_system()
            times.append(perf_counter() - start)
        self.setup_s = statistics.median(times)
        self.meta["setup_s_each"] = times
        alt = {
            name: perturbed_copy(head, crc32(name.encode()))
            for name, head in self.pool.experts.items()
        }
        self.reference = Reference(self.pool, alt)
        self.weight_state = {name: 0 for name in self.task_names}

    def start_system(self):
        if self.workload == "deliver-cold":
            gateway = ServingGateway(self.pool)
            for names in (self.task_names[:2], self.task_names[-2:]):
                deserialize_task_model(gateway.serve(names).payload)
            return gateway
        warm = W.catalog(self.task_names).queries
        if self.workload == "predict-stream":
            gateway = ServingGateway(self.pool)
            for i, names in enumerate(warm):
                spec = W.Images((self.seed, 0, i), names, W.PREDICT_IMAGES)
                gateway.predict(self.images(spec), names)
            self._images.clear()
            return gateway
        cluster = NetworkedCluster(self.pool, ClusterConfig(num_shards=2, replicas_per_shard=1))
        try:
            for i, names in enumerate(warm):
                deserialize_task_model(cluster.gateway.serve(names).payload)
                spec = W.Images((self.seed, 0, i), names, W.NET_PREDICT_IMAGES)
                cluster.gateway.predict(self.images(spec), names)
        except BaseException:
            cluster.close()
            raise
        self._images.clear()
        return cluster

    def close_system(self) -> None:
        system, self.system = self.system, None
        if system is None:
            return
        system.close()
        if isinstance(system, NetworkedCluster):
            leaked = system.fleet.leaked_processes()
            if leaked:
                self.error(f"leaked shard worker processes {[p.pid for p in leaked]}")

    # ------------------------------------------------------------------
    # Entry
    # ------------------------------------------------------------------
    def run(self) -> Outcome:
        self.setup()
        try:
            if self.workload == "deliver-cold":
                outcome = self.deliver_cold()
            elif self.workload == "predict-stream":
                outcome = self.predict_stream()
            else:
                outcome = self.net_mixed()
            if not self.trace:
                outcome.metrics["peak_rss_mb"] = (self.peak_rss_mb(), "MB")
        finally:
            self.set_tracing(False)
            self.close_system()
        if self.errors:
            outcome.correct = False
        outcome.meta.update(self.meta)
        outcome.meta.update(self.environment())
        outcome.meta["errors"] = self.errors[:20]
        outcome.meta["failures"] = self.failures[:20]
        if self.trace:
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(self.out_dir, f"spans-{self.workload}-{self.seed}.jsonl")
            self.recorder.write_jsonl(path)
            outcome.meta["spans_file"] = path
        return outcome

    # ------------------------------------------------------------------
    # deliver-cold
    # ------------------------------------------------------------------
    def deliver_cold(self) -> Outcome:
        self.close_system()  # each round gets a fresh gateway
        rounds: List[Round] = []
        tiers = {"payload": [0, 0], "model": [0, 0]}
        bytes_seen: List[int] = []
        gateway = None
        probes = Probes(self, ("predict", "update"))
        while self.keep_going(rounds):
            index = len(rounds)
            if gateway is not None:
                gateway.close()
            gateway = ServingGateway(self.pool)
            ops = W.deliver_cold_round(self.task_names, self.seed, index)
            traced = self.trace and index % 2 == 1
            log, delivered = OpLog(), []
            self.set_tracing(traced)
            round_start = perf_counter()
            for op in ops:
                t0 = perf_counter()
                try:
                    with self.span("op.deliver", next(self._request_ids)):
                        response = gateway.serve(op.names)
                        with self.span("core.deserialize"):
                            model = deserialize_task_model(response.payload)
                except Exception as error:  # counted in failed_ratio
                    log.fail("deliver")
                    self.failure("deliver", error)
                    continue
                log.record("deliver", perf_counter() - t0)
                delivered.append((op.names, fingerprint(model), response.payload_bytes))
            wall = perf_counter() - round_start
            self.set_tracing(False)
            for tier, (hits, requests) in tiers.items():
                stats = gateway.cache_stats()[tier]
                tiers[tier] = [hits + stats.hits, requests + stats.requests]
            for names, model, size in delivered:
                bytes_seen.append(size)
                self.check_delivery(model, names)
            rounds.append(Round(log, wall, traced, len(delivered)))
            if not self.trace:
                probes.after_round(gateway, [op.names for op in ops], wall)
        hit_ratios = {
            tier: hits / requests if requests else 0.0 for tier, (hits, requests) in tiers.items()
        }
        for tier, ratio in hit_ratios.items():
            if ratio != 0.0:
                self.error(f"deliver-cold served from the {tier} cache (hit ratio {ratio})")
        self.meta["hit_shares"] = dict(hit_ratios, trunk=0.0, result=0.0)
        self.system = gateway
        if self.trace:
            return self.layer_outcome(rounds, hit_ratios=hit_ratios)
        metrics = self.round_metrics(rounds, {"deliver": W.DELIVER_COLD_ROUND})
        metrics["bytes_per_model"] = (float(np.mean(bytes_seen)), "B")
        probes.after_round(gateway, [op.names for op in ops], 0.0, last=True)
        metrics.update(probes.metrics())
        return self.outcome(rounds, metrics)

    # ------------------------------------------------------------------
    # predict-stream
    # ------------------------------------------------------------------
    def predict_stream(self) -> Outcome:
        gateway = self.system
        rounds: List[Round] = []
        tiers = ("trunk", "result", "payload", "model")
        totals = {tier: [0, 0] for tier in tiers}
        responses = []
        probes = Probes(self, ("deliver", "update"))
        while self.keep_going(rounds):
            index = len(rounds)
            traced = self.trace and index % 2 == 1
            client_ops = W.predict_stream_round(self.task_names, self.seed, index)
            self._images.clear()
            self.reference.forget()
            for ops in client_ops:
                for op in ops:
                    self.images(op.images)
            logs = [OpLog() for _ in client_ops]
            results: List[List[tuple]] = [[] for _ in client_ops]
            barrier = threading.Barrier(len(client_ops) + 1)

            def client(c: int) -> None:
                barrier.wait()
                for op in client_ops[c]:
                    images = self._images[op.images]
                    t0 = perf_counter()
                    try:
                        with self.span("serving.predict", next(self._request_ids)):
                            response = gateway.submit_predict(images, op.names).result()
                    except Exception as error:  # counted in failed_ratio
                        logs[c].fail("predict")
                        self.failure("predict", error)
                        continue
                    logs[c].record("predict", perf_counter() - t0)
                    results[c].append((op, response))

            threads = [threading.Thread(target=client, args=(c,)) for c in range(len(client_ops))]
            for thread in threads:
                thread.start()
            before = gateway.cache_stats()
            self.set_tracing(traced)
            round_start = perf_counter()
            barrier.wait()
            for thread in threads:
                thread.join()
            wall = perf_counter() - round_start
            self.set_tracing(False)
            after = gateway.cache_stats()
            for tier, counts in totals.items():
                counts[0] += after[tier].hits - before[tier].hits
                counts[1] += after[tier].requests - before[tier].requests
            log = OpLog()
            for part in logs:
                for kind, values in part.latencies.items():
                    log.latencies.setdefault(kind, []).extend(values)
                for kind, count in part.failures.items():
                    log.failures[kind] = log.failures.get(kind, 0) + count
            flat = [item for part in results for item in part]
            if traced:
                responses.extend(response for _op, response in flat)
            sample = np.random.default_rng([self.seed, 11, index]).random(len(flat))
            for (op, response), draw in zip(flat, sample):
                if index == 0 or draw < PREDICT_CHECK_SHARE:
                    self.check_prediction(op, response.class_ids)
            rounds.append(Round(log, wall, traced, len(flat)))
            # traced rounds trace their probe too: its deliveries are the
            # serve, consolidate and encode calls of this workload
            self.set_tracing(traced)
            probes.after_round(gateway, (), wall)
            self.set_tracing(False)
        hit_ratios = {tier: hits / max(1, requests) for tier, (hits, requests) in totals.items()}
        self.meta["hit_shares"] = {t: hit_ratios[t] for t in ("trunk", "result", "payload")}
        self.meta["repeat_share_offered"] = W.REPEAT_SHARE
        self._images.clear()
        self.reference.forget()
        if self.trace:
            probes.count()
            return self.layer_outcome(rounds, hit_ratios=hit_ratios, responses=responses)
        metrics = self.round_metrics(rounds, {"predict": W.PREDICT_STREAM_ROUND})
        probes.after_round(gateway, (), 0.0, last=True)
        metrics.update(probes.metrics())
        return self.outcome(rounds, metrics)

    def check_prediction(self, op: W.Op, class_ids, allowed=None) -> None:
        problem = self.reference.check_prediction(
            class_ids,
            op.images,
            lambda: self.images(op.images),
            op.names,
            allowed or self.current(op.names),
        )
        if problem:
            self.error(f"{self.workload} predict {op.names}: {problem}")

    def current(self, names) -> Dict[str, Set[int]]:
        """The weight set each task carries now (no update in flight)."""
        return {name: {self.weight_state[name]} for name in names}

    def check_delivery(self, model, names, allowed=None) -> None:
        problem = self.reference.check_model(model, names, allowed or self.current(names))
        if problem:
            self.error(f"{self.workload} deliver {names}: {problem}")

    # ------------------------------------------------------------------
    # net-mixed
    # ------------------------------------------------------------------
    def net_mixed(self) -> Outcome:
        cluster = self.system
        gateway = cluster.gateway
        schedule = W.net_mixed_rounds(self.task_names, self.seed)
        history = WeightHistory()
        rounds: List[Round] = []
        responses = []
        bytes_seen: List[float] = []
        lateness: List[float] = []
        updates = 0
        # the first round takes the caches from the warm-up's all-hit state
        # to the steady state of updates and rebuilds: checked, not measured
        warming = True
        while warming or self.keep_going(rounds):
            ops = next(schedule)
            traced = not warming and self.trace and len(rounds) % 2 == 1
            self._images.clear()
            self.reference.forget()
            for op in ops:
                if op.images is not None:
                    self.images(op.images)
            self.set_tracing(traced)
            log, done, late, wall = self.open_loop(gateway, ops, history)
            self.set_tracing(False)
            if warming:
                before = self.cluster_counters(gateway)
                self.attempted += log.attempted()
                self.failed += log.failed()
            else:
                rounds.append(Round(log, wall, traced, len(done)))
                updates += sum(op.kind == "update" for op, *_ in done)
                if traced == self.trace:
                    lateness.extend(late)
            # correctness, after the round: every answer against the
            # reference at the weight sets the update history allows
            for op, started, finished, result in done:
                if op.kind == "update":
                    continue
                allowed = history.allowed(op.names, started, finished)
                if op.kind == "deliver":
                    model, size = result
                    bytes_seen.append(size)
                    self.check_delivery(model, op.names, allowed)
                else:
                    if traced:
                        responses.append(result)
                    self.check_prediction(op, result.class_ids, allowed)
            warming = False
        after = self.cluster_counters(gateway)
        self.meta["unified_counters"] = gateway.unified_snapshot().get("counters", {})
        self.meta["offered_rate_per_s"] = W.NET_RATE
        self.meta["loadgen_threads"] = {
            "sender": 1, "receiver": 1, "executor": W.NET_EXECUTOR_THREADS, "updater": 1
        }
        self.meta["late_ms_mean"] = 1e3 * float(np.mean(lateness))
        self.meta["late_ms_max"] = 1e3 * float(np.max(lateness))
        deltas = {key: after[key] - before[key] for key in CLUSTER_COUNTERS}
        hit_ratios = {
            tier: _delta_ratio(before["tiers"][tier], stats)
            for tier, stats in after["tiers"].items()
        }
        self.meta["hit_shares"] = {t: hit_ratios[t] for t in ("payload", "trunk", "result")}
        fanout = {
            k: after["fanout"].get(k, 0) - before["fanout"].get(k, 0) for k in after["fanout"]
        }
        if self.trace:
            extra = {
                "cluster.fanout_mean": _mean_of_histogram(fanout),
                "cluster.payload_hit_ratio": hit_ratios["composite_payload"],
                "cluster.remote_head_hit_ratio": hit_ratios["remote_heads"],
                "cluster.invalidations_per_update": deltas["invalidations"] / max(1, updates),
                "net.bytes_rx_per_op": deltas["net_bytes_rx"] / max(1, deltas["net_requests"]),
                "net.retries": float(deltas["net_retries"]),
                "net.hedges": float(deltas["hedge_fired"]),
                "loadgen.late_ms": self.meta["late_ms_mean"],
            }
            shard_tiers = {
                "payload": hit_ratios["shard_payload"],
                "model": hit_ratios["shard_model"],
                "trunk": hit_ratios["trunk"],
                "result": hit_ratios["result"],
            }
            return self.layer_outcome(rounds, shard_tiers, responses, extra)
        counts = W.NET_ROUND_COUNTS
        tails = {"deliver": counts["deliver"], "predict": counts["predict"], "update": None}
        metrics = self.round_metrics(rounds, tails)
        metrics["bytes_per_model"] = (float(np.mean(bytes_seen)), "B")
        return self.outcome(rounds, metrics)

    def open_loop(self, gateway: ClusterGateway, ops: Sequence[W.Op], history: WeightHistory):
        """Send ``ops`` at their due times; one sender, one receiver thread.

        Reads and deliveries run on a fixed executor (the width of the
        cluster's own default pool), updates on a single admin thread so
        each task's updates apply in schedule order.  Latency is measured
        from each op's due time.
        """
        pool = self.pool
        heads = self.reference.heads
        span = self.span
        request_ids = self._request_ids

        def deliver(op):
            started = perf_counter()
            with span("op.deliver", next(request_ids)):
                response = gateway.serve(op.names)
                with span("core.deserialize"):
                    model = deserialize_task_model(response.payload)
            finished = perf_counter()
            return started, finished, (fingerprint(model), response.payload_bytes)

        def predict(op):
            images = self._images[op.images]
            started = perf_counter()
            with span("op.predict", next(request_ids)):
                response = gateway.predict(images, op.names)
            return started, perf_counter(), response

        def update(op):
            task = op.names[0]
            started = perf_counter()
            with span("op.update", next(request_ids)):
                pool.attach_expert(task, heads[task][op.weight_set])
            finished = perf_counter()
            history.record(task, started, finished, op.weight_set)
            return started, finished, None

        handlers = {"deliver": deliver, "predict": predict, "update": update}
        pending: "queue.Queue" = queue.Queue()
        log, done, late = OpLog(), [], []
        executor = ThreadPoolExecutor(W.NET_EXECUTOR_THREADS, thread_name_prefix="perfbench")
        updater = ThreadPoolExecutor(1, thread_name_prefix="perfbench-update")
        base = perf_counter() + 0.05

        def sender() -> None:
            for op in ops:
                due = base + op.due
                delay = due - perf_counter()
                if delay > 0:
                    sleep(delay)
                late.append(perf_counter() - due)
                target = updater if op.kind == "update" else executor
                pending.put((op, due, target.submit(handlers[op.kind], op)))
            pending.put(None)

        last_finish = [base]

        def receiver() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                op, due, future = item
                try:
                    started, finished, result = future.result()
                except Exception as error:  # counted in failed_ratio
                    log.fail(op.kind)
                    self.failure(op.kind, error)
                    continue
                log.record(op.kind, finished - due)
                last_finish[0] = max(last_finish[0], finished)
                done.append((op, started, finished, result))

        threads = [threading.Thread(target=sender), threading.Thread(target=receiver)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            executor.shutdown(wait=True)
            updater.shutdown(wait=True)
        return log, done, late, last_finish[0] - base

    def cluster_counters(self, gateway: ClusterGateway) -> Dict[str, object]:
        shard_stats = [shard.cache_stats() for shard in gateway.shards]
        tiers = gateway.cache_stats()
        tiers["shard_payload"] = merge_cache_stats([s["payload"] for s in shard_stats])
        tiers["shard_model"] = merge_cache_stats([s["model"] for s in shard_stats])
        counters = {key: gateway.metrics.counter(key) for key in CLUSTER_COUNTERS}
        counters["tiers"] = tiers
        counters["fanout"] = gateway.metrics.fanout_histogram()
        return counters

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def round_metrics(
        self, rounds: Sequence[Round], tails: Dict[str, Optional[int]]
    ) -> Dict[str, Tuple[float, str]]:
        """Medians over the untraced rounds of each round's statistics;
        ``failed_ratio`` is the mean over rounds, so a failure in any round
        raises it.

        ``tails`` maps each op kind to its fixed count per round, which
        sets its tail percentile (None: the kind reports a p50 only).
        """
        measured = [r for r in rounds if not r.traced]
        metrics: Dict[str, Tuple[float, str]] = {}
        median = statistics.median
        for kind, count in tails.items():
            summaries = [r.log.summary(kind, count) for r in measured]
            metrics[f"{kind}_p50_ms"] = (median([s["p50_ms"] for s in summaries]), "ms")
            if count is not None:
                metrics[f"{kind}_tail_ms"] = (median([s["tail_ms"] for s in summaries]), "ms")
                self.meta[f"{kind}_tail_percentile"] = summaries[0]["tail_percentile"]
        self.meta["rounds"] = len(measured)
        self.meta["round_stats"] = [
            dict({kind: r.log.summary(kind, count) for kind, count in tails.items()}, wall=r.wall)
            for r in measured
        ]
        self.meta["round_ops"] = {kind: count for kind, count in tails.items()}
        self.meta["op_counts"] = {k: sum(r.log.attempted(k) for r in measured) for k in tails}
        metrics["ops_per_s"] = (median([r.completed / r.wall for r in measured]), "1/s")
        ratios = [failed_ratio(r.log.failed(), r.log.attempted()) for r in measured]
        metrics["failed_ratio"] = (statistics.fmean(ratios), "1")
        metrics["setup_s"] = (self.setup_s, "s")
        return metrics

    def outcome(self, rounds: Sequence[Round], metrics) -> Outcome:
        """Counts include the probes, which added theirs as they ran."""
        measured = [r for r in rounds if not r.traced]
        self.attempted += sum(r.log.attempted() for r in measured)
        self.failed += sum(r.log.failed() for r in measured)
        return Outcome(not self.errors, self.attempted, self.failed, metrics)

    def layer_outcome(
        self, rounds: Sequence[Round], hit_ratios, responses=(), extra=None
    ) -> Outcome:
        """Per-layer metrics from the traced rounds of this run."""
        R = self.recorder
        layers = R.layer_ms()

        def own(name: str) -> float:
            return layers.get(name, (0.0, 0.0))[0]

        def total(name: str) -> float:
            return layers.get(name, (0.0, 0.0))[1]

        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        traced_ops = sum(r.completed for r in traced)

        def mean_latency(selected):
            values = [v for r in selected for vs in r.log.latencies.values() for v in vs]
            return float(np.mean(values))

        arena = ARENA.snapshot()
        per_op = {
            op: 1e3
            * sum(v["total"] for k, v in arena.items() if k.split("/")[-1] == op)
            / max(1, traced_ops)
            for op in ARENA_OPS
        }
        queue_ms = 1e3 * float(np.mean([r.queue_seconds for r in responses])) if responses else 0.0
        coalesced = float(np.mean([r.coalesced for r in responses])) if responses else 0.0
        flops, moved = self.model_cost()
        metrics = {
            "core.consolidate_ms": (own("core.consolidate"), "ms"),
            "core.serialize_ms": (own("core.serialize"), "ms"),
            "core.payload_bytes": (R.attr_mean("core.serialize", "bytes"), "B"),
            "core.deserialize_ms": (own("core.deserialize"), "ms"),
            "serving.serve_self_ms": (own("serving.serve"), "ms"),
            "serving.payload_hit_ratio": (hit_ratios.get("payload", 0.0), "1"),
            "serving.model_hit_ratio": (hit_ratios.get("model", 0.0), "1"),
            "serving.predict_self_ms": (own("serving.predict"), "ms"),
            "serving.queue_ms": (queue_ms, "ms"),
            "serving.coalesced_ratio": (coalesced, "1"),
            "serving.trunk_hit_ratio": (hit_ratios.get("trunk", 0.0), "1"),
            "serving.result_hit_ratio": (hit_ratios.get("result", 0.0), "1"),
            "nn.trunk_ms": (total("nn.trunk"), "ms"),
            "models.heads_ms": (total("models.heads"), "ms"),
            "nn.im2col_ms": (per_op["im2col"], "ms"),
            "nn.conv_gemm_ms": (per_op["conv_gemm"], "ms"),
            "nn.affine_ms": (per_op["affine"], "ms"),
            "nn.conv1x1_ms": (per_op["conv1x1"], "ms"),
            "nn.linear_gemm_ms": (per_op["linear_gemm"], "ms"),
            "nn.flops_per_image": (flops, "flop"),
            "nn.bytes_moved_per_image": (moved, "B"),
            "cluster.serve_self_ms": (own("cluster.serve"), "ms"),
            "cluster.predict_self_ms": (own("cluster.predict"), "ms"),
            "cluster.fanout_mean": (0.0, "1"),
            "cluster.payload_hit_ratio": (0.0, "1"),
            "cluster.remote_head_hit_ratio": (0.0, "1"),
            "cluster.invalidations_per_update": (0.0, "1"),
            "net.serve_ms": (total("net.serve"), "ms"),
            "net.predict_ms": (total("net.predict"), "ms"),
            "net.fetch_heads_ms": (total("net.fetch_heads"), "ms"),
            "net.install_heads_ms": (total("net.install_heads"), "ms"),
            "net.bytes_rx_per_op": (0.0, "B"),
            "net.retries": (0.0, "count"),
            "net.hedges": (0.0, "count"),
            "loadgen.late_ms": (0.0, "ms"),
            "trace.overhead_ratio": (mean_latency(traced) / mean_latency(untraced), "1"),
        }
        for name, value in (extra or {}).items():
            metrics[name] = (float(value), metrics[name][1])
        self.meta["arena_ms_per_op"] = per_op
        self.meta["traced_ops"] = traced_ops
        self.meta["model_cost"] = (
            "nn.flops_per_image and nn.bytes_moved_per_image are computed "
            "from tensor shapes, not measured"
        )
        self.attempted += sum(r.log.attempted() for r in rounds)
        self.failed += sum(r.log.failed() for r in rounds)
        return Outcome(not self.errors, self.attempted, self.failed, metrics)

    def model_cost(self) -> Tuple[float, float]:
        """FLOPs and bytes moved per image of the trunk plus the workload's
        mean number of heads, computed from layer shapes (not measured)."""
        heads = {"deliver-cold": float(W.COLD_COMPOSITE_SIZE)}.get(self.workload)
        if heads is None:
            sizes = [len(q) for q in W.catalog(self.task_names).queries]
            heads = float(np.mean(sizes))
        batch = W.NET_PREDICT_IMAGES if self.workload == "net-mixed" else W.PREDICT_IMAGES
        shape = tuple(self.data.test.images.shape[1:])
        head = self.pool.experts[self.task_names[0]]
        trunk_macs, features = profile(self.pool.library, shape)
        head_macs, _ = profile(head, features)
        flops = 2.0 * (trunk_macs + heads * head_macs)

        moved = {"trunk": 0.0, "head": 0.0}
        which = ["trunk"]
        originals = {cls: cls.forward for cls in (Conv2d, Linear)}

        def counting(original):
            def forward(layer, x):
                out = original(layer, x)
                weights = layer.weight.data.size
                if layer.bias is not None:
                    weights += layer.bias.data.size
                moved[which[0]] += 4.0 * (x.data.size + out.data.size + weights / batch)
                return out
            return forward

        try:
            for cls, original in originals.items():
                cls.forward = counting(original)
            with no_grad():
                image = Tensor(self.data.test.images[:1])
                out = self.pool.library(image)
                which[0] = "head"
                head(out)
        finally:
            for cls, original in originals.items():
                cls.forward = original
        return flops, moved["trunk"] + heads * moved["head"]

    def peak_rss_mb(self) -> float:
        """Peak resident memory of this process plus every shard worker."""
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if isinstance(self.system, NetworkedCluster):
            for handle in self.system.fleet.workers:
                total_kb += _vm_hwm_kb(handle.process.pid)
        return total_kb / 1024.0

    def environment(self) -> Dict[str, object]:
        clients = W.PREDICT_STREAM_CLIENTS if self.workload == "predict-stream" else 1
        blas = {}
        try:
            config = np.show_config(mode="dicts")
            blas = config.get("Build Dependencies", {}).get("blas", {})
        except (TypeError, ValueError):
            pass
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {
                key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "loadgen": self.meta.get("loadgen_threads")
            or {"closed_loop_clients": clients},
        }


class Probes:
    """Probe ops for the op kinds a closed-loop workload's main traffic lacks.

    A probe is spread over the run rather than run once at its end: after
    each round, the probe's share for that round's measured time runs on
    the live gateway, and what is left runs after the last round.  Each
    probe so samples the host across the whole run, as the main traffic
    does.  ``predict`` and ``deliver`` probes run ``PROBE_OPS`` ops.  The
    ``update`` probe runs one batch after each round — every task flips
    once, on a gateway whose caches hold the round's entries — and a
    sample is the batch's mean per update (the first updates of a batch
    invalidate most of the cache; later ones take microseconds).  The
    deliveries that follow a batch rebuild their payloads.
    """

    def __init__(self, run: BenchRun, kinds: Sequence[str]) -> None:
        self.run = run
        self.kinds = kinds
        self.logs = {kind: OpLog() for kind in kinds}
        self.done = {kind: 0 for kind in kinds}
        self.served: List[Tuple[str, ...]] = []
        self.sizes: List[int] = []
        self.deliveries = W.probe_ops("deliver", run.task_names, run.seed)

    def after_round(
        self, gateway: ServingGateway, composites, wall: float, last: bool = False
    ) -> None:
        run = self.run
        self.served.extend(composites)
        for kind in self.kinds:
            if kind == "update":
                if not last or not self.done[kind]:
                    self.update(W.update_batch(run.task_names, run.seed, self.done[kind]))
                    self.done[kind] += 1
                continue
            total = W.PROBE_OPS
            share = total - self.done[kind] if last else math.ceil(total * wall / run.seconds)
            count = min(share, total - self.done[kind])
            start, self.done[kind] = self.done[kind], self.done[kind] + count
            if kind == "deliver":
                self.time(gateway, self.deliveries[start : start + count])
            else:
                ops = W.probe_ops("predict", run.task_names, run.seed, composites, start, count)
                self.time(gateway, ops)
        if last:
            # re-deliver composites cached before updates: a stale cache
            # entry that survived an update shows up here
            for task in run.task_names:
                names = next((c for c in reversed(self.served) if task in c), (task,))
                model = deserialize_task_model(gateway.serve(names).payload)
                run.check_delivery(fingerprint(model), names)

    def time(self, gateway: ServingGateway, ops: Sequence[W.Op]) -> None:
        run = self.run
        for op in ops:
            log = self.logs[op.kind]
            images = run.images(op.images) if op.images else None
            t0 = perf_counter()
            try:
                if op.kind == "predict":
                    result = gateway.predict(images, op.names)
                else:
                    with run.span("op.deliver", next(run._request_ids)):
                        response = gateway.serve(op.names)
                        with run.span("core.deserialize"):
                            result = deserialize_task_model(response.payload)
            except Exception as error:  # counted in failed_ratio
                log.fail(op.kind)
                run.failure(op.kind, error)
                continue
            log.record(op.kind, perf_counter() - t0)
            if op.kind == "predict":
                run.check_prediction(op, result.class_ids)
            else:
                self.sizes.append(response.payload_bytes)
                self.served.append(op.names)
                run.check_delivery(fingerprint(result), op.names)

    def update(self, ops: Sequence[W.Op]) -> None:
        run = self.run
        log = self.logs["update"]
        t0 = perf_counter()
        done = []
        for op in ops:
            task = op.names[0]
            try:
                run.pool.attach_expert(task, run.reference.heads[task][op.weight_set])
            except Exception as error:  # counted in failed_ratio
                log.fail("update")
                run.failure("update", error)
                continue
            done.append(op)
        t1 = perf_counter()
        for op in done:
            log.record("update", (t1 - t0) / len(done))
            run.weight_state[op.names[0]] = op.weight_set

    def count(self) -> None:
        """Add the probe ops to the run's attempted and failed counts."""
        for log in self.logs.values():
            self.run.attempted += log.attempted()
            self.run.failed += log.failed()

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        run = self.run
        metrics: Dict[str, Tuple[float, str]] = {}
        for kind, log in self.logs.items():
            if kind == "update":
                metrics["update_p50_ms"] = (log.summary("update")["p50_ms"], "ms")
            else:
                summary = log.summary(kind, W.PROBE_OPS)
                metrics[f"{kind}_p50_ms"] = (summary["p50_ms"], "ms")
                metrics[f"{kind}_tail_ms"] = (summary["tail_ms"], "ms")
                run.meta[f"{kind}_tail_percentile"] = summary["tail_percentile"]
            run.meta.setdefault("probe_ops", {})[kind] = log.attempted()
        self.count()
        if self.sizes:
            metrics["bytes_per_model"] = (float(np.mean(self.sizes)), "B")
        return metrics


def _delta_ratio(before, after) -> float:
    hits = after.hits - before.hits
    requests = after.requests - before.requests
    return hits / requests if requests else 0.0


def _mean_of_histogram(histogram: Dict[int, int]) -> float:
    total = sum(histogram.values())
    return sum(k * v for k, v in histogram.items()) / total if total else 0.0


def _vm_hwm_kb(pid: int) -> int:
    """A live process's peak resident set (Linux ``VmHWM``), 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
