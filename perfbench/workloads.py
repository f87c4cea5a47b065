"""Seeded op sequences for the three workloads.

Everything here is a pure function of the workload seed and the pool's
task names: the same seed gives the same op sequence and the same image
draws (each image batch carries the seed tuple it is drawn from).  The
system under test only ever sees the generated inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.loadgen import ZipfianWorkload

WORKLOADS = ("deliver-cold", "predict-stream", "net-mixed")

#: Primitive tasks in the benchmark pool; C(20, 3) = 1140 cold composites.
NUM_TASKS = 20
COLD_COMPOSITE_SIZE = 3

#: Ops per round; each round's tail percentile follows from its size.
DELIVER_COLD_ROUND = 200
PREDICT_STREAM_CLIENTS = 2
PREDICT_STREAM_ROUND = 400
#: Ops in each predict or deliver probe (metrics a workload's main traffic
#: lacks; see ``perfbench.system.Probes``).
PROBE_OPS = 200

PREDICT_IMAGES = 64
NET_PREDICT_IMAGES = 32
#: Share of predict-stream requests that resend a recent batch's images,
#: and how many recent batches per client are candidates.
REPEAT_SHARE = 0.25
RECENT_BATCHES = 8

#: Zipf catalog of composites for predict-stream and net-mixed.  The
#: catalog (which composites exist, and their popularity ranks) is fixed;
#: the workload seed draws requests from it.  A per-seed catalog would
#: move the hottest composites between one and both shards and swamp the
#: run-to-run comparison.  With catalog seed 5 and the 2-shard router,
#: 23% of the request mass spans both shards: a p50 then sits well inside
#: the single-shard mode instead of on the boundary between two modes.
CATALOG_SEED = 5
CATALOG_SIZE = 64
CATALOG_MAX_TASKS = 4
ZIPF_SKEW = 1.1

#: net-mixed: offered rate, the op mix and the round length.  32 ops/s is
#: about 28% of the ~115 ops/s closed-loop capacity of this mix on a 2-core
#: host.  The host runs slow for seconds at a time, and at 48 ops/s (rounds
#: of 100) such a spell queued deliveries behind each other: five runs of
#: 30 s read 30% apart on the delivery tail (IQR over median); at 32 ops/s
#: and rounds of 200, two sets of ten runs read 9% and 8%.  Rounds of 200
#: ops (about 6 s) keep the per-round tails at p92 and p86, inside the mode
#: of deliveries that rebuild after an update (rounds of 100 put the
#: delivery tail at p83, on the edge of that mode, and it read 14% apart).
#: Two rounds update every task once.
NET_RATE = 32.0
NET_MIX = (("deliver", 0.60), ("predict", 0.35), ("update", 0.05))
NET_ROUND_OPS = 200
NET_ROUND_COUNTS = {kind: int(round(share * NET_ROUND_OPS)) for kind, share in NET_MIX}
NET_EXECUTOR_THREADS = 4


@dataclass(frozen=True)
class Images:
    """One image batch: ``count`` images of ``names``' classes, drawn from ``seed``."""

    seed: Tuple[int, ...]
    names: Tuple[str, ...]
    count: int


@dataclass(frozen=True)
class Op:
    kind: str  # "deliver" | "predict" | "update"
    names: Tuple[str, ...] = ()
    images: Optional[Images] = None
    #: update: index (0 or 1) of the weight set installed
    weight_set: int = 0
    #: net-mixed: seconds after the schedule start at which the op is due
    due: float = 0.0
    client: int = 0
    repeat: bool = False


def cold_composites(task_names: Sequence[str], seed: int) -> List[Tuple[str, ...]]:
    """Every 3-task composite once, in seeded order."""
    combos = list(itertools.combinations(sorted(task_names), COLD_COMPOSITE_SIZE))
    order = np.random.default_rng([seed, 1]).permutation(len(combos))
    return [combos[i] for i in order]


def deliver_cold_round(
    task_names: Sequence[str], seed: int, round_index: int
) -> List[Op]:
    """Round ``round_index``: the next ``DELIVER_COLD_ROUND`` composites of
    the seeded order, wrapping only after the whole universe was used.

    Each round runs on a fresh gateway, so no request of a round can be
    served from a cache even after the order wraps.
    """
    universe = cold_composites(task_names, seed)
    start = round_index * DELIVER_COLD_ROUND
    return [
        Op("deliver", universe[(start + i) % len(universe)])
        for i in range(DELIVER_COLD_ROUND)
    ]


def catalog(task_names: Sequence[str]) -> ZipfianWorkload:
    return ZipfianWorkload(
        task_names,
        max_query_size=CATALOG_MAX_TASKS,
        skew=ZIPF_SKEW,
        universe_size=CATALOG_SIZE,
        seed=CATALOG_SEED,
    )


def _zipf_names(workload: ZipfianWorkload, n: int, seed: Sequence[int]) -> List[Tuple[str, ...]]:
    """``n`` composites in Zipf proportion, in seeded order.

    Stratified rather than drawn independently: every seed gets the same
    count of each composite (largest-remainder rounding of ``n * p``), so
    runs differ in order, not in mix, and their latencies compare.
    """
    queries, probs = zip(*workload.popularity())
    exact = n * np.asarray(probs)
    counts = np.floor(exact).astype(int)
    for i in np.argsort(counts - exact)[: n - counts.sum()]:
        counts[i] += 1
    names = [q for q, c in zip(queries, counts) for _ in range(c)]
    order = np.random.default_rng(list(seed)).permutation(n)
    return [names[i] for i in order]


def predict_stream_round(
    task_names: Sequence[str], seed: int, round_index: int
) -> List[List[Op]]:
    """One op list per client for round ``round_index``.

    About ``REPEAT_SHARE`` of a client's requests resend the images of one
    of its ``RECENT_BATCHES`` latest batches (with a fresh composite draw,
    so a repeat hits the result cache when the composite also repeats and
    the trunk-feature cache otherwise); the rest are new images.
    """
    workload = catalog(task_names)
    per_client = PREDICT_STREAM_ROUND // PREDICT_STREAM_CLIENTS
    clients: List[List[Op]] = []
    for client in range(PREDICT_STREAM_CLIENTS):
        names = _zipf_names(workload, per_client, (seed, 2, round_index, client))
        rng = np.random.default_rng([seed, 3, round_index, client])
        ops: List[Op] = []
        for i, composite in enumerate(names):
            recent = [op.images for op in ops[-RECENT_BATCHES:]]
            if recent and rng.random() < REPEAT_SHARE:
                images = recent[int(rng.integers(len(recent)))]
                ops.append(Op("predict", composite, images, client=client, repeat=True))
            else:
                images = Images((seed, 4, round_index, client, i), composite, PREDICT_IMAGES)
                ops.append(Op("predict", composite, images, client=client))
        clients.append(ops)
    return clients


def net_mixed_rounds(task_names: Sequence[str], seed: int) -> Iterator[List[Op]]:
    """Successive open-loop rounds of ``NET_ROUND_OPS`` ops at ``NET_RATE``.

    Each round's kind counts and per-kind composite counts are exact
    shares of its ``NET_ROUND_OPS`` ops (shuffled by seed), so every
    round's tail percentiles are fixed.  Due times are seconds after the
    round's start.  Each update flips one task between its two weight
    sets; updates visit the tasks in one fixed cyclic order, evenly.
    Like the catalog, that order does not follow the seed: which tasks a
    round updates sets how many of its deliveries rebuild, and a per-seed
    order moved the delivery tail and the update time 15% from seed to
    seed.
    """
    counts = NET_ROUND_COUNTS
    workload = catalog(task_names)
    names_sorted = sorted(task_names)
    current: Dict[str, int] = {name: 0 for name in names_sorted}
    order = np.random.default_rng([CATALOG_SEED, 5]).permutation(names_sorted).tolist()
    targets = itertools.cycle(order)
    for index in itertools.count():
        kinds = [kind for kind, _ in NET_MIX for _ in range(counts[kind])]
        np.random.default_rng([seed, 6, index]).shuffle(kinds)
        composites = {
            kind: iter(_zipf_names(workload, counts[kind], (seed, 7, index, k)))
            for k, kind in enumerate(("deliver", "predict"))
        }
        ops: List[Op] = []
        for i, kind in enumerate(kinds):
            due = i / NET_RATE
            if kind == "update":
                task = next(targets)
                current[task] ^= 1
                ops.append(Op("update", (task,), weight_set=current[task], due=due))
            elif kind == "predict":
                names = next(composites[kind])
                images = Images((seed, 8, index, i), names, NET_PREDICT_IMAGES)
                ops.append(Op("predict", names, images, due=due))
            else:
                ops.append(Op("deliver", next(composites[kind]), due=due))
        yield ops


def probe_ops(
    kind: str,
    task_names: Sequence[str],
    seed: int,
    composites: Sequence[Tuple[str, ...]] = (),
    start: int = 0,
    count: int = PROBE_OPS,
) -> List[Op]:
    """Probe ops of one kind, run between a workload's measured rounds.

    ``predict`` probes ``start .. start + count`` cycle over the given
    ``composites`` (ones the workload just served) with new images;
    ``deliver`` probes draw ``PROBE_OPS`` composites from the Zipf catalog.
    """
    if kind == "predict":
        return [
            Op("predict", names, Images((seed, 10, i), names, PREDICT_IMAGES))
            for i in range(start, start + count)
            for names in [composites[i % len(composites)]]
        ]
    if kind == "deliver":
        draws = _zipf_names(catalog(task_names), PROBE_OPS, (seed, 11))
        return [Op("deliver", names) for names in draws]
    raise ValueError(f"unknown probe kind {kind!r}")


def update_batch(task_names: Sequence[str], seed: int, index: int) -> List[Op]:
    """Batch ``index`` of the in-process update probe: every task flips to
    weight set ``(index + 1) % 2``, in seeded order."""
    order = np.random.default_rng([seed, 9]).permutation(sorted(task_names)).tolist()
    return [Op("update", (task,), weight_set=(index + 1) % 2) for task in order]
