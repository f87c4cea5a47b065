"""Correctness against the single-pool reference, outside the timed sections.

The reference is :meth:`PoolOfExperts.consolidate` on a view of the pool
taken before any update, so it keeps weight set 0 of every task; weight set
1 is the perturbed copy the updates install.  A delivered model must carry
the reference library and layout bit-for-bit, and each head must equal one
of its task's two weight sets — the one the update history allows.
Predictions must equal the reference argmax (the autograd per-head loop of
the consolidated model) on every image whose reference top-two margin is
wider than :func:`margin_bound`.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.tensor import Tensor, no_grad

#: ``FusedTrunk.verify``'s allclose bound (rtol 1e-4, atol 1e-5), widened
#: 20x: each of the two top logits may drift by the bound, through heads.
MARGIN_RTOL = 2e-3
MARGIN_ATOL = 2e-4


def margin_bound(logits: np.ndarray) -> np.ndarray:
    """Per-row margin below which the fused path may legitimately flip."""
    return MARGIN_ATOL + MARGIN_RTOL * np.abs(logits).max(axis=1)


def state_digest(module) -> str:
    """Digest of a module's state as the float32 transport carries it."""
    h = hashlib.blake2b(digest_size=16)
    for key, value in module.state_dict().items():
        array = np.ascontiguousarray(np.asarray(value, dtype=np.float32))
        h.update(key.encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Fingerprint:
    """What the checks need of a decoded model, so the model need not be kept."""

    head_names: Tuple[str, ...]
    classes: Tuple[int, ...]
    library: str
    heads: Tuple[str, ...]


def fingerprint(model) -> Fingerprint:
    network = model.network
    return Fingerprint(
        tuple(network.head_names),
        tuple(int(c) for c in model.classes),
        state_digest(network.trunk),
        tuple(state_digest(head) for head in network.heads),
    )


def perturbed_copy(head, seed: int):
    """Weight set 1 of a task: the head with every parameter nudged."""
    rng = np.random.default_rng(seed)
    alt = copy.deepcopy(head)
    params = dict(alt.named_parameters())
    state = {}
    for key, value in alt.state_dict().items():
        if key in params:
            noise = rng.standard_normal(value.shape).astype(np.float32)
            value = value + np.float32(0.05) * np.abs(value).mean() * noise
        state[key] = value
    alt.load_state_dict(state)
    return alt


class Reference:
    def __init__(self, pool, alt_heads: Dict[str, object]) -> None:
        self.view = pool.subset(pool.expert_names())
        self.heads = {name: (pool.experts[name], alt_heads[name]) for name in pool.experts}
        self.head_digests = {
            name: tuple(state_digest(h) for h in pair) for name, pair in self.heads.items()
        }
        self.library_digest = state_digest(pool.library)
        self._features: Dict[object, np.ndarray] = {}
        self._head_logits: Dict[Tuple[object, str, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    def check_model(
        self, model: Fingerprint, names: Sequence[str], allowed: Dict[str, Set[int]]
    ) -> Optional[str]:
        """None when the decoded ``model`` matches the reference, else what differs."""
        network, composite = self.view.consolidate(sorted(set(names)))
        if model.head_names != tuple(network.head_names):
            return f"head layout {model.head_names} != {network.head_names}"
        if model.classes != tuple(composite.classes):
            return f"class layout differs for {network.head_names}"
        if model.library != self.library_digest:
            return "library differs from the reference library"
        for name, digest in zip(model.head_names, model.heads):
            sets = {i for i, d in enumerate(self.head_digests[name]) if d == digest}
            if not sets:
                return f"head {name!r} matches neither weight set"
            if not sets & allowed[name]:
                return (
                    f"head {name!r} carries weight set {sorted(sets)}, "
                    f"allowed {sorted(allowed[name])} (stale)"
                )
        return None

    def check_prediction(
        self,
        class_ids: np.ndarray,
        images_key,
        images: Callable[[], np.ndarray],
        names: Sequence[str],
        allowed: Dict[str, Set[int]],
    ) -> Optional[str]:
        """None when some allowed weight combination explains ``class_ids``."""
        canonical = sorted(set(names))
        network, composite = self.view.consolidate(canonical)
        classes = np.asarray(composite.classes)
        features = self._features.get(images_key)
        if features is None:
            with no_grad():
                features = self._features[images_key] = network.trunk(Tensor(images())).numpy()
        choices = [sorted(allowed[name]) for name in canonical]
        for combo in itertools.product(*choices):
            blocks = [
                self._logits(images_key, features, name, which)
                for name, which in zip(canonical, combo)
            ]
            logits = np.concatenate(blocks, axis=1)
            top2 = np.sort(logits, axis=1)[:, -2:]
            checked = (top2[:, 1] - top2[:, 0]) > margin_bound(logits)
            expected = classes[logits.argmax(axis=1)]
            if np.array_equal(np.asarray(class_ids)[checked], expected[checked]):
                return None
        return f"class ids differ from the reference for {canonical}"

    def _logits(self, key, features: np.ndarray, name: str, which: int) -> np.ndarray:
        cached = self._head_logits.get((key, name, which))
        if cached is None:
            head = self.heads[name][which]
            with no_grad():
                cached = self._head_logits[(key, name, which)] = head(Tensor(features)).numpy()
        return cached

    def forget(self) -> None:
        """Drop memoized reference features (bounded memory across rounds)."""
        self._features.clear()
        self._head_logits.clear()


class WeightHistory:
    """Which weight set each task may carry for an op, given the updates.

    An op that started after an update to task T returned must carry that
    update's set; an update to T that overlaps the op (issued before the op
    finished, returned after it started) makes both sets acceptable.
    """

    def __init__(self) -> None:
        #: task -> [(issued, returned, weight set)]
        self.updates: Dict[str, List[Tuple[float, float, int]]] = {}

    def record(self, task: str, issued: float, returned: float, weight_set: int) -> None:
        self.updates.setdefault(task, []).append((issued, returned, weight_set))

    def allowed(self, names: Sequence[str], started: float, finished: float) -> Dict[str, Set[int]]:
        result: Dict[str, Set[int]] = {}
        for name in names:
            current, sets = 0, set()
            history = sorted(self.updates.get(name, ()), key=lambda u: u[1])
            for issued, returned, weight_set in history:
                if returned < started:
                    current = weight_set
                elif issued < finished:
                    sets.add(weight_set)
            sets.add(current)
            result[name] = sets
        return result
