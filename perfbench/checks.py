"""Correctness references: served answers against offline exact scoring."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from common import TOP_K, BenchError

MAX_LEN = 50  # the service's default history truncation


class OfflineReference:
    """Offline exact top-k on one artifact: the artifact's encoder, an
    :class:`~repro.serve.ExactIndex` over its catalog and a private history
    store that replays the appends the server acknowledged."""

    def __init__(self, artifact_path: Path, dataset):
        from repro.serve import ExactIndex, HistoryStore, build_encoder, load_artifact
        artifact = load_artifact(artifact_path)
        self.encoder = build_encoder(artifact)
        self.index = ExactIndex(artifact.item_vectors(),
                                score_mode=self.encoder.score_mode,
                                score_pow=self.encoder.score_pow)
        self.history = HistoryStore.from_dataset(dataset)
        self.checked = 0

    def append(self, user: int, item: int, behavior: str) -> None:
        self.history.append(user, item, behavior)

    def top_k(self, user: int, k: int = TOP_K):
        from repro.data.batching import collate
        batch = collate([self.history.example(user, MAX_LEN)],
                        self.history.schema)
        interests = self.encoder.interests(batch)[0]
        return self.index.search(interests, k, exclude=self.history.seen(user))

    def check(self, user: int, items, scores, where: str) -> None:
        """Raise :class:`BenchError` unless ``items``/``scores`` equal the
        offline top-k for ``user`` (items exactly, scores to 1e-6)."""
        expected = self.top_k(user, len(items) or TOP_K)
        if [int(i) for i in items] != [int(i) for i in expected.items]:
            raise BenchError(
                f"{where}: user {user} served {list(items)[:5]}... but the "
                f"offline exact top-k is {list(expected.items)[:5]}...")
        if not np.allclose(np.asarray(scores, dtype=np.float64),
                           np.asarray(expected.scores, dtype=np.float64),
                           rtol=1e-6, atol=1e-6):
            raise BenchError(f"{where}: user {user} scores differ from the "
                             f"offline exact scores")
        self.checked += 1
