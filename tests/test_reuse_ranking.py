"""Tests for ranking-quality metrics."""

import numpy as np
import pytest

from repro.serving.ranking_quality import ndcg_at_k, pipeline_quality, recall_at_k


class TestRankingQuality:
    def test_recall_perfect(self):
        assert recall_at_k([3, 1, 2], [3, 1, 2, 0], k=3) == 1.0

    def test_recall_partial(self):
        assert recall_at_k([3, 9], [3, 1], k=2) == 0.5

    def test_recall_validates(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], k=0)
        with pytest.raises(ValueError):
            recall_at_k([1], [1], k=5)

    def test_ndcg_perfect_order(self):
        relevance = {0: 3.0, 1: 2.0, 2: 1.0}
        assert ndcg_at_k([0, 1, 2], relevance, k=3) == pytest.approx(1.0)

    def test_ndcg_worst_order_below_one(self):
        relevance = {0: 3.0, 1: 2.0, 2: 1.0}
        assert ndcg_at_k([2, 1, 0], relevance, k=3) < 1.0

    def test_ndcg_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            ndcg_at_k([0], {0: -1.0}, k=1)

    def test_pipeline_quality_combines(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        quality = pipeline_quality([1, 3], scores, k=2)
        assert quality["recall_at_k"] == 1.0
        assert quality["ndcg_at_k"] == pytest.approx(1.0)

    def test_random_selection_scores_low(self):
        rng = np.random.default_rng(2)
        scores = rng.random(500)
        random_pick = list(rng.choice(500, size=10, replace=False))
        quality = pipeline_quality(random_pick, scores, k=10)
        assert quality["recall_at_k"] < 0.4
