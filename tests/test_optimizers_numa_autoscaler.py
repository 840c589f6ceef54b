"""Tests for optimizers and the autoscaler."""

import numpy as np
import pytest

from repro.config import MLPConfig, ModelConfig, RMC2_SMALL, uniform_tables
from repro.core import RecommendationModel
from repro.data import SyntheticCtrDataset
from repro.hw import BROADWELL
from repro.serving.autoscaler import Autoscaler, DiurnalLoad, static_provisioning
from repro.train import Adagrad, MomentumSGD, SGD, TrainableDLRM, Trainer


def tiny_config():
    return ModelConfig(
        name="tiny",
        model_class="RMC1",
        dense_features=6,
        bottom_mlp=MLPConfig([12, 8]),
        embedding_tables=uniform_tables(2, 50, 8, 3),
        top_mlp=MLPConfig([8, 1], final_activation="sigmoid"),
    )


class TestOptimizers:
    @pytest.mark.parametrize("optimizer_factory", [
        lambda: SGD(0.3),
        lambda: MomentumSGD(0.05, momentum=0.9),
        lambda: Adagrad(0.3),
    ], ids=["sgd", "momentum", "adagrad"])
    def test_all_optimizers_reduce_loss(self, optimizer_factory):
        config = tiny_config()
        dataset = SyntheticCtrDataset(config, signal_scale=2.0, seed=8)
        trainer = Trainer(
            TrainableDLRM(RecommendationModel(config)),
            dataset,
            optimizer=optimizer_factory(),
        )
        report = trainer.fit(steps=200, batch_size=128, eval_samples=1000)
        assert report.final_loss < report.initial_loss - 0.03
        assert report.eval_auc > 0.6

    def test_adagrad_state_is_sparse(self):
        config = tiny_config()
        dataset = SyntheticCtrDataset(config, seed=8)
        adagrad = Adagrad(0.1)
        trainer = Trainer(
            TrainableDLRM(RecommendationModel(config)), dataset, optimizer=adagrad
        )
        trainer.fit(steps=3, batch_size=4, eval_samples=100)
        # Only rows touched by 3 tiny batches carry accumulator entries.
        assert 0 < adagrad.touched_rows(0) <= 3 * 4 * 3

    def test_adagrad_shrinks_effective_step(self):
        """Repeated identical gradients must shrink the applied update."""
        config = tiny_config()
        model = RecommendationModel(config)
        trainable = TrainableDLRM(model)
        dataset = SyntheticCtrDataset(config, seed=4)
        batch = dataset.batch(16)
        adagrad = Adagrad(0.5)
        from repro.train.losses import bce_with_logits_grad

        deltas = []
        for _ in range(3):
            logits, cache = trainable.forward_logits(batch.dense, batch.sparse)
            grads = trainable.backward(
                bce_with_logits_grad(logits, batch.labels), cache
            )
            before = model.bottom_ops[0].weight.copy()
            adagrad.apply(model, grads)
            deltas.append(np.abs(model.bottom_ops[0].weight - before).mean())
        assert deltas[2] < deltas[0]

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            SGD(0.0)
        with pytest.raises(ValueError):
            MomentumSGD(0.1, momentum=1.0)
        with pytest.raises(ValueError):
            Adagrad(0.1, eps=0.0)


class TestAutoscaler:
    @pytest.fixture(scope="class")
    def setup(self):
        scaler = Autoscaler(BROADWELL, RMC2_SMALL, batch_size=32)
        load = DiurnalLoad(peak_items_per_s=20 * scaler.replica_capacity)
        return scaler, load

    def test_diurnal_load_shape(self):
        load = DiurnalLoad(peak_items_per_s=100.0, trough_ratio=0.5)
        assert load.at(0.0) == pytest.approx(50.0)
        assert load.at(12.0) == pytest.approx(100.0)

    def test_fleet_follows_demand(self, setup):
        scaler, load = setup
        result = scaler.run(load)
        replicas = [s.replicas for s in result.steps]
        assert max(replicas) > 1.5 * min(replicas)

    def test_autoscaling_cheaper_than_static(self, setup):
        scaler, load = setup
        dynamic = scaler.run(load)
        static = static_provisioning(scaler, load)
        assert dynamic.machine_hours < 0.85 * static.machine_hours

    def test_static_never_violates(self, setup):
        scaler, load = setup
        static = static_provisioning(scaler, load)
        assert static.violation_fraction == 0.0

    def test_dynamic_violations_bounded(self, setup):
        scaler, load = setup
        result = scaler.run(load)
        assert result.violation_fraction < 0.1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Autoscaler(BROADWELL, RMC2_SMALL, target_utilization=0.9,
                       sla_utilization=0.8)
        with pytest.raises(ValueError):
            DiurnalLoad(peak_items_per_s=0)
