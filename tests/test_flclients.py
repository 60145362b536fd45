"""Client fleet: synthetic data, local training, behaviors, RNG streams."""
import numpy as np
import pytest

from fedchain.flclients import (
    ClientBehavior,
    STREAM_DROPOUT,
    SyntheticDataset,
    act,
    local_train,
    make_client_id,
    rng_stream,
    sample_true_weights,
)
from fedchain.numerics import GradientVector


def dataset_from_arrays(X, y) -> SyntheticDataset:
    return SyntheticDataset(features=np.asarray(X, dtype=float), targets=np.asarray(y, dtype=float))


class TestLocalTrain:
    def test_hand_computed_single_step(self):
        # one sample (x=[1], y=1), w=0, lr=0.5: gradient of 0.5*(y-wx)^2 is
        # -x(y-wx) = -1, so the step is +0.5
        data = dataset_from_arrays([[1.0]], [1.0])
        update = local_train(GradientVector.zeros(1), data, epochs=1, lr=0.5)
        assert update.to_floats() == [0.5]

    def test_stationary_at_true_weights(self):
        rng = np.random.default_rng(3)
        w_star = rng.normal(size=4)
        X = rng.normal(size=(30, 4))
        data = dataset_from_arrays(X, X @ w_star)
        update = local_train(GradientVector.from_floats(w_star), data, epochs=3, lr=0.1)
        assert np.linalg.norm(update.to_floats()) < 1e-6

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            w0 = rng.normal(size=d)
            data = dataset_from_arrays(X, y)
            lr = 0.05
            update = np.array(
                local_train(GradientVector.from_floats(w0), data, epochs=1, lr=lr).to_floats()
            )

            def loss(w):
                return 0.5 * np.mean((y - X @ w) ** 2)

            eps = 1e-6
            gradient = np.array([
                (loss(w0 + eps * e) - loss(w0 - eps * e)) / (2 * eps)
                for e in np.eye(d)
            ])
            expected = -lr * gradient
            denom = max(np.linalg.norm(expected), 1e-12)
            assert np.linalg.norm(update - expected) / denom < 1e-5

    def test_converges_to_normal_equations_solution(self):
        rng = np.random.default_rng(7)
        d = 3
        X = rng.normal(size=(50, d))
        w_star = rng.normal(size=d)
        y = X @ w_star + 0.01 * rng.normal(size=50)
        data = dataset_from_arrays(X, y)
        closed_form = np.linalg.solve(X.T @ X, X.T @ y)
        update = local_train(GradientVector.zeros(d), data, epochs=500, lr=0.2)
        assert np.linalg.norm(np.array(update.to_floats()) - closed_form) < 1e-4

    def test_dim_mismatch(self):
        """numpy's matmul refuses a model of another dimension than the data."""
        data = dataset_from_arrays([[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            local_train(GradientVector.zeros(3), data, epochs=1, lr=0.1)


class TestBehaviors:
    honest = GradientVector.from_decimals(["1", "2"])

    def test_honest_passthrough(self):
        assert act(ClientBehavior("honest"), self.honest, 9, 0, 1) is self.honest

    def test_negator(self):
        out = act(ClientBehavior("negator"), self.honest, 9, 0, 1)
        assert out.raw.tolist() == [-(10**9), -2 * 10**9]

    def test_freerider_zero_vector(self):
        out = act(ClientBehavior("freerider"), self.honest, 9, 0, 1)
        assert out.raw.tolist() == [0, 0]

    def test_scaler_scales(self):
        out = act(ClientBehavior("scaler", c=100), self.honest, 9, 0, 1)
        assert out.raw.tolist() == [100 * 10**9, 200 * 10**9]

    def test_dropout_is_seed_deterministic(self):
        behavior = ClientBehavior("dropout", q=0.5)
        picks_a = [act(behavior, self.honest, 9, 0, r) is None for r in range(40)]
        picks_b = [act(behavior, self.honest, 9, 0, r) is None for r in range(40)]
        assert picks_a == picks_b
        assert any(picks_a) and not all(picks_a)
        # the draw is the client's per-round dropout stream
        assert picks_a == [rng_stream(9, STREAM_DROPOUT, 0, r).random() >= 0.5 for r in range(40)]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ClientBehavior("gremlin")

    def test_dropout_q_range(self):
        with pytest.raises(ValueError):
            ClientBehavior("dropout", q=1.5)


class TestSyntheticData:
    def test_reproducible_from_seed(self):
        w = sample_true_weights(5, 3)
        a = SyntheticDataset.generate(5, 20, 3, 0.1, true_weights=w, client_index=2)
        b = SyntheticDataset.generate(5, 20, 3, 0.1, true_weights=w, client_index=2)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_clients_get_distinct_data(self):
        w = sample_true_weights(5, 3)
        a = SyntheticDataset.generate(5, 20, 3, 0.1, true_weights=w, client_index=0)
        b = SyntheticDataset.generate(5, 20, 3, 0.1, true_weights=w, client_index=1)
        assert not np.array_equal(a.features, b.features)

    def test_targets_follow_linear_model(self):
        w = sample_true_weights(5, 3)
        data = SyntheticDataset.generate(5, 20, 3, 0.0, true_weights=w, client_index=0)
        assert np.allclose(data.targets, data.features @ w)

    def test_shared_true_weights(self):
        # clients of one scenario draw their own features from the same weights
        w = sample_true_weights(5, 3)
        for index in range(2):
            data = SyntheticDataset.generate(5, 10, 3, 0.0, true_weights=w, client_index=index)
            assert np.allclose(data.targets, data.features @ w)


class TestIds:
    def test_ids_are_20_bytes_and_stable(self):
        assert len(make_client_id(0)) == 20
        assert make_client_id(3) == make_client_id(3)
        assert make_client_id(0) != make_client_id(1)

    def test_streams_are_independent(self):
        a = rng_stream(1, STREAM_DROPOUT, 0, 0).random()
        b = rng_stream(1, STREAM_DROPOUT, 0, 1).random()
        assert a != b
