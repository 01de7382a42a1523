import numpy as np
import pytest

from craft import nn


class TestDataset:
    def test_deterministic(self):
        a = nn.make_dataset(seed=5)
        b = nn.make_dataset(seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = nn.make_dataset(seed=5)
        b = nn.make_dataset(seed=6)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_balanced_classes(self):
        ds = nn.make_dataset(seed=3, n_classes=4, n_features=16, n_samples=4000)
        counts = np.bincount(ds.labels)
        assert counts.tolist() == [1000] * 4

    def test_split_sizes(self):
        ds = nn.make_dataset(seed=3, n_samples=4000)
        assert ds.train_inputs.shape[0] == 3000
        assert ds.test_inputs.shape[0] == 1000

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError):
            nn.make_dataset(n_classes=1)
        with pytest.raises(ValueError):
            nn.make_dataset(n_classes=3, n_samples=100)  # not divisible
        with pytest.raises(ValueError):
            nn.make_dataset(n_features=0)
        # 0.75 of 2 samples rounds to 2 train samples, leaving no test sample
        with pytest.raises(ValueError, match="empty split"):
            nn.make_dataset(n_classes=2, n_samples=2)

    def test_values_capped_before_drawing(self, monkeypatch):
        with pytest.raises(ValueError, match=f"exceed {nn.MAX_DATASET_VALUES} values"):
            nn.make_dataset(n_samples=4 * 10 ** 15)
        with pytest.raises(ValueError, match=f"exceed {nn.MAX_DATASET_VALUES} values"):
            nn.make_dataset(n_features=10 ** 15)
        monkeypatch.setattr(nn, "MAX_DATASET_VALUES", 64)
        assert nn.make_dataset(n_classes=2, n_features=16, n_samples=4).inputs.size == 64
        with pytest.raises(ValueError, match="6 samples x 16 features exceed 64 values"):
            nn.make_dataset(n_classes=2, n_features=16, n_samples=6)


class TestTrain:
    def test_bit_identical_for_fixed_seed(self, default_dataset, default_train_result):
        again = nn.train(default_dataset)
        for a, b in zip(default_train_result.model.weights, again.model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(default_train_result.model.biases, again.model.biases):
            assert np.array_equal(a, b)

    def test_zero_lr_keeps_initialization(self, default_dataset):
        init = nn.train(default_dataset, epochs=0, lr=0.0, seed=11)
        frozen = nn.train(default_dataset, epochs=5, lr=0.0, seed=11)
        for a, b in zip(init.model.weights, frozen.model.weights):
            assert np.array_equal(a, b)

    def test_loss_non_increasing_with_plateau(self, default_train_result):
        losses = np.array(default_train_result.epoch_losses)
        # regression bound frozen from the first validated run: strictly
        # decreasing early, float-level plateau wobble below 1e-6 later
        assert np.max(np.diff(losses)) <= 1e-6
        assert losses[-1] < 0.01 * losses[0]

    def test_reaches_95_percent_test_accuracy(self, default_train_result, default_dataset):
        acc = nn.accuracy(default_train_result.model, default_dataset.test_inputs,
                          default_dataset.test_labels)
        assert acc >= 0.95

    def test_divergence_raises(self):
        ds = nn.make_dataset(seed=1, n_samples=400)
        with pytest.raises(nn.TrainingDivergedError):
            nn.train(ds, epochs=3, lr=1e9, seed=2)

    def test_parameters_past_float32_raise(self, default_dataset):
        # Each batch loss is finite, since it is taken before the update;
        # the last update leaves parameters that float32 cannot hold.
        tiny = nn.make_dataset(1234, n_classes=2, n_samples=8)
        with pytest.raises(nn.TrainingDivergedError, match="non-finite float32 parameters"):
            nn.train(tiny, epochs=1, lr=1e200, seed=1235)
        with pytest.raises(nn.TrainingDivergedError, match="non-finite float32 parameters"):
            nn.train(default_dataset, epochs=1, lr=2.551140785217285, seed=1235)

    def test_parameters_capped_before_drawing(self, monkeypatch):
        ds = nn.make_dataset(seed=1, n_samples=40)
        with pytest.raises(ValueError, match=f"more than {nn.MAX_PARAMETERS}"):
            nn.train(ds, hidden_dims=(10 ** 15,), epochs=0)
        # 16 -> h -> 4 holds 17h + 4(h + 1) parameters: 67 for h = 3
        monkeypatch.setattr(nn, "MAX_PARAMETERS", 67)
        assert nn.train(ds, hidden_dims=(3,), epochs=0).model.layer_dims == (16, 3, 4)
        with pytest.raises(ValueError, match="make 88 parameters, more than 67"):
            nn.train(ds, hidden_dims=(4,), epochs=0)


class TestGradients:
    def test_matches_central_finite_differences(self):
        # tiny 2-3-2 network, 100 random evaluation points
        gen = np.random.default_rng(2718)
        for _ in range(100):
            weights = [gen.normal(size=(2, 3)), gen.normal(size=(3, 2))]
            biases = [gen.normal(size=3), gen.normal(size=2)]
            x = gen.normal(size=(4, 2))
            y = gen.integers(0, 2, size=4)
            _, gw, gb = nn.gradients(weights, biases, x, y)
            analytic = np.concatenate([g.ravel() for g in gw + gb])
            numeric = []
            h = 1e-6
            for arr in weights + biases:
                flat = arr.reshape(-1)
                for i in range(flat.size):
                    keep = flat[i]
                    flat[i] = keep + h
                    up = nn.gradients(weights, biases, x, y)[0]
                    flat[i] = keep - h
                    down = nn.gradients(weights, biases, x, y)[0]
                    flat[i] = keep
                    numeric.append((up - down) / (2 * h))
            numeric = np.array(numeric)
            denom = max(float(np.linalg.norm(numeric)), 1e-12)
            rel = float(np.linalg.norm(analytic - numeric)) / denom
            assert rel < 1e-4


class TestQuantize:
    def test_endpoint_example(self):
        w = np.array([[0.0, 1.0]], dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(2, dtype=np.float32),))
        q = nn.quantize(model)
        layer = q.layers[0]
        assert layer.scale == pytest.approx(1 / 255)
        assert layer.zero_point == 0
        assert layer.codes.tolist() == [[0, 255]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_non_finite_weights_rejected(self, bad):
        w = np.array([[0.0, bad]], dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(2, dtype=np.float32),))
        with pytest.raises(ValueError, match="cannot quantize non-finite weights"):
            nn.quantize(model)

    def test_per_weight_error_bound(self, fp32_model, u8_model):
        for w, layer in zip(fp32_model.weights, u8_model.layers):
            dequant = layer.scale * (layer.codes.astype(np.float64) - layer.zero_point)
            err = np.abs(dequant - w.astype(np.float64))
            assert err.max() <= layer.scale / 2 + 1e-6

    def test_accuracy_within_two_points(self, fp32_model, u8_model, default_dataset):
        acc_fp = nn.accuracy(fp32_model, default_dataset.test_inputs, default_dataset.test_labels)
        acc_q = nn.accuracy(u8_model, default_dataset.test_inputs, default_dataset.test_labels)
        assert abs(acc_fp - acc_q) <= 0.02

    def test_all_zero_layer_scale_floor(self):
        w = np.zeros((2, 2), dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(2, dtype=np.float32),))
        layer = nn.quantize(model).layers[0]
        assert layer.scale == nn.SCALE_FLOOR
        assert layer.zero_point == 0
        assert not nn.dequantize(nn.QuantizedModel((layer,))).weights[0].any()

    @pytest.mark.parametrize("w", [[[0.2, 0.9], [0.4, 0.7]], [[-0.2, -0.9], [-0.4, -0.7]],
                                   [[0.5, 0.5], [0.5, 0.5]], [[-3.0, -3.0], [-3.0, -3.0]]],
                             ids=["positive", "negative", "constant", "negative_constant"])
    def test_one_sign_layer_dequantizes_within_half_a_step(self, w):
        """The quantization range includes 0, so a layer whose weights are
        all of one sign still dequantizes each weight within scale/2."""
        w = np.array(w, dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(2, dtype=np.float32),))
        q = nn.quantize(model)
        [layer] = q.layers
        err = np.abs(nn.dequantize(q).weights[0].astype(np.float64) - w)
        # dequantize rounds to float32, a relative 2^-24 more
        assert err.max() <= layer.scale / 2 + np.abs(w).max() * 2.0 ** -24

    def test_biases_pass_through(self, fp32_model, u8_model):
        for b, layer in zip(fp32_model.biases, u8_model.layers):
            assert np.array_equal(b, layer.biases)


class TestInfer:
    def test_identity_like_model_selects_hot_index(self):
        w = np.eye(4, dtype=np.float32)
        model = nn.MlpModel(weights=(w,), biases=(np.zeros(4, dtype=np.float32),))
        hot = np.eye(4)
        assert nn.infer(model, hot).tolist() == [0, 1, 2, 3]

    def test_accuracy_against_own_predictions_is_one(self, fp32_model, default_dataset):
        preds = nn.infer(fp32_model, default_dataset.test_inputs)
        assert nn.accuracy(fp32_model, default_dataset.test_inputs, preds) == 1.0

    def test_matches_naive_forward_oracle(self, fp32_model):
        gen = np.random.default_rng(31415)
        inputs = gen.normal(size=(100, fp32_model.weights[0].shape[0]))
        got = nn.infer(fp32_model, inputs)
        for row, label in zip(inputs, got):
            act = row.astype(np.float64)
            for i, (w, b) in enumerate(zip(fp32_model.weights, fp32_model.biases)):
                act = act @ w.astype(np.float64) + b.astype(np.float64)
                if i < len(fp32_model.weights) - 1:
                    act = np.where(act > 0, act, 0.0)
            assert int(np.argmax(act)) == label

    def test_quantized_path_dequantizes(self, u8_model):
        gen = np.random.default_rng(8)
        inputs = gen.normal(size=(10, u8_model.layers[0].codes.shape[0]))
        direct = nn.infer(u8_model, inputs)
        via_dequant = nn.infer(nn.dequantize(u8_model), inputs)
        assert np.array_equal(direct, via_dequant)

    def test_forward_matches_training_forward_bit_for_bit(self, fp32_model, u8_model):
        """_forward against a plain matmul, add and ReLU loop that allocates
        every layer's output afresh."""
        gen = np.random.default_rng(5)
        raw = np.concatenate([w.reshape(-1).view("<u4") for w in fp32_model.weights])
        # exponent bit 30 stuck at 1 gives huge weights whose products
        # overflow; an all-ones exponent gives NaN and Inf weights
        raw = raw | (gen.random(raw.size) < 0.02).astype(np.uint32) << np.uint32(30)
        raw = raw | np.where(gen.random(raw.size) < 0.01, np.uint32(0x7F800000), np.uint32(0))
        sizes = np.cumsum([w.size for w in fp32_model.weights])[:-1]
        blown = nn.MlpModel(
            weights=tuple(part.view("<f4").reshape(w.shape)
                          for part, w in zip(np.split(raw, sizes), fp32_model.weights)),
            biases=fp32_model.biases)
        assert not all(np.isfinite(w).all() for w in blown.weights)
        for model, rows in [(fp32_model, 50), (blown, 50), (u8_model, 50), (fp32_model, 7)]:
            inputs = gen.normal(size=(rows, 16))
            m = nn.dequantize(model) if isinstance(model, nn.QuantizedModel) else model
            with np.errstate(invalid="ignore", over="ignore"):
                weights = [w.astype(np.float64) for w in m.weights]
                biases = [b.astype(np.float64) for b in m.biases]
                h = inputs
                for i, (w, b) in enumerate(zip(weights, biases)):
                    z = h @ w + b
                    h = z if i == len(weights) - 1 else np.maximum(z, 0.0)
                expected = h
            outs = [np.empty((rows, w.shape[1])) for w in weights]
            logits = nn._forward(weights, biases, inputs, outs)
            assert logits is outs[-1]
            assert logits.tobytes() == expected.tobytes()
            assert np.array_equal(nn.infer(model, inputs), np.argmax(expected, axis=1))

    def test_dimension_mismatch_rejected(self, fp32_model):
        with pytest.raises(ValueError):
            nn.infer(fp32_model, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            nn.accuracy(fp32_model, np.zeros((3, 16)), np.zeros(4, dtype=np.int64))


class TestQuantizedLayer:
    @staticmethod
    def layer(scale=1.0, zero_point=0):
        return nn.QuantizedLayer(codes=np.zeros((2, 3), dtype=np.uint8), scale=scale,
                                 zero_point=zero_point, biases=np.zeros(3, dtype=np.float32))

    def test_u8_requires_quant_params(self):
        self.layer(1.0, 255)
        with pytest.raises(ValueError):
            self.layer(scale=0.0)
        with pytest.raises(ValueError):
            self.layer(zero_point=300)
        with pytest.raises(ValueError):
            self.layer(zero_point=-1)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf"), float("-inf")],
                             ids=str)
    def test_u8_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            self.layer(scale=scale)


class TestModelTypes:
    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError):
            nn.MlpModel(
                weights=(np.zeros((2, 3), dtype=np.float32), np.zeros((4, 2), dtype=np.float32)),
                biases=(np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32)),
            )
        layers = [nn.QuantizedLayer(codes=np.zeros(shape, dtype=np.uint8), scale=1.0,
                                    zero_point=0, biases=np.zeros(shape[1], dtype=np.float32))
                  for shape in ((2, 3), (4, 2))]
        with pytest.raises(ValueError):
            nn.QuantizedModel(layers=tuple(layers))
        with pytest.raises(ValueError):
            nn.QuantizedModel(layers=())

    @pytest.mark.parametrize("weights, biases, message", [
        ((), (), "must pair up"),
        (((2, 3),), (), "must pair up"),
        (((2, 3),), (3, 3), "must pair up"),
        (((2, 3),), (2,), r"layer 0 shape mismatch: \(2, 3\) vs \(2,\)"),
        (((6,),), (3,), r"layer 0 shape mismatch: \(6,\) vs \(3,\)"),
        (((2, 3), (3, 2)), (3, (2, 1)), r"layer 1 shape mismatch: \(3, 2\) vs \(2, 1\)"),
    ], ids=["empty", "no-bias", "extra-bias", "bias-width", "1-d-weights", "2-d-bias"])
    def test_unpaired_or_misshaped_layers_rejected(self, weights, biases, message):
        zeros = lambda shape: np.zeros(shape, dtype=np.float32)
        with pytest.raises(ValueError, match=message):
            nn.MlpModel(weights=tuple(map(zeros, weights)), biases=tuple(map(zeros, biases)))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")],
                             ids=str)
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            nn.QuantizedLayer(codes=np.zeros((2, 3), dtype=np.uint8), scale=scale,
                              zero_point=0, biases=np.zeros(3, dtype=np.float32))

    def test_default_model_size(self, fp32_model, u8_model):
        assert fp32_model.layer_dims == (16, 32, 32, 4)
        assert u8_model.layer_dims == (16, 32, 32, 4)
        assert sum(w.size for w in fp32_model.weights) == 1664
