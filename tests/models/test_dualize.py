"""Tests for dual-module conversion of trained proxies."""

import numpy as np
import pytest

from repro.models.dualize import (
    DualizedCNN,
    DualizedLanguageModel,
    DualizedSeq2Seq,
    reduced_dim,
)
from repro.models.proxies import (
    ProxyLanguageModel,
    ProxySeq2Seq,
    proxy_alexnet,
    train_classifier,
    train_language_model,
    train_seq2seq,
    evaluate_classifier,
)
from repro.nn.data import (
    GaussianMixtureImages,
    SyntheticTranslationTask,
    ZipfTokenStream,
)


class TestReducedDim:
    def test_basic(self):
        assert reduced_dim(100, 0.25) == 25
        assert reduced_dim(100, 1.0) == 100
        assert reduced_dim(3, 0.1) == 1  # at least 1

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            reduced_dim(10, 0.0)


@pytest.fixture(scope="module")
def trained_cnn():
    rng = np.random.default_rng(5)
    ds = GaussianMixtureImages(num_classes=4, noise=0.5)
    model = proxy_alexnet(num_classes=4, rng=rng)
    train_classifier(model, ds, steps=40, rng=rng)
    return model, ds


class TestDualizedCNN:
    def test_build_creates_slot_per_conv(self, trained_cnn, rng):
        model, ds = trained_cnn
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, reduction=0.3, rng=rng)
        assert len(dual.slots) == len(model.conv_layers)

    def test_forward_logits_shape(self, trained_cnn, rng):
        model, ds = trained_cnn
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        images, _ = ds.sample(4, rng)
        logits, savings = dual.forward(images)
        assert logits.shape == (4, 4)
        assert savings.dense_macs > 0

    def test_zero_threshold_preserves_quality(self, trained_cnn, rng):
        """At threshold 0 only ReLU-negative outputs are approximated with
        zero, which is what ReLU does anyway -- accuracy should match."""
        model, ds = trained_cnn
        cal, _ = ds.sample(16, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        images, labels = ds.sample(128, np.random.default_rng(42))
        base = evaluate_classifier(model, ds, samples=128,
                                   rng=np.random.default_rng(42))
        acc, _ = dual.evaluate(images, labels)
        assert acc >= base - 0.08

    def test_aggressive_thresholds_increase_savings(self, trained_cnn, rng):
        model, ds = trained_cnn
        cal, _ = ds.sample(16, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        images, _ = ds.sample(16, rng)
        dual.set_thresholds_by_fraction(0.3, cal)
        _, low = dual.forward(images)
        dual.set_thresholds_by_fraction(0.8, cal)
        _, high = dual.forward(images)
        assert high.sensitive_fraction < low.sensitive_fraction
        assert high.flops_reduction > low.flops_reduction

    def test_imap_flag_changes_accounting_only(self, trained_cnn, rng):
        model, ds = trained_cnn
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        images, _ = ds.sample(4, rng)
        logits_a, with_imap = dual.forward(images, use_imap=True)
        logits_b, without = dual.forward(images, use_imap=False)
        np.testing.assert_allclose(logits_a, logits_b)
        assert with_imap.executed_macs <= without.executed_macs

    def test_threshold_tuning_speculates_once_per_slot(
        self, trained_cnn, rng, monkeypatch
    ):
        """Each slot's input is lowered and speculated once per
        ``set_thresholds_by_fraction``: the tuned pre-activations, their
        key and the columns are the ones the layer executes with."""
        import repro.core.approx as approx_module
        import repro.core.dual as dual_module
        from repro.core.approx import ApproximateConv2d
        from repro.core.dual import DualModuleConv2d

        model, ds = trained_cnn
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        speculations, executions, speculated, lowered = [], [], [], []
        real_speculate = dual_module.speculate_cached
        real_execute = DualModuleConv2d.execute
        real_forward = ApproximateConv2d.forward_columns
        real_lower = approx_module.im2col_cached

        def spy_speculate(approx, x):
            result = real_speculate(approx, x)
            speculations.append((id(approx), result))
            return result

        def spy_execute(self, x, cols, y_approx, imap=None, key=None):
            executions.append((cols, y_approx, key))
            return real_execute(self, x, cols, y_approx, imap=imap, key=key)

        def spy_forward(self, cols, geometry):
            speculated.append(id(self))
            return real_forward(self, cols, geometry)

        def spy_lower(*args, **kwargs):
            lowered.append(args[0].shape)
            return real_lower(*args, **kwargs)

        monkeypatch.setattr(dual_module, "speculate_cached", spy_speculate)
        monkeypatch.setattr(DualModuleConv2d, "execute", spy_execute)
        monkeypatch.setattr(ApproximateConv2d, "forward_columns", spy_forward)
        monkeypatch.setattr(approx_module, "im2col_cached", spy_lower)
        thetas = dual.set_thresholds_by_fraction(0.6, cal)
        approx_ids = [id(slot.dual.approx) for slot in dual.slots]
        assert [approx_id for approx_id, _ in speculations] == approx_ids
        assert speculated == approx_ids
        assert len(lowered) == len(dual.slots)
        for (_, (cols, y_approx, key)), executed in zip(speculations, executions):
            assert executed[0] is cols and executed[1] is y_approx
            assert key is not None and executed[2] == key
        assert thetas == [slot.dual.threshold for slot in dual.slots]

    def test_offline_phase_matches_uncached_and_keeps_no_fresh_batch(
        self, trained_cnn, monkeypatch
    ):
        """Tuning on a fixed calibration batch, then evaluating fresh
        batches, gives bit-identical thresholds and accuracies with the
        memos on and off, and no evaluation batch's im2col buffer or
        Speculator output is kept: a key requested only once is never
        stored."""
        import repro.core.dual as dual_module
        from repro.core import cache

        model, ds = trained_cnn
        rng = np.random.default_rng(12)
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        batches = [ds.sample(8, np.random.default_rng(100 + i)) for i in range(4)]
        real_speculate = dual_module.speculate_cached
        evaluation_keys = []

        def spy_speculate(approx, x):
            cols, y_approx, key = real_speculate(approx, x)
            geometry = (tuple(approx.kernel_size), approx.stride, approx.padding)
            evaluation_keys.append(((cache.array_fingerprint(x), *geometry), key))
            return cols, y_approx, key

        def run():
            outputs = []
            for i, (images, labels) in enumerate(batches):
                thetas = dual.set_thresholds_by_fraction((0.3, 0.6)[i % 2], cal)
                with monkeypatch.context() as patch:
                    patch.setattr(dual_module, "speculate_cached", spy_speculate)
                    accuracy, _ = dual.evaluate(images, labels)
                outputs.append((thetas, accuracy))
            return outputs

        cache.clear_caches()
        try:
            cached = run()
            # calibration buffers and pre-activations repeat
            assert len(cache.IM2COL_CACHE) > 0
            assert len(cache.SPECULATE_CACHE) > 0
            assert len(evaluation_keys) == len(batches) * len(dual.slots)
            for im2col_key, speculate_key in evaluation_keys:
                assert cache.IM2COL_CACHE.get(im2col_key) is None
                assert cache.SPECULATE_CACHE.get(speculate_key) is None
            cache.set_cache_enabled(False)
            assert run() == cached
        finally:
            cache.set_cache_enabled(True)
            cache.clear_caches()

    def test_offline_phase_never_hashes_speculator_outputs(
        self, trained_cnn, monkeypatch
    ):
        """In one tune + evaluate round only layer inputs and Speculator
        parameters are fingerprinted: no pre-activation array is hashed,
        and the bytes hashed are at most those of the inputs and
        parameters of every speculation."""
        import repro.core.dual as dual_module
        from repro.core import cache

        model, ds = trained_cnn
        rng = np.random.default_rng(13)
        cal, _ = ds.sample(8, rng)
        dual = DualizedCNN.build(model, cal, rng=rng)
        images, labels = ds.sample(8, np.random.default_rng(113))
        real_fingerprint = cache.array_fingerprint
        real_speculate = dual_module.speculate_cached
        hashed, speculations = [], []

        def spy_fingerprint(x):
            fingerprint = real_fingerprint(x)
            hashed.append((fingerprint, np.asarray(x).nbytes))
            return fingerprint

        def spy_speculate(approx, x):
            result = real_speculate(approx, x)
            inner = approx.inner
            params = inner.projection.signs.nbytes + inner.weight.nbytes + inner.bias.nbytes
            speculations.append((np.asarray(x).nbytes + params, result[1]))
            return result

        cache.clear_caches()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(cache, "array_fingerprint", spy_fingerprint)
                patch.setattr(dual_module, "speculate_cached", spy_speculate)
                dual.set_thresholds_by_fraction(0.5, cal)
                dual.evaluate(images, labels)
        finally:
            cache.clear_caches()
        assert len(speculations) == 2 * len(dual.slots)
        outputs = {real_fingerprint(y_approx) for _, y_approx in speculations}
        assert outputs.isdisjoint(fingerprint for fingerprint, _ in hashed)
        assert sum(size for _, size in hashed) <= sum(size for size, _ in speculations)


class TestDualizedLanguageModel:
    @pytest.fixture(scope="class")
    def trained_lm(self):
        rng = np.random.default_rng(6)
        stream = ZipfTokenStream(vocab_size=30, branching=4)
        model = ProxyLanguageModel(30, embed_dim=12, hidden_size=24, rng=rng)
        train_language_model(model, stream, steps=60, seq_len=12, rng=rng)
        return model, stream

    def test_build_and_forward(self, trained_lm, rng):
        model, stream = trained_lm
        cal = stream.sample(12, 4, rng)
        dual = DualizedLanguageModel.build(model, cal, rng=rng)
        tokens_in, tokens_tgt = stream.lm_batch(10, 4, rng)
        ppl, savings = dual.evaluate(tokens_in, tokens_tgt)
        assert np.isfinite(ppl)
        assert savings.weight_reads <= savings.dense_weight_reads

    def test_infinite_threshold_matches_accurate(self, trained_lm, rng):
        model, stream = trained_lm
        cal = stream.sample(12, 4, rng)
        dual = DualizedLanguageModel.build(
            model, cal, threshold=np.inf, rng=rng
        )
        tokens_in, tokens_tgt = stream.lm_batch(10, 4, rng)
        ppl_dual, savings = dual.evaluate(tokens_in, tokens_tgt)
        from repro.nn.losses import CrossEntropyLoss, perplexity

        ppl_ref = perplexity(CrossEntropyLoss()(model(tokens_in), tokens_tgt))
        assert savings.sensitive_fraction == 1.0
        assert ppl_dual == pytest.approx(ppl_ref, rel=1e-9)

    def test_threshold_tuning_hits_fraction(self, trained_lm, rng):
        model, stream = trained_lm
        cal = stream.sample(15, 6, rng)
        dual = DualizedLanguageModel.build(model, cal, rng=rng)
        dual.set_thresholds_by_fraction(0.5, cal)
        tokens_in, tokens_tgt = stream.lm_batch(12, 6, rng)
        _, savings = dual.evaluate(tokens_in, tokens_tgt)
        assert abs((1.0 - savings.sensitive_fraction) - 0.5) < 0.15

    def test_gru_variant(self, rng):
        stream = ZipfTokenStream(vocab_size=20)
        model = ProxyLanguageModel(20, embed_dim=8, hidden_size=12,
                                   cell="gru", rng=rng)
        train_language_model(model, stream, steps=15, seq_len=8, rng=rng)
        cal = stream.sample(8, 3, rng)
        dual = DualizedLanguageModel.build(model, cal, rng=rng)
        tokens_in, tokens_tgt = stream.lm_batch(8, 3, rng)
        ppl, savings = dual.evaluate(tokens_in, tokens_tgt)
        assert np.isfinite(ppl)


class TestDualizedSeq2Seq:
    def test_build_and_evaluate(self, rng):
        task = SyntheticTranslationTask(vocab_size=12, seq_len=4)
        model = ProxySeq2Seq(12, embed_dim=12, hidden_size=20, rng=rng)
        train_seq2seq(model, task, steps=80, rng=rng)
        src, _ = task.sample(8, rng)
        bos = np.zeros((1, 8), dtype=np.int64)
        dual = DualizedSeq2Seq.build(model, src, bos.repeat(4, axis=0), rng=rng)
        score, savings = dual.evaluate(task, samples=32)
        assert 0.0 <= score <= 1.0
        assert savings.dense_macs > 0

    def test_set_thresholds(self, rng):
        task = SyntheticTranslationTask(vocab_size=10, seq_len=3)
        model = ProxySeq2Seq(10, embed_dim=8, hidden_size=12, rng=rng)
        src, tgt = task.sample(4, rng)
        dual = DualizedSeq2Seq.build(model, src, tgt, rng=rng)
        dual.set_thresholds(np.inf)
        _, savings_inf = dual.evaluate(task, samples=8)
        dual.set_thresholds(1e-9)
        _, savings_tiny = dual.evaluate(task, samples=8)
        assert savings_inf.sensitive_fraction == 1.0
        assert savings_tiny.sensitive_fraction < 0.05

    def test_set_thresholds_partial_dict_and_unknown_gate(self, rng):
        task = SyntheticTranslationTask(vocab_size=10, seq_len=3)
        model = ProxySeq2Seq(10, embed_dim=8, hidden_size=12, rng=rng)
        src, tgt = task.sample(4, rng)
        dual = DualizedSeq2Seq.build(model, src, tgt, threshold=1.0, rng=rng)
        dual.set_thresholds({"i": 0.5})
        for cell in (dual.dual_encoder, dual.dual_decoder):
            assert cell.thresholds == {"i": 0.5, "f": 1.0, "g": 1.0, "o": 1.0}
        with pytest.raises(ValueError, match="unknown gates"):
            dual.set_thresholds({"I": 0.25})
        for cell in (dual.dual_encoder, dual.dual_decoder):
            assert cell.thresholds == {"i": 0.5, "f": 1.0, "g": 1.0, "o": 1.0}


class TestSeq2SeqThresholdTuning:
    def test_fraction_tuning_monotone(self, rng):
        task = SyntheticTranslationTask(vocab_size=10, seq_len=3)
        model = ProxySeq2Seq(10, embed_dim=8, hidden_size=12, rng=rng)
        train_seq2seq(model, task, steps=60, rng=rng)
        src, tgt = task.sample(8, rng)
        bos = np.zeros((1, 8), dtype=np.int64)
        tgt_in = np.concatenate([bos, tgt[:-1]], axis=0)
        dual = DualizedSeq2Seq.build(model, src, tgt_in, rng=rng)

        sensitives = []
        for fraction in (0.2, 0.5, 0.8):
            dual.set_thresholds_by_fraction(fraction, src, tgt_in)
            _, savings = dual.evaluate(task, samples=16)
            sensitives.append(savings.sensitive_fraction)
        # more aggressive fractions leave fewer sensitive outputs
        assert sensitives[0] > sensitives[1] > sensitives[2]
