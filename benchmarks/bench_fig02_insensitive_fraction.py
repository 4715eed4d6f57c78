"""Fig. 2 -- fraction of activations in insensitive regions.

Paper: "a large portion of activations are in the insensitive regions" --
post-ReLU CNN pre-activations below zero, and RNN gate pre-activations in
the sigmoid/tanh saturation regions.  We regenerate the figure's series
from trained proxy models: per-layer ReLU insensitive fractions for the
CNN and per-gate saturation fractions for LSTM/GRU language models.
"""

import numpy as np
import pytest

from repro.core.stats import relu_insensitive_fraction, saturation_insensitive_fraction
from repro.models.proxies import (
    ProxyLanguageModel,
    proxy_alexnet,
    train_classifier,
    train_language_model,
)
from repro.nn.data import GaussianMixtureImages, ZipfTokenStream


@pytest.fixture(scope="module")
def trained_cnn():
    rng = np.random.default_rng(0)
    ds = GaussianMixtureImages(num_classes=8, noise=0.5)
    model = proxy_alexnet(num_classes=8, rng=rng)
    train_classifier(model, ds, steps=60, rng=rng)
    return model, ds


@pytest.fixture(scope="module")
def trained_lms():
    out = {}
    for cell in ("lstm", "gru"):
        rng = np.random.default_rng(1)
        stream = ZipfTokenStream(vocab_size=60, branching=4)
        model = ProxyLanguageModel(60, embed_dim=24, hidden_size=48, cell=cell, rng=rng)
        train_language_model(model, stream, steps=80, seq_len=16, rng=rng)
        out[cell] = (model, stream)
    return out


def _cnn_layer_fractions(model, images):
    """Per-conv-layer fraction of pre-activations below zero (ReLU rule)."""
    from repro.nn.layers import Conv2d, ReLU

    fractions = []
    x = images
    pending_pre = None
    for layer in model.features:
        if isinstance(layer, Conv2d):
            x = layer(x)
            pending_pre = x
        elif isinstance(layer, ReLU):
            fractions.append(relu_insensitive_fraction(pending_pre, 0.0))
            x = layer(x)
        else:
            x = layer(x)
    return fractions


def test_cnn_insensitive_fractions(benchmark, report, trained_cnn, rng):
    model, ds = trained_cnn
    images, _ = ds.sample(64, rng)
    fractions = benchmark.pedantic(
        lambda: _cnn_layer_fractions(model, images), rounds=1, iterations=1
    )
    lines = ["CNN (proxy AlexNet) ReLU insensitive fraction per layer:"]
    for i, frac in enumerate(fractions):
        lines.append(f"  conv{i + 1}: {frac:.2f}")
    mean = float(np.mean(fractions))
    lines.append(f"  mean: {mean:.2f}   (paper Fig. 2: large portion, ~0.4-0.7)")
    report("\n".join(lines))
    # the motivating observation must hold: a large insensitive population
    assert mean > 0.3


def test_rnn_saturation_fractions(benchmark, report, trained_lms, rng):
    results = {}

    def measure():
        for cell, (model, stream) in trained_lms.items():
            tokens = stream.sample(16, 8, rng)
            embedded = model.embedding(tokens)
            rnn_cell = model.rnn.cells[0]
            state = rnn_cell.init_state(8)
            pre_list = []
            for t in range(16):
                # each cell's own gate pre-activations: for the GRU the
                # candidate's is ``gi_n + r * gh_n``, not ``gi_n + gh_n``
                state, step = rnn_cell(embedded[t], state)
                pre_list.append(step["pre"])
            pre = np.concatenate(pre_list)
            results[cell] = {
                theta: saturation_insensitive_fraction(pre, theta)
                for theta in (0.5, 1.0, 2.0)
            }
        return results

    benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = ["RNN gate pre-activation saturation fractions (|y| > theta):"]
    for cell, fracs in results.items():
        row = "  ".join(f"theta={t}: {f:.2f}" for t, f in fracs.items())
        lines.append(f"  {cell.upper()}: {row}")
    lines.append("  (paper Fig. 2: substantial saturation mass in trained RNNs)")
    report("\n".join(lines))
    assert results["lstm"][0.5] > 0.2
