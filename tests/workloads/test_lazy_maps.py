"""Sampled CONV workloads: maps drawn lazily from a recipe.

``SparsityModel.cnn_layer`` returns a workload that carries its recipe
and draws its maps on first access.  These tests pin that deferring the
draw changes nothing: the maps equal an eager draw, survive pickling
before the draw, are frozen read-only, and ignore later mutation of the
model that produced them.
"""

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ConvSpec, get_model_spec
from repro.workloads import CnnLayerWorkload, SparsityModel

conv_specs = st.builds(
    lambda c_in, c_out, k, hw: ConvSpec("c", c_in, c_out, k, 1, k // 2, hw, hw),
    st.integers(1, 6),
    st.integers(1, 12),
    st.sampled_from([1, 3]),
    st.integers(2, 9),
)

sparsity_models = st.builds(
    SparsityModel,
    cnn_sensitive_mean=st.floats(0.05, 0.95),
    cnn_channel_concentration=st.floats(0.5, 8.0),
    cnn_input_density=st.floats(0.05, 0.95),
    cnn_input_concentration=st.floats(0.5, 8.0),
    first_layer_dense=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


def _eager(model, spec, layer_index):
    """The maps drawn at once, as an explicit-array workload."""
    return CnnLayerWorkload(spec, *model._cnn_maps(spec, layer_index))


def _drawn(workload) -> bool:
    return workload._omap is not None


class TestLazyEqualsEager:
    @settings(deadline=None, max_examples=60)
    @given(sparsity_models, conv_specs, st.integers(0, 40))
    def test_maps_identical(self, model, spec, layer_index):
        eager = _eager(model, spec, layer_index)
        lazy = model.cnn_layer(spec, layer_index)
        assert not _drawn(lazy)
        np.testing.assert_array_equal(lazy.omap, eager.omap)
        np.testing.assert_array_equal(lazy.imap, eager.imap)
        assert lazy.omap.dtype == eager.omap.dtype == np.uint8
        assert _drawn(lazy)

    @settings(deadline=None, max_examples=30)
    @given(sparsity_models, conv_specs, st.integers(0, 40))
    def test_pickle_before_draw(self, model, spec, layer_index):
        lazy = model.cnn_layer(spec, layer_index)
        clone = pickle.loads(pickle.dumps(lazy))
        assert not _drawn(clone)
        assert clone.recipe == lazy.recipe
        np.testing.assert_array_equal(clone.omap, lazy.omap)
        np.testing.assert_array_equal(clone.imap, lazy.imap)

    @settings(deadline=None, max_examples=30)
    @given(sparsity_models, conv_specs, st.integers(0, 40), sparsity_models)
    def test_model_mutation_after_sampling_changes_nothing(
        self, model, spec, layer_index, other
    ):
        eager = _eager(model, spec, layer_index)
        lazy = model.cnn_layer(spec, layer_index)
        recipe = lazy.recipe
        for f in dataclasses.fields(model):
            setattr(model, f.name, getattr(other, f.name))
        assert lazy.recipe == recipe
        np.testing.assert_array_equal(lazy.omap, eager.omap)
        np.testing.assert_array_equal(lazy.imap, eager.imap)


class TestRecipe:
    @pytest.fixture
    def spec(self):
        return ConvSpec("c", 4, 8, 3, 1, 1, 6, 6)

    def test_recipe_names_model_spec_and_index(self, spec):
        model = SparsityModel(seed=5)
        assert model.cnn_layer(spec, 2).recipe == (
            dataclasses.astuple(model), spec, 2
        )

    def test_equal_recipes_for_equal_inputs(self, spec):
        a = SparsityModel(seed=5).cnn_layer(spec, 2)
        b = SparsityModel(seed=5).cnn_layer(spec, 2)
        assert a.recipe == b.recipe and hash(a.recipe) == hash(b.recipe)
        assert a.recipe != SparsityModel(seed=6).cnn_layer(spec, 2).recipe
        assert a.recipe != SparsityModel(seed=5).cnn_layer(spec, 3).recipe

    def test_explicit_arrays_have_no_recipe(self, spec):
        wl = CnnLayerWorkload(
            spec,
            np.ones((8, 6, 6), dtype=np.uint8),
            np.ones((4, 6, 6), dtype=np.uint8),
        )
        assert wl.recipe is None and _drawn(wl)

    def test_drawn_maps_are_read_only(self, spec):
        wl = SparsityModel(seed=1).cnn_layer(spec, 1)
        for bits in (wl.omap, wl.imap):
            with pytest.raises(ValueError, match="read-only"):
                bits[...] = 0

    def test_dense_first_layer_is_lazy_and_read_only(self, spec):
        wl = SparsityModel(first_layer_dense=True).cnn_layer(spec, 0)
        assert not _drawn(wl)
        assert wl.sensitive_fraction == 1.0
        assert not wl.omap.flags.writeable


# SHA-256 of ``omap.tobytes()`` and ``imap.tobytes()`` per
# ``(seed, model, layer_index, first_layer_dense)``, recorded from the
# single full-size ``rng.random(shape) < p`` draw.  A change to how the
# maps are drawn (block size, comparison, dtype) must not shift the PCG64
# stream: every committed bench document prices these maps.
PINNED_DRAWS = {
    # the dense first layer: no draw at all
    (0, "alexnet", 0, True): (
        "5d7bd18b301dbb7769ed20b702e2ea51f2445231f9187a288bc876b889d57945",
        "e1c2c9b0c42d3cebbf6716237ee0549e1dddae5aafe47447285a8a5e8b3347dd",
    ),
    # 64 x 55 x 55 OMap (rows not a multiple of 8) and 3 x 224 x 224 IMap
    (3, "alexnet", 0, False): (
        "29a5dc101e14582ac328e3f7893a9be49d339d8c3ee3bb8beeb0c4bc6204f08d",
        "33b4c88cfff9a6931916c158cc5c48e083479cafaee54f4727f772e00d44773f",
    ),
    (0, "alexnet", 1, True): (
        "e39867549447145decbc1f9882a40b0d8bf6aca9035ecd09746823b24e09f68c",
        "5c2f044057d87adefad4efd520d1633c18e96beb9c52de2e2e50377978f9fa53",
    ),
    # 64 x 224 x 224 on both sides: many draw blocks per map
    (1, "vgg16", 1, True): (
        "fb32dde6c6e43d2c2c5937569ea023161a757d4d6877d696cfe65b23db15de1d",
        "fe832e025053a8c94bd741cec296cce5677632772e2eb9fde1ab04bd7b856be7",
    ),
    (2, "resnet18", 2, True): (
        "26e4332fda4f1787d47964d230385433d09e22f194a348e08f1075c41ed51cae",
        "b3ac401774a6ae85707b5f67bd6b3eacb435afbb750c1bb695f229c12190e267",
    ),
}


class TestPinnedDraws:
    @pytest.mark.parametrize("recipe", sorted(PINNED_DRAWS), ids=str)
    def test_map_bits_unchanged(self, recipe):
        seed, model, layer_index, dense = recipe
        spec = get_model_spec(model).conv_layers[layer_index]
        sampler = SparsityModel(seed=seed, first_layer_dense=dense)
        omap, imap = sampler._cnn_maps(spec, layer_index)
        assert omap.dtype == imap.dtype == np.uint8
        assert omap.shape == (spec.out_channels, spec.out_h, spec.out_w)
        assert imap.shape == (spec.in_channels, spec.in_h, spec.in_w)
        digests = tuple(
            hashlib.sha256(bits.tobytes()).hexdigest() for bits in (omap, imap)
        )
        assert digests == PINNED_DRAWS[recipe]
