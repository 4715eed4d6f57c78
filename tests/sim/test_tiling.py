"""Tests for GLB-constrained loop tiling."""

import pytest

from repro.models import get_model_spec
from repro.models.layer_spec import ConvSpec
from repro.sim.tiling import TilingChoice, candidate_tiles, choose_tiling


class TestCandidates:
    def test_powers_of_two_plus_limit(self):
        assert candidate_tiles(64) == [1, 2, 4, 8, 16, 32, 64]
        assert candidate_tiles(48) == [1, 2, 4, 8, 16, 32, 48]
        assert candidate_tiles(1) == [1]

    def test_invalid(self):
        with pytest.raises(ValueError, match="positive"):
            candidate_tiles(0)


class TestChooseTiling:
    def test_small_layer_streams_once(self):
        """A layer whose whole working set fits needs no re-fetching."""
        spec = ConvSpec("c", 16, 32, 3, 1, 1, 14, 14)
        choice = choose_tiling(spec, glb_bytes=1 << 20)
        assert choice.input_refetch == 1
        assert choice.psum_passes == 1
        assert choice.dram_read_words == spec.input_elements + spec.weight_elements
        assert choice.dram_write_words == spec.output_elements

    def test_large_layer_refetches(self):
        """VGG conv4-class layers exceed 1 MB and must re-fetch."""
        spec = ConvSpec("c", 512, 512, 3, 1, 1, 28, 28)
        choice = choose_tiling(spec, glb_bytes=1 << 20)
        assert choice.buffer_bytes <= 1 << 20
        assert choice.dram_total_words > (
            spec.input_elements + spec.weight_elements + spec.output_elements
        )

    def test_bigger_glb_never_more_traffic(self):
        spec = ConvSpec("c", 256, 512, 3, 1, 1, 28, 28)
        small = choose_tiling(spec, glb_bytes=256 << 10)
        big = choose_tiling(spec, glb_bytes=4 << 20)
        assert big.dram_total_words <= small.dram_total_words

    def test_respects_capacity_when_feasible(self):
        spec = ConvSpec("c", 64, 128, 3, 1, 1, 28, 28)
        for glb in (128 << 10, 512 << 10, 2 << 20):
            choice = choose_tiling(spec, glb_bytes=glb)
            min_choice = choose_tiling(spec, glb_bytes=1)  # fallback floor
            if min_choice.buffer_bytes <= glb:
                assert choice.buffer_bytes <= glb

    def test_invalid_glb(self):
        spec = ConvSpec("c", 8, 8, 3, 1, 1, 8, 8)
        with pytest.raises(ValueError, match="positive"):
            choose_tiling(spec, 0)

    def test_traffic_formula_consistency(self):
        spec = ConvSpec("c", 64, 64, 3, 1, 1, 14, 14)
        choice = choose_tiling(spec, glb_bytes=64 << 10)
        expected_reads = (
            spec.weight_elements
            + spec.input_elements * choice.input_refetch
            + spec.output_elements * (choice.psum_passes - 1)
        )
        assert choice.dram_read_words == expected_reads


class TestPipelineIntegration:
    def test_vgg_traffic_exceeds_single_stream(self):
        """With tiling, VGG16's DRAM traffic exceeds the naive one-pass
        volume (its big layers re-fetch), for BASE and DUET alike."""
        from repro.sim import DuetAccelerator
        from repro.workloads import cnn_workloads

        spec = get_model_spec("vgg16")
        wl = cnn_workloads(spec)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        naive_bytes = sum(
            (s.input_elements + s.weight_elements + s.output_elements) * 2
            for s in spec.conv_layers
        )
        measured = sum(l.dram_bytes for l in base.layers)
        assert measured > naive_bytes

    def test_alexnet_convs_mostly_stream_once(self):
        """AlexNet's CONV working sets are modest: traffic stays close to
        the one-pass volume."""
        from repro.sim import DuetAccelerator
        from repro.workloads import cnn_workloads

        spec = get_model_spec("alexnet")
        wl = cnn_workloads(spec)
        base = DuetAccelerator(stage="BASE").run(spec, workloads=wl)
        naive_bytes = sum(
            (s.input_elements + s.weight_elements + s.output_elements) * 2
            for s in spec.conv_layers
        )
        measured = sum(l.dram_bytes for l in base.layers)
        assert measured < naive_bytes * 1.5
