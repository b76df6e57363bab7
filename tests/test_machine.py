"""Tests for the network and machine cost models."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.runtime import MachineModel, NetworkModel, laptop_machine, snellius_machine


class TestNetworkModel:
    def test_effective_bandwidth_monotone(self):
        net = NetworkModel()
        sizes = [64, 512, 4096, 32768, 262144, 1 << 21]
        bws = [net.effective_bandwidth(s) for s in sizes]
        assert all(a < b for a, b in zip(bws, bws[1:]))

    def test_effective_bandwidth_approaches_peak(self):
        net = NetworkModel()
        assert net.effective_bandwidth(1 << 30) == pytest.approx(
            net.peak_bandwidth, rel=0.001
        )

    def test_half_saturation_point(self):
        net = NetworkModel()
        assert net.effective_bandwidth(
            net.half_saturation_bytes
        ) == pytest.approx(net.peak_bandwidth / 2)

    def test_transfer_time_has_latency_floor(self):
        net = NetworkModel()
        assert net.transfer_time(0) == net.latency
        assert net.transfer_time(1) > net.latency

    @given(st.floats(min_value=1, max_value=1e9))
    def test_transfer_time_positive(self, nbytes):
        assert NetworkModel().transfer_time(nbytes) > 0

    def test_small_messages_waste_bandwidth(self):
        # The Fig. 7 effect: moving the same volume in 2 KB messages is much
        # slower than in 8 KB messages.
        net = NetworkModel()
        total = 1 << 30
        t_2k = net.bulk_time(total, 2048)
        t_8k = net.bulk_time(total, 8192)
        assert t_2k > 2.0 * t_8k

    def test_bulk_time_zero_volume(self):
        assert NetworkModel().bulk_time(0, 1024) == 0.0

    def test_bulk_time_message_larger_than_total(self):
        net = NetworkModel()
        # message size is clamped to the total volume
        assert net.bulk_time(100, 10_000) == pytest.approx(
            net.latency + 100 / net.effective_bandwidth(100)
        )


class TestMachineModel:
    def test_compute_time_divides_over_cores(self):
        m = MachineModel(cores_per_locale=64)
        assert m.compute_time(1e-6, 6400) == pytest.approx(1e-4)

    def test_snellius_defaults(self):
        m = snellius_machine()
        assert m.cores_per_locale == 128
        # 100 Gb/s InfiniBand
        assert m.network.peak_bandwidth == pytest.approx(12.5e9)

    def test_laptop_machine(self):
        m = laptop_machine(cores=4)
        assert m.cores_per_locale == 4

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MachineModel(cores_per_locale=0),
            lambda: laptop_machine(cores=0),
            lambda: MachineModel(cores_per_locale=-1),
        ],
    )
    def test_rejects_fewer_than_one_core(self, make):
        """Used to be accepted, and the enumeration then divided by zero."""
        with pytest.raises(ConfigError, match="cores_per_locale"):
            make()

    def test_calibration_single_node_42_spins(self):
        # The calibration anchor from Sec. 6.3: per-core getManyRows time
        # for the 42-spin system should come out near 424 s.
        m = snellius_machine()
        dim = 3_204_236_779
        elements = dim * 21  # ~n/2 off-diagonals per row
        per_core_gen = elements * m.t_generate / 128
        assert per_core_gen == pytest.approx(424, rel=0.05)
        per_core_search = elements * m.t_search_accum / 128
        assert per_core_search == pytest.approx(80, rel=0.05)
