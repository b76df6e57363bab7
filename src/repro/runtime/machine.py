"""Machine and network cost models.

The default parameters describe one "thin" node of the Dutch national
supercomputer Snellius as used in the paper's evaluation (2x AMD Rome 7H12,
128 cores, ConnectX-6 HDR100 = 100 Gb/s InfiniBand), with per-element kernel
rates *calibrated to the paper's own measurements*:

- Sec. 6.3: for the 42-spin system on a single node, each core spends about
  424 s in ``getManyRows`` and about 80 s in ``stateToIndex`` + atomic
  accumulate.  The 42-spin sector has dimension 3.2e9 and the Heisenberg
  chain emits on average about ``n/2 = 21`` off-diagonal elements per row,
  giving ``t_generate ~ 424*128/(3.2e9*21) ~ 8e-7 s`` and
  ``t_search_accum ~ 80*128/(3.2e9*21) ~ 1.5e-7 s``.
- Sec. 6.2: 2 KB messages are "too small to saturate the network
  bandwidth" while 8 KB messages do noticeably better — captured by a
  message-size-dependent effective bandwidth with half-saturation around
  16 KB.

Only *relative* behaviour matters for the reproduction (who wins, where
scaling saturates); absolute times are indicative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.schema import require_positive

__all__ = ["NetworkModel", "MachineModel", "snellius_machine", "laptop_machine"]


@dataclass(frozen=True)
class NetworkModel:
    """LogGP-style point-to-point network costs.

    A message of ``b`` bytes costs ``latency + b / effective_bandwidth(b)``,
    where the effective bandwidth ramps up with message size — small
    messages do not saturate the link (the effect behind the paper's Fig. 7
    discussion).  Per-message costs serialize at the NIC of the issuing
    (and receiving) locale.
    """

    #: end-to-end latency per message, seconds
    latency: float = 1.5e-6
    #: peak link bandwidth, bytes/second (100 Gb/s InfiniBand)
    peak_bandwidth: float = 12.5e9
    #: message size at which half the peak bandwidth is reached, bytes
    half_saturation_bytes: float = 16_384.0
    #: cost of a remote atomic write implemented as an active message
    #: handled by the runtime (Chapel's fastOn), seconds
    remote_atomic_latency: float = 2.0e-6

    def effective_bandwidth(self, nbytes: float) -> float:
        """Achievable bandwidth for messages of ``nbytes`` bytes."""
        if nbytes <= 0:
            return self.peak_bandwidth
        return self.peak_bandwidth * nbytes / (nbytes + self.half_saturation_bytes)

    def transfer_time(self, nbytes: float) -> float:
        """Time for one point-to-point message of ``nbytes`` bytes."""
        if nbytes <= 0:
            return self.latency
        return self.latency + nbytes / self.effective_bandwidth(nbytes)

    def bulk_time(self, total_bytes: float, message_bytes: float) -> float:
        """Time to move ``total_bytes`` through one NIC in messages of
        ``message_bytes`` each (per-message latencies serialize)."""
        if total_bytes <= 0:
            return 0.0
        message_bytes = max(min(message_bytes, total_bytes), 1.0)
        n_messages = total_bytes / message_bytes
        return n_messages * self.latency + total_bytes / self.effective_bandwidth(
            message_bytes
        )


@dataclass(frozen=True)
class MachineModel:
    """Per-node compute rates plus the network model.

    The ``t_*`` fields are seconds per element for the vectorized kernels;
    they play the role of the paper's Halide kernel throughputs.
    ``cores_per_locale`` is an integer >= 1
    (:class:`~repro.errors.ConfigError` otherwise).
    """

    cores_per_locale: int = 128
    network: NetworkModel = field(default_factory=NetworkModel)

    #: local memory copy bandwidth per core, bytes/second
    memcpy_bandwidth: float = 2.0e10
    #: overhead of spawning a (remote) task, seconds — the cost that kills
    #: the naive and batched matvec variants of Sec. 5.3
    task_spawn_overhead: float = 2.0e-5

    #: getManyRows: seconds per emitted off-diagonal matrix element
    #: (includes the symmetry state_info loop)
    t_generate: float = 8.0e-7
    #: stateToIndex binary search + atomic accumulate, seconds per element
    t_search_accum: float = 1.5e-7
    #: enumeration: cheap Hamming-weight test, seconds per raw candidate
    t_weight_check: float = 1.0e-9
    #: enumeration: amortized is-representative check, seconds per
    #: weight-passing candidate (short-circuiting group loop)
    t_rep_check: float = 4.0e-9
    #: hashing basis states to locales, seconds per element
    t_hash: float = 1.5e-9
    #: stable counting-sort partition by destination, seconds per element
    t_partition: float = 4.0e-9
    #: streaming vector update (axpy / dot), seconds per element
    t_axpy: float = 1.0e-9

    def __post_init__(self) -> None:
        require_positive(cores_per_locale=self.cores_per_locale)

    def compute_time(self, seconds_per_element: float, n_elements: float) -> float:
        """Elapsed time for ``n_elements`` of work divided over the cores."""
        return seconds_per_element * n_elements / self.cores_per_locale

    def memcpy_time(self, nbytes: float, n_cores: int | None = None) -> float:
        cores = self.cores_per_locale if n_cores is None else max(n_cores, 1)
        return nbytes / (self.memcpy_bandwidth * cores)


def snellius_machine() -> MachineModel:
    """The paper's testbed: Snellius "thin" nodes (see module docstring)."""
    return MachineModel()


def laptop_machine(cores: int = 8) -> MachineModel:
    """A small shared-memory machine; useful for running the discrete-event
    simulation at laptop scale in the tests and examples."""
    return MachineModel(
        cores_per_locale=cores,
        network=NetworkModel(
            latency=0.5e-6,
            peak_bandwidth=2.0e10,
            half_saturation_bytes=4096.0,
            remote_atomic_latency=0.5e-6,
        ),
    )
