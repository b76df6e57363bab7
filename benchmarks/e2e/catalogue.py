"""Names, units and bounds of every metric the ladder reports.

This is the single list the runner, ``compare.py``, the smoke test and
``BENCHMARK.json`` agree on.  ``moves`` names the end-to-end metric (and
workload) a per-layer row is expected to move; it is documentation, the
runner does not act on it.
"""

from __future__ import annotations

from typing import NamedTuple


class EndToEnd(NamedTuple):
    name: str
    unit: str
    bound: float  # share of the parent's median it may worsen by
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: "all" rows exist on every workload and are the ``per_layer`` list of
    #: BENCHMARK.json; "distributed" / "threads" / "sim" rows are printed
    #: and recorded only where that layer is on the path.
    scope: str
    #: "always": a count that repeats exactly on one commit; "seed": exact
    #: for a fixed ``--seed``; "": a measurement.
    exact: str
    moves: str


END_TO_END = (
    EndToEnd("setup_s", "s", 0.25, "group + basis + operator construction"),
    EndToEnd("cold_matvec_s", "s", 0.25, "one matrix-free y = Hx"),
    EndToEnd("plan_record_s", "s", 0.25, "a matvec that starts with an empty plan"),
    EndToEnd("warm_matvec_s", "s", 0.25, "one plan-replay matvec"),
    EndToEnd("solve_s", "s", 0.25, "Lanczos k=1 tol=1e-10, plan warm"),
    EndToEnd(
        "time_to_solution_s", "s", 0.25, "run_simulation(spec), nothing cached"
    ),
    EndToEnd("peak_rss_mb", "MB", 0.15, "ru_maxrss after the first journey's stages"),
)

_S, _NS, _US, _N, _R = "s", "ns", "us", "count", "ratio"

PER_LAYER = (
    # -- bits ---------------------------------------------------------------
    PerLayer("bits.permute_ns_per_state", _NS, "lower", "all", "",
             "cold_matvec_s on square4x6_serial; flat on chains"),
    PerLayer("bits.rotate_ns_per_state", _NS, "lower", "all", "",
             "cold_matvec_s on the chain workloads"),
    PerLayer("bits.states_with_weight_s", _S, "lower", "all", "",
             "setup_s everywhere"),
    # -- symmetry -----------------------------------------------------------
    PerLayer("symmetry.state_info_s", _S, "lower", "all", "",
             "cold_matvec_s, plan_record_s, setup_s; most on chain24_serial"),
    PerLayer("symmetry.state_info_ns_per_state", _NS, "lower", "all", "",
             "cold_matvec_s, plan_record_s, setup_s"),
    PerLayer("symmetry.states_in", _N, "lower", "all", "always",
             "cold_matvec_s"),
    PerLayer("symmetry.valid_ratio", _R, "higher", "all", "always",
             "cold_matvec_s (wasted projections)"),
    PerLayer("symmetry.group_order", _N, "lower", "all", "always",
             "cold_matvec_s, setup_s"),
    PerLayer("symmetry.network_perms", _N, "lower", "all", "always",
             "cold_matvec_s on square4x6_serial"),
    # -- basis --------------------------------------------------------------
    PerLayer("basis.build_s", _S, "lower", "all", "", "setup_s"),
    PerLayer("basis.candidates", _N, "lower", "all", "always", "setup_s"),
    PerLayer("basis.dim", _N, "lower", "all", "always", "everything"),
    PerLayer("basis.keep_ratio", _R, "higher", "all", "always", "setup_s"),
    PerLayer("basis.index_s", _S, "lower", "all", "",
             "cold_matvec_s; most on square4x6_serial"),
    PerLayer("basis.index_ns_per_query", _NS, "lower", "all", "",
             "cold_matvec_s"),
    PerLayer("basis.index_queries", _N, "lower", "all", "always",
             "cold_matvec_s"),
    # -- operators ----------------------------------------------------------
    PerLayer("operators.compile_s", _S, "lower", "all", "", "setup_s"),
    PerLayer("operators.apply_off_diag_s", _S, "lower", "all", "",
             "cold_matvec_s"),
    PerLayer("operators.get_many_rows_s", _S, "lower", "all", "",
             "cold_matvec_s"),
    PerLayer("operators.get_many_rows_self_s", _S, "lower", "all", "",
             "cold_matvec_s"),
    PerLayer("operators.scatter_s", _S, "lower", "all", "", "cold_matvec_s"),
    PerLayer("operators.elements_emitted", _N, "lower", "all", "always",
             "cold_matvec_s"),
    PerLayer("operators.elements_per_s", "1/s", "higher", "all", "",
             "cold_matvec_s"),
    PerLayer("operators.plan_bytes", "B", "lower", "all", "always",
             "peak_rss_mb"),
    PerLayer("operators.plan_entries", _N, "lower", "all", "always",
             "peak_rss_mb"),
    PerLayer("operators.replay_ns_per_element", _NS, "lower", "all", "",
             "warm_matvec_s, solve_s"),
    PerLayer("operators.csr_spmv_s", _S, "lower", "all", "",
             "floor for warm_matvec_s (SciPy CSR, one thread)"),
    # -- distributed --------------------------------------------------------
    PerLayer("distributed.enumerate_s", _S, "lower", "distributed", "",
             "setup_s"),
    PerLayer("distributed.hash_ns_per_state", _NS, "lower", "distributed", "",
             "cold_matvec_s on both chain-24 workloads"),
    PerLayer("distributed.partition_s", _S, "lower", "distributed", "",
             "cold_matvec_s on both chain-24 workloads"),
    PerLayer("distributed.produce_s", _S, "lower", "distributed", "",
             "cold_matvec_s on both chain-24 workloads"),
    PerLayer("distributed.consume_s", _S, "lower", "distributed", "",
             "cold_matvec_s on both chain-24 workloads"),
    PerLayer("distributed.pipeline_overhead_s", _S, "lower", "distributed", "",
             "cold_matvec_s on chain24_pc_threads"),
    PerLayer("distributed.pipeline_overhead_warm_s", _S, "lower",
             "distributed", "",
             "warm_matvec_s, solve_s on chain24_pc_threads"),
    PerLayer("distributed.batched_cold_s", _S, "lower", "sim", "",
             "the batched schedule over the same produce/consume core"),
    PerLayer("distributed.batched_warm_s", _S, "lower", "sim", "", "same"),
    PerLayer("distributed.naive_cold_s", _S, "lower", "sim", "",
             "the naive schedule over the same produce/consume core"),
    PerLayer("distributed.naive_warm_s", _S, "lower", "sim", "", "same"),
    PerLayer("distributed.messages", _N, "lower", "distributed", "always",
             "cold_matvec_s, warm_matvec_s"),
    PerLayer("distributed.bytes_sent", "B", "lower", "distributed", "always",
             "cold_matvec_s, warm_matvec_s"),
    PerLayer("distributed.imbalance", _R, "lower", "distributed", "always",
             "cold_matvec_s (slowest locale)"),
    PerLayer("distributed.dot_s", _S, "lower", "distributed", "", "solve_s"),
    PerLayer("distributed.axpy_s", _S, "lower", "distributed", "", "solve_s"),
    # -- runtime ------------------------------------------------------------
    PerLayer("runtime.flag_roundtrip_us", _US, "lower", "distributed", "",
             "warm_matvec_s on chain24_pc_threads"),
    PerLayer("runtime.queue_roundtrip_us", _US, "lower", "distributed", "",
             "warm_matvec_s on chain24_pc_threads"),
    PerLayer("runtime.lock_roundtrip_us", _US, "lower", "distributed", "",
             "warm_matvec_s on chain24_pc_threads"),
    PerLayer("runtime.spawn_join_us", _US, "lower", "distributed", "",
             "warm_matvec_s on chain24_pc_threads"),
    PerLayer("runtime.sim_seconds_cold_matvec", _S, "lower", "sim", "always",
             "simulated seconds of one cold matvec (a count, not a speed)"),
    PerLayer("runtime.threads_vs_one_locale", _R, "higher", "threads", "",
             "warm_matvec_s on chain24_pc_threads (1-locale / 2-locale)"),
    # -- linalg -------------------------------------------------------------
    PerLayer("linalg.iterations", _N, "lower", "all", "seed",
             "solve_s, time_to_solution_s"),
    PerLayer("linalg.matvec_share", _R, "lower", "all", "",
             "where solve_s goes: high on threads, low on serial"),
    PerLayer("linalg.reorth_s", _S, "lower", "all", "",
             "solve_s; dominant on the serial workloads"),
    PerLayer("linalg.self_s", _S, "lower", "all", "", "solve_s"),
    # -- config -------------------------------------------------------------
    PerLayer("config.load_s", _S, "lower", "all", "", "time_to_solution_s"),
    PerLayer("config.overhead_s", _S, "lower", "all", "",
             "time_to_solution_s"),
    # -- telemetry ----------------------------------------------------------
    PerLayer("telemetry.enabled_overhead_ratio", _R, "lower", "all", "",
             "nothing with telemetry off; the price of repro's own --trace"),
    # -- the instrument itself ----------------------------------------------
    PerLayer("bench.layer_closure_ratio", _R, "higher", "all", "",
             "should stay in 0.85-1.15 on the serial workloads"),
    PerLayer("bench.trace_overhead_ratio", _R, "lower", "all", "",
             "traced / untraced solve_s"),
)

E2E_BY_NAME = {m.name: m for m in END_TO_END}
LAYER_BY_NAME = {m.name: m for m in PER_LAYER}


def layer_rows_for(backend: str | None) -> list[PerLayer]:
    """The per-layer rows that exist on a workload with this backend."""
    scopes = {"all"}
    if backend is not None:
        scopes |= {"distributed", backend}
    return [m for m in PER_LAYER if m.scope in scopes]


def unit_of(name: str) -> str:
    metric = E2E_BY_NAME.get(name) or LAYER_BY_NAME[name]
    return metric.unit
