"""Microbenchmarks of the core Python kernels.

These measure the real NumPy throughput of the building blocks (the
analogue of the paper's Halide kernel performance): basis enumeration,
``state_info``, ``getManyRows``, the ``stateToIndex`` lookup, the
destination partition, and the mixing hash — plus comparative timings of
the fused ``state_info`` kernel against the element-by-element reference
and against its stabilizer-free mode,
of the early-exit representative filter against the ``state_info``
predicate, of the ranker's slot probe against the binary search under it,
of the cold serial matvec at the cache-sized default batch
against 16 Ki-source batches, and of plan-cached matvec replay against the
cold path, written as JSON artifacts to ``benchmarks/results/`` so the
speedups can be diffed across PRs.

Set ``BENCH_SMOKE=1`` to run at a reduced problem size (16 sites instead
of 24) with relaxed speedup thresholds — used by the CI smoke step, which
still holds the input sizes and the plan's hit and miss counts exactly.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import repro
from conftest import write_result
from repro import telemetry
from repro.basis import SymmetricBasis
from repro.bits import states_with_weight
from repro.distributed import hash64, locale_of
from repro.distributed.convert import stable_partition
from repro.operators import compile_expression
from repro.symmetry import (
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    spin_inversion,
)

# The element-by-element reference kernel is the tests' oracle.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from reference_kernels import state_info_reference  # noqa: E402

SMOKE = bool(int(os.environ.get("BENCH_SMOKE", "0")))
N_SITES = 16 if SMOKE else 24
WEIGHT = N_SITES // 2
#: Input sizes, held exactly: the states of the ``batch`` fixture (every
#: 13th of the 24-site sector, all of the 16-site one) and the dimensions
#: of the symmetric sectors measured below.
BATCH_STATES = 12_870 if SMOKE else 208_012
DIMS = {"chain16": 257, "chain24": 28_968, "square4x4": 441, "square4x6": 56_664}


def best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs (seconds)."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def best_of_pair(fn_a, fn_b, repeats: int = 11) -> tuple[float, float]:
    """:func:`best_of` of two functions timed in turn, the order alternating
    per repeat, so that host load drifting over the runs weighs on both
    alike and leaves their ratio alone."""
    best = [math.inf, math.inf]
    for r in range(repeats):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            t0 = perf_counter()
            (fn_a, fn_b)[i]()
            best[i] = min(best[i], perf_counter() - t0)
    return best[0], best[1]


@pytest.fixture(scope="module")
def batch():
    states = states_with_weight(N_SITES, WEIGHT)
    batch = states[:: max(states.size // 200_000, 1)]
    assert batch.size == BATCH_STATES
    return batch


@pytest.fixture(scope="module")
def group():
    return chain_symmetries(N_SITES, momentum=0, parity=0, inversion=0)


def torus_with_flip(nx: int, ny: int) -> SymmetryGroup:
    return SymmetryGroup.from_generators(
        [
            rectangle_translation(nx, ny, 0, 0),
            rectangle_translation(nx, ny, 1, 0),
            spin_inversion(nx * ny, 0),
        ]
    )


def test_states_with_weight(benchmark):
    out = benchmark(states_with_weight, N_SITES, WEIGHT)
    assert out.size == math.comb(N_SITES, WEIGHT)


def test_hash64_throughput(benchmark, batch):
    out = benchmark(hash64, batch)
    assert out.size == batch.size


def test_locale_of_throughput(benchmark, batch):
    out = benchmark(locale_of, batch, 64)
    assert out.max() < 64


def test_state_info_throughput(benchmark, group, batch):
    sample = batch[:20_000]
    rep, phase, stab = benchmark(group.state_info, sample)
    assert rep.size == sample.size


def test_get_many_rows_throughput(benchmark, group):
    basis = SymmetricBasis(group, hamming_weight=WEIGHT)
    compiled = compile_expression(repro.heisenberg_chain(N_SITES), N_SITES)
    alphas = basis.states[:4096]
    scale = basis.source_scale[:4096]
    from repro.operators import get_many_rows

    sources, members, amps = benchmark(
        get_many_rows, compiled, basis, alphas, scale
    )
    assert sources.size > 0


def test_state_to_index_throughput(benchmark, group):
    basis = SymmetricBasis(group, hamming_weight=WEIGHT)
    rng = np.random.default_rng(0)
    queries = basis.states[rng.integers(0, basis.dim, size=100_000)]
    idx = benchmark(basis.index, queries)
    assert np.array_equal(basis.states[idx], queries)


def test_partition_by_destination_throughput(benchmark, batch):
    dests = locale_of(batch, 32)
    out, counts = benchmark(stable_partition, batch, dests, 32)
    assert counts.sum() == batch.size


def test_serial_matvec_throughput(benchmark, group):
    basis = SymmetricBasis(group, hamming_weight=WEIGHT)
    op = repro.Operator(repro.heisenberg_chain(N_SITES), basis)
    x = np.random.default_rng(1).standard_normal(basis.dim)
    y = benchmark(op.matvec, x)
    assert y.shape == x.shape


# --------------------------------------------------------------------------
# Comparative micro-benchmarks (JSON artifacts in benchmarks/results/).
# --------------------------------------------------------------------------


def test_state_info_fused_speedup(group, batch):
    """Fused kernel vs the faithful element-by-element pre-PR reference.

    The acceptance bar — at least 3x for ``|G| >= 8`` — is asserted on the
    full dihedral-with-inversion chain group (``|G| = 4 * N_SITES``); the
    smoke run keeps the artifact but only requires the fused path to win.
    """
    sample = batch[: 5_000 if SMOKE else 20_000]
    group.state_info(sample)  # warm scratch buffers before timing
    t_ref = best_of(lambda: state_info_reference(group, sample), repeats=3)
    t_fused = best_of(lambda: group.state_info(sample), repeats=5)
    speedup = t_ref / t_fused
    write_result(
        "kernels_state_info_speedup",
        f"state_info, chain {N_SITES} sites, |G|={len(group)}, "
        f"{sample.size} states\n"
        f"  reference (per-element masks): {1e3 * t_ref:9.3f} ms\n"
        f"  fused kernel:                  {1e3 * t_fused:9.3f} ms\n"
        f"  speedup:                       {speedup:9.2f}x\n",
        data={
            "n_sites": N_SITES,
            "group_order": len(group),
            "n_states": int(sample.size),
            "reference_seconds": t_ref,
            "fused_seconds": t_fused,
            "speedup": speedup,
            "smoke": SMOKE,
        },
    )
    assert speedup >= (1.0 if SMOKE else 3.0)


def test_stabilizer_free_kernel_speedup(group):
    """``orbit_info`` against ``state_info`` on the raw states of one
    default batch of the cold serial matvec.

    The serial product reads each destination's norm from the basis, so
    its kernel finds representative and phase only and tests a fixed
    point on the elements whose character is not 1: none in this sector,
    3 passes per permutation with a flip (a shift, a ``minimum`` and a
    ``maximum``) instead of 6 and two ``count_nonzero``.  Both return the
    same representatives and phases, and ``valid`` is ``stab > STAB_TOL``.
    The bounds sit under the lowest of repeated readings on a 2-vCPU VM
    (2.78x of 24 smoke runs, 1.85x of 20 at 24 sites); being a ratio to
    ``state_info``, they move with any change that makes that faster.
    """
    from repro.symmetry.kernels import STAB_TOL

    basis = SymmetricBasis(group, hamming_weight=WEIGHT)
    op = repro.Operator(repro.heisenberg_chain(N_SITES), basis, plan=False)
    _, raw, _ = op.compiled.apply_off_diag(basis.states[: op.batch_size])
    kernel = group.kernel
    rep, phase, stab = kernel.state_info(raw)  # also warms the buffers
    for got, expected in zip(kernel.orbit_info(raw), (rep, phase, stab > STAB_TOL)):
        np.testing.assert_array_equal(got, expected)
    t_info, t_free = best_of_pair(
        lambda: kernel.state_info(raw), lambda: kernel.orbit_info(raw)
    )
    speedup = t_info / t_free
    write_result(
        "kernels_stabilizer_free",
        f"chain {N_SITES} sites, |G|={len(group)}, {raw.size} raw states\n"
        f"  state_info:  {1e3 * t_info:8.3f} ms\n"
        f"  orbit_info:  {1e3 * t_free:8.3f} ms\n"
        f"  speedup:     {speedup:8.2f}x\n",
        data={
            "n_sites": N_SITES,
            "group_order": len(group),
            "n_states": int(raw.size),
            "state_info_seconds": t_info,
            "orbit_info_seconds": t_free,
            "speedup": speedup,
            "smoke": SMOKE,
        },
    )
    assert speedup >= (2.5 if SMOKE else 1.6)


def test_representative_filter_speedup(group):
    """Early-exit membership filter vs the full-group-loop predicate.

    ``SymmetricBasis.build`` and ``enumerate_states`` used to derive
    membership from ``state_info`` — all ``|G|`` elements on every
    candidate.  They now run ``minima``, which drops a candidate at the
    first element that maps it below itself, on each batch, and then one
    ``in_sector`` (stabilizer sums) pass over all the minima, which drops
    those outside the sector.  Both sides filter every Sz = 0 candidate in the
    65536-state batches those callers use, on the chain group (rotation
    strategies) and on a torus group (mask/shift networks), timed in turn
    with the order alternating (:func:`best_of_pair`).
    """
    from repro.symmetry.kernels import STAB_TOL

    nx, ny = (4, 4) if SMOKE else (4, 6)
    torus = torus_with_flip(nx, ny)
    candidates = states_with_weight(N_SITES, WEIGHT)
    batches = [
        candidates[start : start + (1 << 16)]
        for start in range(0, candidates.size, 1 << 16)
    ]

    def full_loop(g):
        kept = []
        for chunk in batches:
            rep, _, stab = g.state_info(chunk)
            kept.append(chunk[(rep == chunk) & (stab > STAB_TOL)])
        return np.concatenate(kept)

    def early_exit(g):
        minima = np.concatenate([g.kernel.minima(c) for c in batches])
        return minima[g.kernel.in_sector(minima)[0]]

    rows, lines = {}, []
    for label, g in ((f"chain{N_SITES}", group), (f"square{nx}x{ny}", torus)):
        kept = early_exit(g)  # also warms the scratch buffers
        np.testing.assert_array_equal(kept, full_loop(g))
        t_full, t_early = best_of_pair(
            lambda: full_loop(g), lambda: early_exit(g), repeats=11
        )
        rows[label] = {
            "group_order": len(g),
            "n_candidates": int(candidates.size),
            "n_kept": int(kept.size),
            "full_loop_seconds": t_full,
            "early_exit_seconds": t_early,
            "speedup": t_full / t_early,
        }
        lines.append(
            f"  {label:<10} |G|={len(g):<3} kept {kept.size:>6} of "
            f"{candidates.size}: {1e3 * t_full:9.2f} ms -> "
            f"{1e3 * t_early:8.2f} ms  ({t_full / t_early:5.2f}x)\n"
        )
    write_result(
        "kernels_representative_filter",
        "representative filter, state_info predicate -> minima + one sums pass\n"
        + "".join(lines),
        data={**rows, "smoke": SMOKE},
    )
    for label, row in rows.items():
        assert row["speedup"] >= (1.5 if SMOKE else 3.0), (label, row)


def test_torus_kernel_network_bases():
    """A 4x6 torus permutes three batches per ``state_info`` call — one per
    x-shift — and rotates the rest of its 24 permutations out of them; a
    dihedral chain permutes one (the reflection that fixes site 0)."""
    assert torus_with_flip(4, 6).kernel.strategy_counts == {
        "identity": 1,
        "rotation": 23,
        "network": 3,
    }
    assert chain_symmetries(24, 0, 0, 0).kernel.strategy_counts["network"] == 1


def test_cold_matvec_batch_fits_cache(group):
    """Cold serial matvec: the default batch against 16 Ki-source batches.

    ``Operator(batch_size=None)`` sizes a batch so that the raw states it
    generates (~34 k) keep one round of apply_off_diag -> state_info ->
    project -> index -> scatter-add in the second-level cache; 16 Ki
    sources generate 205-410 k states, and every NumPy pass streams them
    from DRAM.  The smoke run's 16-site bases fit one batch either way, so
    it only compares the two results and writes the artifact.
    """
    nx, ny = (4, 4) if SMOKE else (4, 6)
    problems = (
        (f"chain{N_SITES}", group, repro.heisenberg_chain(N_SITES)),
        (f"square{nx}x{ny}", torus_with_flip(nx, ny), repro.heisenberg_square(nx, ny)),
    )
    rows, lines = {}, []
    for label, g, expression in problems:
        basis = SymmetricBasis(g, hamming_weight=WEIGHT)
        assert basis.dim == DIMS[label]
        tiled = repro.Operator(expression, basis, plan=False)
        wide = repro.Operator(expression, basis, batch_size=1 << 14, plan=False)
        x = np.random.default_rng(1).standard_normal(basis.dim)
        np.testing.assert_allclose(
            tiled.matvec(x), wide.matvec(x), rtol=1e-12, atol=1e-12
        )
        t_tiled = best_of(lambda: tiled.matvec(x), repeats=5)
        t_wide = best_of(lambda: wide.matvec(x), repeats=5)
        rows[label] = {
            "dim": int(basis.dim),
            "default_batch": tiled.batch_size,
            "default_seconds": t_tiled,
            "batch_16384_seconds": t_wide,
            "ratio": t_tiled / t_wide,
        }
        lines.append(
            f"  {label:<10} dim {basis.dim:>6}: batch 16384 "
            f"{1e3 * t_wide:8.2f} ms -> batch {tiled.batch_size:>5} "
            f"{1e3 * t_tiled:8.2f} ms  ({t_tiled / t_wide:4.2f}x)\n"
        )
    write_result(
        "kernels_cold_batch",
        "cold serial matvec, 16 Ki-source batches -> cache-sized default\n"
        + "".join(lines),
        data={**rows, "smoke": SMOKE},
    )
    if not SMOKE:
        for label, row in rows.items():
            assert row["ratio"] <= 0.9, (label, row)


def test_state_to_index_vs_searchsorted(group):
    """``SortedRanker``'s slot probe against the binary search under it.

    100 k queries drawn uniformly from the basis, every one present: the
    baseline is ``np.searchsorted`` plus the membership test every lookup
    needs (an absent state must raise), which is what ``basis.index`` ran
    before the table.  Random queries mispredict most of the search's
    16 levels; the ~17 % of them that collide in the table still pay it.
    """
    nx, ny = (4, 4) if SMOKE else (4, 6)
    problems = (
        (f"chain{N_SITES}", group),
        (f"square{nx}x{ny}", torus_with_flip(nx, ny)),
    )
    rows, lines = {}, []
    for label, g in problems:
        basis = SymmetricBasis(g, hamming_weight=WEIGHT)
        states = basis.states
        rng = np.random.default_rng(0)
        queries = states[rng.integers(0, basis.dim, size=100_000)]

        def searched():
            idx = np.searchsorted(states, queries)
            absent = (idx >= states.size) | (
                states[np.minimum(idx, states.size - 1)] != queries
            )
            assert not np.any(absent)
            return idx

        np.testing.assert_array_equal(basis.index(queries), searched())
        t_search = best_of(searched)
        t_probe = best_of(lambda: basis.index(queries))
        rows[label] = {
            "dim": int(basis.dim),
            "n_queries": int(queries.size),
            "searchsorted_ns_per_query": 1e9 * t_search / queries.size,
            "ranker_ns_per_query": 1e9 * t_probe / queries.size,
            "speedup": t_search / t_probe,
        }
        lines.append(
            f"  {label:<10} dim {basis.dim:>6}: searchsorted "
            f"{rows[label]['searchsorted_ns_per_query']:6.1f} ns/query -> "
            f"slot probe {rows[label]['ranker_ns_per_query']:6.1f} ns/query  "
            f"({t_search / t_probe:4.2f}x)\n"
        )
    write_result(
        "kernels_state_to_index",
        f"stateToIndex, {queries.size} random present queries\n" + "".join(lines),
        data={**rows, "smoke": SMOKE},
    )
    for label, row in rows.items():
        assert row["speedup"] >= (1.0 if SMOKE else 1.5), (label, row)


def test_permutation_network_cold_vs_warm(batch):
    """Cached permutation networks vs recompiling masks every call."""
    from repro.bits.permutations import (
        apply_permutation_to_states,
        compile_permutation,
    )

    rng = np.random.default_rng(3)
    perm = rng.permutation(N_SITES)
    sample = batch[:100_000]
    out = np.empty_like(sample)
    scratch = np.empty_like(sample)
    network = compile_permutation(perm)
    network.apply(sample, out=out, scratch=scratch)  # size buffers
    t_cold = best_of(lambda: apply_permutation_to_states(perm, sample))
    t_warm = best_of(
        lambda: network.apply(sample, out=out, scratch=scratch)
    )
    np.testing.assert_array_equal(
        out, apply_permutation_to_states(perm, sample)
    )
    write_result(
        "kernels_permutation_cold_vs_warm",
        f"permutation apply, {N_SITES} sites, {sample.size} states\n"
        f"  cold (recompile masks): {1e6 * t_cold:9.1f} us\n"
        f"  warm (cached network):  {1e6 * t_warm:9.1f} us\n"
        f"  speedup:                {t_cold / t_warm:9.2f}x\n",
        data={
            "n_sites": N_SITES,
            "n_states": int(sample.size),
            "cold_seconds": t_cold,
            "warm_seconds": t_warm,
            "speedup": t_cold / t_warm,
            "smoke": SMOKE,
        },
    )
    assert t_warm <= t_cold


def test_radix_partition_vs_argsort(batch):
    """The linear-time counting-sort partition vs the old stable argsort.

    ``produce_chunk`` used ``np.argsort(dests, kind="stable")`` — an
    8-byte-key radix sort — where an O(n + n_locales) counting scatter
    suffices because the keys are small locale indices.  Both orders are
    stable, hence identical; the counting scatter must not lose.
    """
    from repro.distributed.convert import counting_sort_order

    n_locales = 32
    dests = locale_of(batch, n_locales)

    def argsort_order():
        return np.argsort(dests, kind="stable")

    counting_sort_order(dests, n_locales)  # warm
    t_argsort = best_of(argsort_order, repeats=5)
    t_counting = best_of(
        lambda: counting_sort_order(dests, n_locales), repeats=5
    )
    order, starts = counting_sort_order(dests, n_locales)
    np.testing.assert_array_equal(order, argsort_order())
    speedup = t_argsort / t_counting
    write_result(
        "kernels_radix_partition",
        f"destination partition, {batch.size} elements, "
        f"{n_locales} locales\n"
        f"  argsort(kind='stable'):  {1e3 * t_argsort:9.3f} ms\n"
        f"  counting-sort scatter:   {1e3 * t_counting:9.3f} ms\n"
        f"  speedup:                 {speedup:9.2f}x\n",
        data={
            "n_elements": int(batch.size),
            "n_locales": n_locales,
            "argsort_seconds": t_argsort,
            "counting_seconds": t_counting,
            "speedup": speedup,
            "smoke": SMOKE,
        },
    )
    # Identical permutations, and the linear-time path must at least tie
    # (it wins by 3-5x at realistic locale counts; leave slack for CI
    # timer noise).
    assert speedup >= 0.8


def test_plan_replay_speedup(group):
    """Warm (plan-replay) matvec vs cold, and the plan hit-rate.

    The hit and miss counts are the hard CI gate, exactly: one lookup of
    the matrix per product, which the recording pass and the first warm
    matvec (it folds the batches into the matrix) miss and the next three
    hit.
    """
    basis = SymmetricBasis(group, hamming_weight=WEIGHT)
    assert basis.dim == DIMS[f"chain{N_SITES}"]
    op = repro.Operator(repro.heisenberg_chain(N_SITES), basis)
    x = np.random.default_rng(1).standard_normal(basis.dim)

    tele = telemetry.Telemetry.enabled(trace=False)
    with telemetry.use(tele):
        t0 = perf_counter()
        y_cold = op.matvec(x)
        t_cold = perf_counter() - t0
        t_warm = best_of(lambda: op.matvec(x), repeats=3)
        y_warm = op.matvec(x)
    misses = tele.metrics.counter_total("plan.misses")
    hits = tele.metrics.counter_total("plan.hits")
    hit_rate = hits / max(hits + misses, 1)
    np.testing.assert_allclose(y_warm, y_cold, rtol=1e-12)
    speedup = t_cold / t_warm
    write_result(
        "kernels_plan_replay_speedup",
        f"matvec plan replay, chain {N_SITES} sites, dim={basis.dim}\n"
        f"  cold (getManyRows + stateToIndex): {1e3 * t_cold:9.3f} ms\n"
        f"  warm (plan replay):                {1e3 * t_warm:9.3f} ms\n"
        f"  speedup:                           {speedup:9.2f}x\n"
        f"  plan hits={int(hits)} misses={int(misses)} "
        f"hit-rate={hit_rate:.3f}\n",
        data={
            "n_sites": N_SITES,
            "dim": int(basis.dim),
            "cold_seconds": t_cold,
            "warm_seconds": t_warm,
            "speedup": speedup,
            "plan_hits": int(hits),
            "plan_misses": int(misses),
            "hit_rate": hit_rate,
            "smoke": SMOKE,
        },
    )
    assert (misses, hits) == (2, 3), (misses, hits)
    assert speedup >= (1.0 if SMOKE else 2.0)
