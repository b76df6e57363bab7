"""The early-exit representative filter against the full group loop.

:meth:`GroupKernel.minima` drops a candidate at the first element that
maps it below itself, where ``state_info`` runs all ``|G|``, and
:meth:`GroupKernel.in_sector` then takes the stabilizer sums of the
minima.  These tests pin the two, run in that order, to the predicate they replaced — ``(rep == s) & (stab > tol)`` computed
from ``state_info_reference`` — on random groups, sectors and batches,
pin ``SymmetricBasis.build`` (which stops at the flip ceiling)
bit-for-bit, and pin the batched
``enumerate_states`` (parts and every simulated cost) to a per-chunk
reference enumeration written out below.
"""

from functools import partial
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.basis import SpinBasis, SymmetricBasis
from repro.bits import popcount, states_with_weight
from repro.bits.ops import as_states, rotate_left
from repro.distributed import enumerate_states, locale_of
from repro.distributed.convert import stable_partition
from repro.errors import InvalidSectorError
from repro.runtime import Cluster, laptop_machine
from repro.runtime.clock import BSPTimer
from repro.symmetry import (
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    spin_inversion,
)
from repro.symmetry.kernels import STAB_TOL
from reference_kernels import state_info_reference


def old_predicate(group: SymmetryGroup, states, info=None):
    """``(positions, stab)`` the way every caller derived them before."""
    s = as_states(states).ravel()
    rep, _, stab = (info or group.state_info)(s)
    mask = (rep == s) & (stab > STAB_TOL)
    return np.flatnonzero(mask), stab[mask]


def representatives(group: SymmetryGroup, states):
    """``(positions, stab)`` of the surviving representatives in the
    flattened batch: the filter, then the sums pass over what it kept
    (both in batch order, so the minima are the batch at their
    positions)."""
    s = as_states(states).ravel()
    minima = group.kernel.minima(s)
    keep, stab = group.kernel.in_sector(minima)
    return np.flatnonzero(np.isin(s, minima))[keep], stab


def assert_filter_matches(group: SymmetryGroup, states) -> None:
    positions, stab = representatives(group, states)
    assert positions.dtype.kind == "i" and stab.dtype == np.float64
    ref_positions, ref_stab = old_predicate(
        group, states, partial(state_info_reference, group)
    )
    np.testing.assert_array_equal(positions, ref_positions)
    # the reference sums the characters in another order
    np.testing.assert_allclose(stab, ref_stab, rtol=0, atol=1e-12)
    # ... and the fused kernel in this one: bit for bit (the kernel itself:
    # the group's ``state_info`` refuses the ``above_mask`` states)
    fused_stab = group.kernel.state_info(np.ravel(states))[2]
    np.testing.assert_array_equal(stab, fused_stab[positions])


#: (size, seed, layout) of a batch; :func:`realise` makes the states
batches = st.tuples(
    st.integers(0, 700),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["plain", "scalar", "strided", "2d", "above_mask"]),
)


def realise(group: SymmetryGroup, batch) -> np.ndarray:
    """Random states, half of them replaced by their orbit minima (random
    states are almost never minima), in one of the shapes callers pass."""
    size, seed, layout = batch
    n = group.n_sites
    rng = np.random.default_rng(seed)
    states = rng.integers(0, 2**n, size=size, dtype=np.uint64)
    minima = state_info_reference(group, states)[0]
    pick = rng.random(size) < 0.5
    states[pick] = minima[pick]  # guarantees survivors and duplicates
    if layout == "scalar":
        return states[0] if size else np.uint64(0)
    if layout == "strided":
        return np.repeat(states, 2)[::2][::-1]
    if layout == "2d":
        return np.stack([states, states[::-1]])
    if layout == "above_mask" and n < 63:
        states[rng.random(size) < 0.3] |= np.uint64(1) << np.uint64(n)
    return states


chain_cases = st.integers(4, 20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(st.none(), st.integers(0, n - 1)),  # momentum
        st.one_of(st.none(), st.integers(0, 1)),  # parity
        st.one_of(st.none(), st.integers(0, 1)),  # inversion
        batches,
    )
)


class TestAgainstFullGroupLoop:
    @settings(max_examples=60, deadline=None)
    @given(case=chain_cases)
    def test_random_chain_sectors(self, case):
        n, momentum, parity, inversion, batch = case
        try:
            group = (
                SymmetryGroup.trivial(n)
                if (momentum, parity, inversion) == (None, None, None)
                else chain_symmetries(n, momentum, parity, inversion)
            )
        except InvalidSectorError:
            return  # parity/inversion only combine with momentum 0 or n/2
        assert_filter_matches(group, realise(group, batch))

    @settings(max_examples=25, deadline=None)
    @given(
        nx=st.integers(2, 5),
        ny=st.integers(2, 5),
        kx=st.integers(0, 4),
        ky=st.integers(0, 4),
        batch=batches,
    )
    def test_rectangle_translations(self, nx, ny, kx, ky, batch):
        group = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, 0, sector=kx % nx),
                rectangle_translation(nx, ny, 1, sector=ky % ny),
            ]
        )
        assert_filter_matches(group, realise(group, batch))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(1, 20), sector=st.integers(0, 1), batch=batches)
    def test_flip_only_group(self, n, sector, batch):
        group = SymmetryGroup.from_generators([spin_inversion(n, sector)])
        assert_filter_matches(group, realise(group, batch))

    def test_sector_that_annihilates_whole_orbits(self):
        # momentum pi kills every translation-invariant state, and the
        # odd-inversion sector every state that equals its own flip image
        group = chain_symmetries(8, 4, None, 1)
        states = np.arange(256, dtype=np.uint64)
        positions, _ = representatives(group, states)
        minima = state_info_reference(group, states)[0]
        assert positions.size < np.count_nonzero(minima == states)
        assert_filter_matches(group, states)

    def test_batch_that_crosses_every_cut(self):
        """All weight-10 states of chain-20: the batch shrinks from 184756
        to 2518 through many cuts, in both real and complex sectors."""
        states = states_with_weight(20, 10)
        for momentum, rest in ((0, (0, 0)), (3, (None, None))):
            group = chain_symmetries(20, momentum, *rest)
            positions, stab = representatives(group, states)
            expected, expected_stab = old_predicate(group, states)
            np.testing.assert_array_equal(positions, expected)
            np.testing.assert_array_equal(stab, expected_stab)

    def test_cuts_inside_a_network_base(self):
        """All weight-8 states of the 4x4 torus with spin flip: three
        network bases of four rotations each, so the 12870-state batch is
        compacted while a permuted base batch is still being rotated."""
        group = square_group(4, 4)
        assert group.kernel.strategy_counts["network"] == 3
        states = states_with_weight(16, 8)
        positions, stab = representatives(group, states)
        expected, expected_stab = old_predicate(group, states)
        assert 0 < positions.size < states.size // 8
        np.testing.assert_array_equal(positions, expected)
        np.testing.assert_array_equal(stab, expected_stab)

    @pytest.mark.parametrize("torus", [False, True], ids=["chain", "torus"])
    def test_batch_that_dies_early(self, torus):
        """600 states that are not their orbit's minimum die within the
        first few elements and end the loop there, alone and with three
        representatives among them: the same ``(positions, stab)`` as one
        state per call."""
        group = square_group(4, 4) if torus else chain_symmetries(20, 0, 0, 0)
        candidates = np.random.default_rng(5).integers(
            0, 2**group.n_sites, size=20_000, dtype=np.uint64
        )
        rep, _, stab = group.state_info(candidates)
        dying = candidates[rep != candidates][:600]
        kept = candidates[(rep == candidates) & (stab > STAB_TOL)][:3]
        mixed = np.insert(dying, [0, 300, 600], kept)
        for batch in (dying, mixed):
            positions, sums = representatives(group, batch)
            singles = [representatives(group, state[None]) for state in batch]
            alone = [i for i, (at, _) in enumerate(singles) if at.size]
            np.testing.assert_array_equal(positions, alone)
            np.testing.assert_array_equal(
                sums, np.concatenate([np.zeros(0)] + [s for _, s in singles])
            )
        assert positions.tolist() == [0, 301, 602]


def random_states(n: int, size: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**n, size=size, dtype=np.uint64)


def square_group_with(nx: int, ny: int, momentum, inversion) -> SymmetryGroup:
    generators = [
        rectangle_translation(nx, ny, 0, momentum[0]),
        rectangle_translation(nx, ny, 1, momentum[1]),
    ]
    if inversion is not None:
        generators.append(spin_inversion(nx * ny, inversion))
    return SymmetryGroup.from_generators(generators)


def periodic_states(n: int, periods, widths) -> np.ndarray:
    """``width`` set bits repeated every ``period`` sites, and each of
    those rotated by 7 sites and flipped: states with a non-trivial
    stabilizer, whose sums vanish in some sectors."""
    periodic = np.array(
        [
            sum((1 << width) - 1 << start for start in range(0, n, period))
            for period, width in zip(periods, widths)
        ],
        dtype=np.uint64,
    )
    return np.concatenate(
        [periodic, rotate_left(periodic, 7, n), periodic ^ np.uint64(2**n - 1)]
    )


def reference_minima(group: SymmetryGroup, states) -> np.ndarray:
    """The states inside the lattice that are their orbit's minimum, in
    batch order, from ``state_info_reference``."""
    s = as_states(states).ravel()
    inside = s <= np.uint64(2**group.n_sites - 1)
    rep = np.zeros_like(s)
    rep[inside] = state_info_reference(group, s[inside])[0]
    return s[inside & (rep == s)]


class TestMinima:
    """``GroupKernel.minima`` decides minimality only; ``in_sector``
    then drops the minima whose sum vanishes."""

    @pytest.mark.parametrize(
        "n, sector, periods, widths",
        [
            (33, (5, None, 1), (3, 11), (1, 4)),
            (33, (0, 1, None), (3, 11), (2, 5)),
            (60, (7, None, 1), (2, 4, 6, 10, 10, 20, 30), (1, 2, 1, 3, 5, 7, 11)),
            (60, (30, 1, 0), (3, 5, 10, 15, 30), (1, 2, 5, 4, 11)),
        ],
        ids=["33 k=5 z=1", "33 k=0 p=1", "60 k=7 z=1", "60 k=30 p=1 z=0"],
    )
    def test_wide_lattices_with_periodic_states(self, n, sector, periods, widths):
        """33 sites rotate with two shifts (no doubled word); 60 sites also
        keep their tags in a second array in ``state_info``.  Half of the
        random states are replaced by their minima, so both kinds meet
        every element; some periodic minima have a sum of 0 and leave
        between the filter and the sums pass.  Five set sites in every ten
        of 60 make a minimum that ``flip∘T^5`` fixes with all ones in the
        word's junk bits: the flip test must stay strict there."""
        group = chain_symmetries(n, *sector)
        assert not group.kernel._doubled
        assert group.kernel._packed == (n == 33)
        rng = np.random.default_rng(n)
        states = rng.integers(0, 2**n, size=600, dtype=np.uint64)
        states[::2] = state_info_reference(group, states[::2])[0]
        states = np.concatenate([states, periodic_states(n, periods, widths)])
        minima = group.kernel.minima(states)
        np.testing.assert_array_equal(minima, reference_minima(group, states))
        _, _, stab = state_info_reference(group, minima)
        assert np.any(np.abs(stab) < STAB_TOL), "a minimum outside the sector"
        assert np.any(stab > STAB_TOL)
        assert_filter_matches(group, states)

    @pytest.mark.parametrize(
        "group",
        [
            chain_symmetries(16, 3, None, None),
            chain_symmetries(16, 0, 0, 0),
            chain_symmetries(33, 2, None, 0),
            square_group_with(4, 4, (1, 2), 1),
        ],
        ids=["chain16 k=3", "chain16 z=0", "chain33 z=0", "torus (1,2) z=1"],
    )
    def test_bits_above_the_lattice(self, group):
        """A state with bits beyond ``n_sites`` is no minimum, even where
        its lattice part is one and where it is all the batch holds."""
        n = group.n_sites
        minima_states = np.unique(
            state_info_reference(group, random_states(n, 400, 7))[0]
        )
        for bit in (n, 63):
            above = minima_states | (np.uint64(1) << np.uint64(bit))
            assert group.kernel.minima(above).size == 0
            mixed = np.stack([minima_states, above], axis=1).ravel()
            np.testing.assert_array_equal(group.kernel.minima(mixed), minima_states)
            assert_filter_matches(group, mixed)

    @pytest.mark.parametrize("size", [255, 256, 4096])
    def test_batch_that_dies_after_one_element(self, size):
        """Every state with the top bit set dies at the pure spin flip's
        test (the ceiling, before the first element): the batch is cut to
        nothing after the first element (at 256 states and up) or carried
        dead to the end; one minimum among them survives."""
        group = chain_symmetries(16, 0, 0, 0)
        rng = np.random.default_rng(size)
        top_set = rng.integers(2**15, 2**16, size=size, dtype=np.uint64)
        assert group.kernel.minima(top_set).size == 0
        assert representatives(group, top_set)[0].size == 0
        minimum = np.uint64(0b0000000011111111)
        batch = np.insert(top_set, size // 2, minimum)
        np.testing.assert_array_equal(group.kernel.minima(batch), [minimum])
        assert_filter_matches(group, batch)
        assert group.kernel.minima(np.empty(0, dtype=np.uint64)).size == 0


class TestFlipCeiling:
    """A group that holds the pure spin flip has no minimum at or above
    ``2**(n-1)``, so ``SymmetricBasis.build`` stops generating there."""

    @pytest.mark.parametrize(
        "group, weight",
        [
            (chain_symmetries(14, 0, 0, 0), 7),
            (chain_symmetries(14, 7, None, 1), 7),
            (chain_symmetries(14, 3, None, None), 7),
            (chain_symmetries(12, 0, 1, None), None),
            (chain_symmetries(11, 0, None, 1), None),
            (square_group_with(4, 4, (0, 0), 0), 8),
            (square_group_with(4, 4, (1, 2), 1), 8),
            (square_group_with(4, 4, (2, 0), None), 8),
        ],
        ids=[
            "chain14 z=0", "chain14 k=7 z=1", "chain14 k=3", "chain12 p=1 all",
            "chain11 z=1 all", "torus z=0", "torus (1,2) z=1", "torus (2,0)",
        ],
    )
    def test_basis_equals_the_full_range_filter(self, group, weight, monkeypatch):
        n = group.n_sites
        flips = any(
            flip and perm.is_identity
            for perm, flip in zip(group.permutations, group.flips)
        )
        assert group.kernel.ceiling == 2 ** (n - 1 if flips else n)
        seen = []
        minima = group.kernel.minima
        monkeypatch.setattr(
            group.kernel, "minima", lambda chunk: seen.append(chunk[0]) or minima(chunk)
        )
        basis = SymmetricBasis(group, hamming_weight=weight)
        assert max(seen) < group.kernel.ceiling
        candidates = states_with_weight(n, weight)
        positions, stab = old_predicate(group, candidates)
        assert basis.states.tobytes() == candidates[positions].tobytes()
        assert basis.stabilizer_sums.tobytes() == stab.tobytes()


def square_group(nx: int, ny: int) -> SymmetryGroup:
    return square_group_with(nx, ny, (0, 0), 0)


class TestBasisBuild:
    @pytest.mark.parametrize(
        "group",
        [
            chain_symmetries(16, 0, 0, 0),
            chain_symmetries(20, 0, 0, 0),
            chain_symmetries(20, 3, None, None),
            square_group(4, 4),
        ],
        ids=["chain16", "chain20-k0", "chain20-k3", "square4x4"],
    )
    def test_bit_identical_to_old_predicate(self, group):
        n = group.n_sites
        basis = SymmetricBasis(group, hamming_weight=n // 2)
        candidates = states_with_weight(n, n // 2)
        positions, stab = old_predicate(group, candidates)
        assert basis.states.tobytes() == candidates[positions].tobytes()
        assert basis.stabilizer_sums.tobytes() == stab.tobytes()

    def test_check_keeps_shape_and_cheap_filters(self):
        """``in_space`` keeps the batch's shape and drops what lies past
        the lattice or off the weight; the filter and the sums pass over
        what it kept are the basis."""
        group = chain_symmetries(10, 0, 0, 0)
        basis = SymmetricBasis(group, hamming_weight=5)
        grid = np.arange(2048, dtype=np.uint64).reshape(32, 64)  # past 2**10
        mask = basis.in_space(grid)
        assert mask.shape == grid.shape
        np.testing.assert_array_equal(grid[mask], states_with_weight(10, 5))
        positions, stab = representatives(group, grid[mask])
        np.testing.assert_array_equal(grid[mask][positions], basis.states)
        np.testing.assert_array_equal(stab, basis.stabilizer_sums)
        assert basis.in_space(np.uint64(basis.states[3])).shape == ()
        assert basis.in_space(np.uint64(basis.states[3]))
        assert not basis.in_space(np.empty(0, dtype=np.uint64)).size
        assert group.kernel.minima(np.empty(0, dtype=np.uint64)).size == 0


# -- enumerate_states against a chunk-by-chunk enumeration --------------------


def per_chunk_enumeration(cluster, template, chunks_per_core, shortcut):
    """The Sec. 5.2 enumeration one simulated chunk at a time, predicate and
    cost ledger included: what ``enumerate_states`` did before it filtered
    its whole range in batches."""
    machine, n_locales = cluster.machine, cluster.n_locales
    n_sites, weight = template.n_sites, template.hamming_weight
    group = getattr(template, "group", None)
    timer = BSPTimer(machine, n_locales, name="enumeration")

    def member(states):
        mask = states <= np.uint64((1 << n_sites) - 1)
        if weight is not None:
            mask &= popcount(states) == np.uint64(weight)
        if group is not None:
            rep, _, stab = group.state_info(states)
            mask &= (rep == states) & (stab > STAB_TOL)
        return mask

    total = 1 << n_sites
    n_chunks = min(n_locales * machine.cores_per_locale * chunks_per_core, total)
    raw_chunk = -(-total // n_chunks)
    shortcut = shortcut and weight is not None
    if shortcut:
        sorted_candidates = states_with_weight(n_sites, weight)
    chunks = []
    for chunk_index in range(n_chunks):
        lo = chunk_index * raw_chunk
        hi = min(lo + raw_chunk, total)
        if lo >= hi:
            continue
        owner = chunk_index % n_locales
        if shortcut:
            a, b = np.searchsorted(sorted_candidates, np.array([lo, hi], np.uint64))
            candidates = sorted_candidates[a:b]
            weight_passing = candidates.size
        else:
            candidates = np.arange(lo, hi, dtype=np.uint64)
            weight_passing = (
                candidates.size
                if weight is None
                else int(np.count_nonzero(popcount(candidates) == np.uint64(weight)))
            )
        kept = candidates[member(candidates)]
        chunks.append((owner, kept))
        timer.add_compute(
            owner,
            machine.compute_time(machine.t_weight_check, hi - lo)
            + machine.compute_time(machine.t_rep_check, weight_passing)
            + machine.compute_time(machine.t_hash, kept.size),
        )
    timer.end_phase("filter")
    timer.end_phase("offsets")

    parts = [[] for _ in range(n_locales)]
    put_bytes = []
    for owner, kept in chunks:
        if kept.size == 0:
            continue
        partitioned, counts = stable_partition(
            kept, locale_of(kept, n_locales), n_locales
        )
        timer.add_compute(owner, machine.compute_time(machine.t_partition, kept.size))
        start = 0
        for dest, count in enumerate(counts.tolist()):
            if count:
                parts[dest].append(partitioned[start : start + count])
                timer.add_message(owner, dest, count * 8)
                put_bytes.append(count * 8)
                start += count
    timer.end_phase("distribute")
    parts = [
        np.concatenate(p) if p else np.empty(0, dtype=np.uint64) for p in parts
    ]
    if group is not None:
        for locale in range(n_locales):
            timer.add_compute(
                locale,
                machine.compute_time(
                    machine.t_rep_check, parts[locale].size * len(group)
                ),
            )
        timer.end_phase("norms")
    return parts, timer.report, put_bytes


class TestEnumeration:
    @pytest.mark.parametrize("n_locales", [1, 3, 4])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symm", "plain"])
    @pytest.mark.parametrize("shortcut", [True, False], ids=["shortcut", "raw"])
    def test_identical_to_per_chunk_reference(
        self, shortcut, symmetric, n_locales
    ):
        n, w = 14, 7
        template = (
            SymmetricBasis(chain_symmetries(n, 0, 0, 0), w, build=False)
            if symmetric
            else SpinBasis(n, hamming_weight=w)
        )
        cluster = Cluster(n_locales, laptop_machine(cores=2))
        basis, report = enumerate_states(
            cluster, template, chunks_per_core=7, use_weight_shortcut=shortcut
        )
        parts, expected, put_bytes = per_chunk_enumeration(
            cluster, template, 7, shortcut
        )
        for mine, theirs in zip(basis.parts, parts):
            assert mine.dtype == theirs.dtype == np.uint64
            np.testing.assert_array_equal(mine, theirs)
        assert report.elapsed == expected.elapsed
        assert report.phase_elapsed == expected.phase_elapsed
        assert report.ledger.phases == expected.ledger.phases
        for phase in expected.ledger.phases:
            np.testing.assert_array_equal(
                report.ledger.per_locale(phase), expected.ledger.per_locale(phase)
            )
        assert report.messages == expected.messages
        assert report.bytes_sent == expected.bytes_sent
        assert report.extras["mean_put_bytes"] == float(np.mean(put_bytes))
        sizes = [p.size for p in parts]
        assert report.extras["load_imbalance"] == max(sizes) / np.mean(sizes)

    def test_full_space_and_more_chunks_than_states(self):
        for template, cpc in ((SpinBasis(9), 3), (SpinBasis(2, 1), 25)):
            cluster = Cluster(3, laptop_machine(cores=2))
            basis, report = enumerate_states(cluster, template, cpc)
            parts, expected, _ = per_chunk_enumeration(cluster, template, cpc, False)
            for mine, theirs in zip(basis.parts, parts):
                np.testing.assert_array_equal(mine, theirs)
            assert report.elapsed == expected.elapsed
            assert report.messages == expected.messages

    def test_locating_200_chunk_spans_is_not_an_array_cast(self, monkeypatch):
        """``searchsorted(uint64_array, python_int)`` casts the whole array
        per call: 400 calls on these 705432 candidates cost 0.25 s."""
        spent = 0.0
        searchsorted = np.searchsorted

        def timed(*args, **kwargs):
            nonlocal spent
            t0 = perf_counter()
            try:
                return searchsorted(*args, **kwargs)
            finally:
                spent += perf_counter() - t0

        monkeypatch.setattr(np, "searchsorted", timed)
        cluster = Cluster(4, laptop_machine(cores=2))  # 4 * 2 * 25 chunks
        basis, _ = enumerate_states(
            cluster, SpinBasis(22, hamming_weight=11), use_weight_shortcut=True
        )
        assert basis.dim == 705432
        assert 0.0 < spent < 0.05
