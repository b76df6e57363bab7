"""Property tests: the fused ``state_info`` kernel matches the reference.

The fused :class:`~repro.symmetry.kernels.GroupKernel` reorders the group
loop (permutations grouped by base, each a rotation of its base's batch,
flip companions derived by XOR), so these tests pin the factorization and
the exact contract against
``state_info_reference`` (``reference_kernels.py``):

- representatives are *identical* (integer minimum, order-independent);
- stabilizer sums agree to float-summation tolerance;
- phases agree exactly on every state that survives the sector (for
  non-surviving states the phase is order-dependent and unused — any
  element reaching the minimum is a valid witness).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bits.ops import rotate_left
from repro.errors import InvalidSectorError
from repro.symmetry import (
    Permutation,
    Symmetry,
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    reflection,
    spin_inversion,
    translation,
)
from reference_kernels import state_info_reference

STAB_TOL = 1e-6


def random_states(n_sites: int, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**n_sites, size=size, dtype=np.uint64)


def assert_matches_reference(group: SymmetryGroup, states: np.ndarray) -> None:
    rep_ref, phase_ref, stab_ref = state_info_reference(group, states)
    rep, phase, stab = group.state_info(states)
    np.testing.assert_array_equal(rep, rep_ref)
    np.testing.assert_allclose(stab, stab_ref, atol=1e-12)
    surviving = stab > STAB_TOL
    np.testing.assert_allclose(
        np.asarray(phase, dtype=np.complex128)[surviving],
        phase_ref[surviving],
        atol=1e-12,
    )
    if group.is_real:
        assert phase.dtype == np.float64, "real sector must avoid complex phases"


chain_cases = st.integers(4, 20).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.one_of(st.none(), st.integers(0, n - 1)),  # momentum
        st.one_of(st.none(), st.integers(0, 1)),  # parity
        st.one_of(st.none(), st.integers(0, 1)),  # inversion
    )
)


class TestChainGroups:
    @settings(max_examples=40, deadline=None)
    @given(case=chain_cases, seed=st.integers(0, 2**32 - 1))
    def test_random_chain_sectors(self, case, seed):
        n, momentum, parity, inversion = case
        if momentum is None and parity is None and inversion is None:
            momentum = 0
        # Parity/inversion sectors only combine consistently with momentum
        # 0 or n/2; skip inconsistent sectors (group closure raises).
        try:
            group = chain_symmetries(n, momentum, parity, inversion)
        except Exception:
            return
        assert_matches_reference(group, random_states(n, 500, seed))

    def test_full_paper_group_large_batch(self):
        group = chain_symmetries(20, 0, 0, 0)
        assert_matches_reference(group, random_states(20, 5000, 7))

    def test_complex_momentum_sector(self):
        group = chain_symmetries(12, 3, None, None)
        assert not group.is_real
        assert_matches_reference(group, random_states(12, 2000, 11))


class TestRectangleGroups:
    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(2, 5),
        ny=st.integers(2, 5),
        kx=st.integers(0, 4),
        ky=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_2d_translations(self, nx, ny, kx, ky, seed):
        group = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, 0, sector=kx % nx),
                rectangle_translation(nx, ny, 1, sector=ky % ny),
            ]
        )
        assert len(group) == nx * ny
        assert_matches_reference(group, random_states(nx * ny, 500, seed))


class TestRandomPermutationGroups:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(3, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_generator_sector_zero(self, n, seed):
        """Groups closed from an arbitrary random permutation (trivial
        sector, so closure always succeeds) exercise the generic
        byte-gather strategy."""
        rng = np.random.default_rng(seed)
        perm = Permutation(rng.permutation(n))
        flip = bool(rng.integers(0, 2))
        group = SymmetryGroup.from_generators(
            [Symmetry(perm, sector=0, flip=flip)]
        )
        assert_matches_reference(group, random_states(n, 400, seed))

    def test_trivial_group(self):
        group = SymmetryGroup.trivial(10)
        states = random_states(10, 100, 3)
        rep, phase, stab = group.state_info(states)
        np.testing.assert_array_equal(rep, states)
        np.testing.assert_allclose(stab, 1.0)
        np.testing.assert_allclose(np.asarray(phase, dtype=np.complex128), 1.0)


def mirror_x(nx: int, ny: int, sector: int = 0) -> Symmetry:
    """The point-group reflection ``x -> nx - 1 - x`` of the rectangle."""
    x, y = np.meshgrid(np.arange(nx), np.arange(ny))
    return Symmetry(Permutation((y * nx + nx - 1 - x).ravel()), sector=sector)


@st.composite
def generator_sets(draw) -> list[Symmetry]:
    """Chains, tori in both axis orders (with and without a mirror line),
    flip-only and trivial groups; any momentum the other generators allow."""
    kind = draw(st.sampled_from(["chain", "torus", "mirror torus", "flip", "trivial"]))
    if kind == "trivial":
        return []
    if kind == "flip":
        return [spin_inversion(draw(st.integers(1, 20)), draw(st.integers(0, 1)))]
    if kind == "chain":
        n = draw(st.integers(3, 20))
        pool = [
            translation(n, draw(st.integers(0, n - 1))),
            reflection(n, draw(st.integers(0, 1))),
            spin_inversion(n, draw(st.integers(0, 1))),
        ]
        return draw(st.permutations(pool))[: draw(st.integers(1, 3))]
    nx, ny = draw(
        st.tuples(st.integers(2, 5), st.integers(2, 5)).filter(
            lambda shape: shape[0] != shape[1]
        )
    )
    generators = [
        rectangle_translation(nx, ny, 0, draw(st.integers(0, nx - 1))),
        rectangle_translation(nx, ny, 1, draw(st.integers(0, ny - 1))),
    ]
    if kind == "mirror torus":
        generators.append(mirror_x(nx, ny, draw(st.integers(0, 1))))
    if draw(st.booleans()):
        generators.append(spin_inversion(nx * ny, draw(st.integers(0, 1))))
    return draw(st.permutations(generators))


class TestBaseRotationFactorization:
    @settings(max_examples=60, deadline=None)
    @given(generators=generator_sets(), seed=st.integers(0, 2**32 - 1))
    def test_random_generator_sets(self, generators, seed):
        try:
            group = (
                SymmetryGroup.from_generators(generators)
                if generators
                else SymmetryGroup.trivial(1 + seed % 20)
            )
        except InvalidSectorError:
            assume(False)  # e.g. a reflection at momentum 1
        n = group.n_sites
        states = random_states(n, 300, seed)
        for p in set(group.permutations):
            k = int(p.sites[0])
            base = Permutation((p.sites - k) % n)
            np.testing.assert_array_equal(
                p(states), rotate_left(base(states), k, n)
            )
        bases = {((p.sites - p.sites[0]) % n).tobytes() for p in group.permutations}
        networks = len(bases - {np.arange(n).tobytes()})
        assert group.kernel.strategy_counts.get("network", 0) == networks
        assert_matches_reference(group, states)

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (3, 5), (2, 7)])
    def test_torus_has_one_network_base_per_x_shift(self, shape):
        nx, ny = shape
        group = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, 1, 0),
                rectangle_translation(nx, ny, 0, 0),
                spin_inversion(nx * ny, 0),
            ]
        )
        assert group.kernel.strategy_counts == {
            "identity": 1,
            "rotation": nx * ny - 1,
            "network": nx - 1,
        }

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 70_000])
    @pytest.mark.parametrize(
        "group",
        [
            chain_symmetries(20, 0, 0, 0),
            chain_symmetries(12, 5, None, None),
            SymmetryGroup.from_generators(
                [
                    rectangle_translation(3, 4, 0, 1),
                    rectangle_translation(3, 4, 1, 3),
                    spin_inversion(12, 1),
                ]
            ),
        ],
        ids=["dihedral chain", "chain momentum 5", "torus momentum (1, 3)"],
    )
    def test_batch_sizes_and_shapes(self, group, size):
        states = random_states(group.n_sites, size, size)
        assert_matches_reference(group, states)
        if size % 2 == 0:
            assert_matches_reference(group, states.reshape(2, -1))


class TestStrategyClassification:
    """The kernel's per-permutation strategies must cover the chain group."""

    def test_reversed_rotation_detection(self):
        n = 12
        reversal = Permutation(np.arange(n - 1, -1, -1))
        rotation = Permutation((np.arange(n) + 1) % n)
        assert reversal.reversed_rotation_amount == 0
        assert rotation.reversed_rotation_amount is None
        composite = rotation @ reversal
        k = composite.reversed_rotation_amount
        assert k is not None
        states = random_states(n, 64, 0)
        from repro.bits.ops import reverse_bits

        np.testing.assert_array_equal(
            composite(states), rotate_left(reverse_bits(states, n), k, n)
        )

    def test_chain_group_uses_no_generic_networks(self):
        group = chain_symmetries(16, 0, 0, 0)
        assert group.kernel.strategy_counts.get("network", 0) == 1, (
            "every dihedral-chain element should be the input, the "
            "reflection that fixes site 0, or a rotation of one of the two"
        )

    def test_scratch_reused_across_calls(self):
        """A second call from the same thread allocates its results and
        nothing else."""
        group = chain_symmetries(20, 0, 0, 0)
        states = random_states(20, 20_000, 1)
        group.state_info(states)
        tracemalloc.start()
        try:
            group.state_info(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # rep + stab + phase, 8 B each: 24 B per state.  Another set of
        # work arrays would add more than 40 B per state.
        assert peak < 40 * states.size


# -- the packed-key loop ---------------------------------------------------------


def input_shapes(n_sites: int, seed: int) -> list[np.ndarray]:
    """Random, all-equal, empty and 2-D batches of ``n_sites``-bit states."""
    states = random_states(n_sites, 240, seed)
    return [
        states,
        np.full(50, states[0]),
        states[:0],
        states.reshape(6, 40),
        states[::-1][::3],  # a strided view
    ]


def assert_matches_in_shape(group: SymmetryGroup, states: np.ndarray) -> None:
    """:func:`assert_matches_reference` (``rep`` exact; ``stab`` and the
    survivors' ``phase`` to 1e-12: the elements that tie on a survivor have
    one character, which the reference, walking them in another order, may
    read off another element — an ulp), and the input's shape on all three
    outputs.  Bit for bit against the previous kernel is
    ``tests/kernel_snapshot.py``; bit for bit against ``state_info``, with
    ``valid`` its ``stab > STAB_TOL``, the stabilizer-free ``orbit_info``."""
    assert_matches_reference(group, states)
    rep, phase, stab = group.state_info(states)
    assert all(out.shape == np.shape(states) for out in (rep, phase, stab))
    free = group.kernel.orbit_info(states)
    for got, expected in zip(free, (rep, phase, stab > STAB_TOL)):
        np.testing.assert_array_equal(got, expected)


def chain_sectors(n: int):
    """Every (momentum, parity, inversion) a closed ``n``-chain admits."""
    for momentum in range(n):
        yield momentum, None, None
        yield momentum, None, 0
        if momentum in (0, n / 2):
            for parity in (0, 1):
                for inversion in (None, 0, 1):
                    yield momentum, parity, inversion


class TestPackedKeys:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(4, 28), seed=st.integers(0, 2**32 - 1))
    def test_chain_sectors(self, data, n, seed):
        sector = data.draw(st.sampled_from(list(chain_sectors(n))))
        group = chain_symmetries(n, *sector)
        for states in input_shapes(n, seed):
            assert_matches_in_shape(group, states)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(2, 5), st.integers(2, 5)),
        data=st.data(),
        inversion=st.one_of(st.none(), st.integers(0, 1)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_torus_sectors(self, shape, data, inversion, seed):
        nx, ny = shape
        generators = [
            rectangle_translation(nx, ny, 0, data.draw(st.integers(0, nx - 1))),
            rectangle_translation(nx, ny, 1, data.draw(st.integers(0, ny - 1))),
        ]
        if inversion is not None:
            generators.append(spin_inversion(nx * ny, inversion))
        group = SymmetryGroup.from_generators(generators)
        for states in input_shapes(nx * ny, seed):
            assert_matches_in_shape(group, states)

    @pytest.mark.parametrize("momentum", [3, 6, 9])
    def test_tie_break_in_a_complex_momentum_sector(self, momentum):
        """A period-4 state of the 12-chain is fixed by t^4 and t^8, so three
        elements tie on its representative; at momenta 3, 6 and 9 the
        state survives (their characters agree) and its twelve translates
        read every value the character takes."""
        group = chain_symmetries(12, momentum, None, None)
        assert group.is_real == (momentum == 6)
        periodic = np.uint64(0b000100010001)
        states = np.array([rotate_left(periodic, k, 12) for k in range(12)])
        rep, phase, stab = group.state_info(states)
        assert np.all(rep == periodic) and np.allclose(stab, 3.0)
        values = set(np.asarray(phase, dtype=np.complex128).round(12))
        assert len(values) == 12 // np.gcd(12, momentum)
        assert_matches_in_shape(group, states)
        # Every other period too, survivors or not.
        for period in (1, 2, 3, 6):
            pattern = np.uint64(sum(1 << i for i in range(0, 12, period)))
            assert_matches_in_shape(group, np.array([pattern, rotate_left(pattern, 1, 12)]))

    @pytest.mark.parametrize(
        "n_sites, doubled, packed",
        [(28, True, True), (33, False, True), (60, False, False)],
        ids=["doubled word", "two shifts in key space", "compare and copy"],
    )
    def test_each_side_of_the_width_boundaries(self, n_sites, doubled, packed):
        """|G| = 2n here, so ``idx_bits`` is 6, 7 and 7: 56 and 66 bits of
        doubled word, 40 and 67 of state and tag."""
        group = chain_symmetries(n_sites, 0, 0, None)
        kernel = group.kernel
        assert (kernel._doubled, kernel._packed) == (doubled, packed)
        rng = np.random.default_rng(n_sites)
        bits = rng.integers(0, n_sites, size=(300, 2)).astype(np.uint64)
        weight_two = (np.uint64(1) << bits[:, 0]) | (np.uint64(1) << bits[:, 1])
        top = np.uint64(1) << np.uint64(n_sites - 1)
        assert np.any(weight_two >= top), "the widest states must be in"
        assert_matches_in_shape(group, weight_two)
        assert_matches_in_shape(group, weight_two.reshape(3, 100))

    def test_work_arrays_come_with_the_first_state_info_call(self):
        """The set-up filter (``minima``) allocates its seven arrays and
        not the ones that only ``state_info`` reads; a lattice with room
        for its tags allocates no second index array (``tidx``)."""
        group = chain_symmetries(16, 0, 0, 0)
        states = random_states(16, 1000, 3)
        group.kernel.minima(states)
        arrays = vars(group.kernel._local)  # this thread's, by name
        filter_arrays = ["a_not", "a_top", "base", "dead", "less", "net", "y"]
        assert sorted(arrays) == filter_arrays
        group.state_info(states)
        assert sorted(set(arrays) - set(filter_arrays)) == [
            "f_top", "fixed", "hi", "idx", "keys", "lo", "s_top"
        ]

    def test_a_character_that_is_one_to_rounding_keeps_its_tag(self):
        """``flip∘T^8`` of chain-16 at k=3, z=1 has the character
        ``1.0000000000000004-8.44e-16j``: the state it maps to its
        representative reports that phase, bytes and all, not ``1.0``."""
        group = chain_symmetries(16, 3, None, 1)
        state = np.array([0b0000010011111101], dtype=np.uint64)
        for rep, phase, _ in (group.state_info(state), group.kernel.orbit_info(state)):
            assert rep[0] == 0b1011111011
            assert tuple(phase.view(np.uint64)) == (
                0x3FF0000000000002, 0xBCCE69898CC51702
            )

    def test_a_conjugate_of_one_minus_zero_is_not_the_identitys(self):
        """At chain-16 k=3, z=0 the spin flip's conjugate character is
        ``1-0j``: a representative reports the identity's ``1+0j`` and its
        flipped copy ``1-0j``, whose imaginary part is ``-0.0``."""
        group = chain_symmetries(16, 3, None, 0)
        states = np.arange(1 << 16, dtype=np.uint64)
        rep, phase, stab = group.state_info(states)
        reps = states[(rep == states) & (stab > STAB_TOL)]
        assert reps.size > 1000
        flipped = reps ^ np.uint64(0xFFFF)
        assert 0b1111111010000000 in flipped
        for info in (group.state_info, group.kernel.orbit_info):
            assert not np.any(np.signbit(info(reps)[1].imag))
            rep, phase, _ = info(flipped)
            np.testing.assert_array_equal(rep, reps)
            assert np.all(phase == 1) and np.all(np.signbit(phase.imag))

    @pytest.mark.parametrize(
        "group",
        [
            chain_symmetries(20, 0, None, None),
            SymmetryGroup.from_generators(
                [
                    rectangle_translation(3, 4, 0, 1),
                    rectangle_translation(3, 4, 1, 3),
                    spin_inversion(12, 1),
                ]
            ),
        ],
        ids=["chain-20 k=0", "3x4 torus momentum (1, 3)"],
    )
    def test_two_strips_and_three_states_are_their_pieces(self, group):
        """65 539 states, two full strips and three more, give the bytes
        that pieces cut across the strips' edges give one call at a time,
        from both kernels."""
        states = random_states(group.n_sites, 65_539, 17)
        cuts = [1, 5000, 32_767, 32_768, 40_000, 65_536]
        kernel = group.kernel
        for info in (kernel.state_info, kernel.orbit_info):
            whole = info(states)
            pieces = [info(piece) for piece in np.split(states, cuts)]
            for got, parts in zip(whole, zip(*pieces)):
                assert got.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize(
        "sector",
        [(7, None, 1), (30, 1, 0), (12, None, 1)],
        ids=["k=7 z=1", "k=30 p=1 z=0", "k=12 z=1"],
    )
    def test_sixty_sites_with_characters_other_than_one(self, sector):
        """The 60-chain keeps its element index in a second array; its
        characters are complex at k=7 and k=12 and -1 on half the group at
        k=30, and periodic states meet elements that tie on them (at k=12
        one whose character is 1 and one whose is not, on a survivor)."""
        group = chain_symmetries(60, *sector)
        assert not group.kernel._packed
        # ``width`` set bits repeated every ``period`` sites
        periods = (2, 3, 4, 5, 6, 10, 12, 15, 20, 30)
        widths = (1, 1, 2, 2, 1, 3, 5, 4, 7, 11)
        periodic = np.array(
            [
                sum((1 << width) - 1 << start for start in range(0, 60, period))
                for period, width in zip(periods, widths)
            ],
            dtype=np.uint64,
        )
        states = np.concatenate(
            [periodic, rotate_left(periodic, 7, 60), periodic ^ np.uint64(2**60 - 1)]
        )
        assert_matches_in_shape(group, states)
        assert_matches_in_shape(group, random_states(60, 300, 60))
