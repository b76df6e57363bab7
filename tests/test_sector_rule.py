"""One sector rule for every basis built from given states.

``SymmetricBasis.from_representatives``, ``DistributedBasis`` (without
``stabilizers``) and ``SpinpackBasis`` all check their states with
:func:`repro.basis.symm_basis.sector_sums`: on random chain, torus and
plain sectors each single corruption of a valid list is the same
:class:`BasisError` from all three, and a built basis's own states come
back with its ``source_scale`` to the bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import SpinpackBasis
from repro.basis import SpinBasis, SymmetricBasis
from repro.bits import popcount
from repro.distributed import DistributedBasis
from repro.errors import BasisError
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import SymmetryGroup, chain_symmetries, rectangle_translation
from repro.symmetry.kernels import STAB_TOL


@st.composite
def sectors(draw):
    """A built template: a chain sector (real or complex momentum, odd or
    even parity and inversion), a torus momentum sector or a plain one."""
    kind = draw(st.sampled_from(["chain", "torus", "plain"]))
    if kind == "plain":
        n = draw(st.integers(3, 10))
        return SpinBasis(n, draw(st.one_of(st.none(), st.integers(1, n - 1))))
    inversion = None
    if kind == "chain":
        n = draw(st.integers(5, 12))
        k = draw(st.integers(0, n - 1))
        real = k == 0 or 2 * k == n
        parity = draw(st.one_of(st.none(), st.integers(0, 1))) if real else None
        if n % 2 == 0:
            inversion = draw(st.one_of(st.none(), st.integers(0, 1)))
        group = chain_symmetries(n, k, parity, inversion)
    else:
        nx, ny = draw(st.integers(2, 4)), draw(st.integers(2, 3))
        n = nx * ny
        group = SymmetryGroup.from_generators(
            [
                rectangle_translation(nx, ny, 0, draw(st.integers(0, nx - 1))),
                rectangle_translation(nx, ny, 1, draw(st.integers(0, ny - 1))),
            ]
        )
    weight = (
        n // 2
        if inversion is not None
        else draw(st.one_of(st.none(), st.integers(1, n - 1)))
    )
    return SymmetricBasis(group, hamming_weight=weight)


def insert(states, state):
    """``states`` with ``state`` put at its sorted position, and that
    position."""
    at = int(np.searchsorted(states, state))
    return np.insert(states, at, np.uint64(state)), at


def corruptions(template, rng):
    """``(states, position, reason)`` of every single corruption of the
    template's states that applies to its sector."""
    states, n = template.states, template.n_sites
    i = int(rng.integers(0, states.size - 1))
    swapped = states.copy()
    swapped[[i, i + 1]] = swapped[[i + 1, i]]
    yield swapped, i + 1, "is not above the state before it"
    yield np.insert(states, i + 1, states[i]), i + 1, "is not above the state before it"
    outside = "is outside n_sites="
    yield np.append(states, states[-1] | np.uint64(1 << n)), states.size, outside
    candidates = np.arange(1 << n, dtype=np.uint64)
    if template.hamming_weight is not None:
        wrong = candidates[popcount(candidates) != template.hamming_weight]
        yield *insert(states, rng.choice(wrong)), outside
    group = getattr(template, "group", None)
    if group is None:
        return
    inside = candidates[template.in_space(candidates)]
    rep, _, stab = group.state_info(inside)
    members = inside[(rep != inside) & np.isin(rep, states)]
    if members.size:
        yield *insert(states, rng.choice(members)), "is not the minimum of its orbit"
    dead = inside[(rep == inside) & (stab <= STAB_TOL)]
    if dead.size:
        yield *insert(states, rng.choice(dead)), "is not in this sector"


def constructors(template):
    """The constructors taking given states, as functions of the list."""
    one, three = Cluster(1, laptop_machine()), Cluster(3, laptop_machine())
    made = {
        "distributed": lambda s: DistributedBasis(one, template, [s]).scales,
        "spinpack": lambda s: SpinpackBasis(three, template, s).scales,
    }
    group = getattr(template, "group", None)
    if group is not None:
        made["from_representatives"] = lambda s: [
            SymmetricBasis.from_representatives(
                group, s, template.hamming_weight
            ).source_scale
        ]
    return made


class TestOneSectorRule:
    @settings(max_examples=40, deadline=None)
    @given(template=sectors(), seed=st.integers(0, 2**32 - 1))
    def test_every_constructor_rejects_each_corruption_alike(self, template, seed):
        if template.dim < 2:
            return
        made = constructors(template)
        for states, at, why in corruptions(template, np.random.default_rng(seed)):
            messages = set()
            for build in made.values():
                with pytest.raises(BasisError, match=rf"\(position {at}\) {why}") as info:
                    build(states)
                messages.add(str(info.value))
            assert len(messages) == 1

    @settings(max_examples=40, deadline=None)
    @given(template=sectors())
    def test_own_states_keep_their_norms_bitwise(self, template):
        expected = template.source_scale
        for build in constructors(template).values():
            scales = build(template.states)
            if expected is None:
                assert scales is None
            else:
                assert np.concatenate(scales).tobytes() == expected.tobytes()
        from_serial = SpinpackBasis.from_serial(
            Cluster(2, laptop_machine()), template
        ).scales
        assert (from_serial is None) == (expected is None)
        if expected is not None:
            assert np.concatenate(from_serial).tobytes() == expected.tobytes()
