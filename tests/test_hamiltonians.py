"""Tests for the predefined Hamiltonians, including known physics."""

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis
from repro.operators.hamiltonians import chain_edges, square_lattice_edges


class TestEdgeBuilders:
    def test_chain_edges_periodic(self):
        assert chain_edges(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_chain_edges_open(self):
        assert chain_edges(4, periodic=False) == [(0, 1), (1, 2), (2, 3)]

    def test_chain_edges_next_nearest(self):
        assert chain_edges(5, offset=2) == [
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 0),
            (4, 1),
        ]

    def test_square_edges_count(self):
        # torus: 2 * nx * ny edges
        edges = square_lattice_edges(3, 4)
        assert len(edges) == 2 * 3 * 4

    def test_square_edges_open_count(self):
        edges = square_lattice_edges(3, 4, periodic=False)
        assert len(edges) == 3 * (4 - 1) + 4 * (3 - 1)

    def test_square_no_duplicate_edges_when_width_two(self):
        edges = square_lattice_edges(2, 3)
        assert len(edges) == len({tuple(sorted(e)) for e in edges})

    def test_networkx_graph_compatible(self):
        # Our edges can drive a Heisenberg model built from a networkx graph.
        import networkx as nx

        g = nx.cycle_graph(6)
        h_graph = repro.heisenberg(g.edges())
        h_chain = repro.heisenberg_chain(6)
        assert (h_graph - h_chain).n_terms == 0


class TestKnownPhysics:
    def test_two_site_heisenberg_spectrum(self):
        # Singlet at -3/4 J, triplet at +1/4 J.
        h = repro.heisenberg([(0, 1)])
        op = repro.Operator(h, SpinBasis(2))
        evals = np.sort(np.linalg.eigvalsh(op.to_dense()))
        assert np.allclose(evals, [-0.75, 0.25, 0.25, 0.25])

    @pytest.mark.parametrize(
        "n,e0",
        [
            # Exact PBC Heisenberg chain ground-state energies (total, J=1).
            (4, -2.0),
            (6, -2.8027756377319946),
        ],
    )
    def test_heisenberg_chain_ground_state(self, n, e0):
        basis = SpinBasis(n, hamming_weight=n // 2)
        op = repro.Operator(repro.heisenberg_chain(n), basis)
        assert np.linalg.eigvalsh(op.to_dense())[0] == pytest.approx(e0)

    def test_heisenberg_antiferromagnetic_ground_state_is_singlet(self):
        # The true ground state lives in the Sz=0 sector.
        n = 8
        energies = {}
        for w in range(n + 1):
            op = repro.Operator(
                repro.heisenberg_chain(n), SpinBasis(n, hamming_weight=w)
            )
            energies[w] = np.linalg.eigvalsh(op.to_dense())[0]
        assert min(energies, key=energies.get) == n // 2

    def test_tfim_critical_point_energy(self):
        # TFIM with H = -J sum Sz Sz - h sum Sx; with J=h the model is
        # critical.  Compare against exact free-fermion result for small n:
        # E0 = -(1/2) * sum_k |cos(k/2)| ... easier: compare to dense diag.
        n = 8
        op = repro.Operator(
            repro.transverse_field_ising(n, coupling=4.0, field=2.0),
            SpinBasis(n),
        )
        e0 = np.linalg.eigvalsh(op.to_dense())[0]
        # Exact solution: E0 = -h * sum_k sqrt(1 + g^2 + 2 g cos k) with
        # g = J_pauli/h_pauli; our spin convention maps J_pauli = J/4,
        # h_pauli = h/2 so g = J/(2h) = 1 at this point.
        ks = (np.arange(n) + 0.5) * 2 * np.pi / n
        e_exact = -(2.0 / 2) * np.sum(np.sqrt(2 + 2 * np.cos(ks)))
        assert e0 == pytest.approx(e_exact, rel=1e-10)

    def test_xxz_ising_limit(self):
        # jxy=0 makes the model classical: ground state is the Neel state.
        n = 6
        op = repro.Operator(
            repro.xxz_chain(n, jz=1.0, jxy=0.0), SpinBasis(n, hamming_weight=3)
        )
        e0 = np.linalg.eigvalsh(op.to_dense())[0]
        assert e0 == pytest.approx(-n / 4)

    def test_j1j2_majumdar_ghosh(self):
        # At j2 = j1/2 (Majumdar-Ghosh point) the PBC ground-state energy
        # is exactly -3/8 * j1 * n.
        n = 8
        op = repro.Operator(
            repro.j1j2_chain(n, j1=1.0, j2=0.5), SpinBasis(n, hamming_weight=4)
        )
        e0 = np.linalg.eigvalsh(op.to_dense())[0]
        assert e0 == pytest.approx(-3 * n / 8)

    def test_square_lattice_matches_chain_for_1d(self):
        # a 1 x n "square lattice" with open boundaries is an open chain
        h1 = repro.heisenberg_square(4, 1, periodic=False)
        h2 = repro.heisenberg_chain(4, periodic=False)
        assert (h1 - h2).n_terms == 0


class TestCouplings:
    def test_per_edge_couplings(self):
        h = repro.heisenberg([(0, 1), (1, 2)], coupling=[1.0, 2.0])
        href = repro.heisenberg([(0, 1)]) + 2.0 * repro.heisenberg([(1, 2)])
        assert (h - href).n_terms == 0

    def test_coupling_length_mismatch(self):
        with pytest.raises(ValueError):
            repro.heisenberg([(0, 1)], coupling=[1.0, 2.0])

    def test_all_hermitian(self):
        for expr in [
            repro.heisenberg_chain(6),
            repro.xxz_chain(6, jz=0.3),
            repro.transverse_field_ising(6),
            repro.j1j2_chain(6),
            repro.heisenberg_square(3, 2),
        ]:
            assert expr.is_hermitian()

    def test_all_commute_with_translation(self):
        from repro.operators.matrix import expression_to_dense
        from repro.symmetry import translation

        n = 6
        t = translation(n).permutation
        states = np.arange(1 << n, dtype=np.uint64)
        perm_states = t(states).astype(np.int64)
        u = np.zeros((1 << n, 1 << n))
        u[perm_states, np.arange(1 << n)] = 1.0
        for expr in [
            repro.heisenberg_chain(n),
            repro.xxz_chain(n, jz=0.3),
            repro.transverse_field_ising(n),
            repro.j1j2_chain(n),
        ]:
            h = expression_to_dense(expr, n)
            assert np.allclose(u @ h, h @ u)
