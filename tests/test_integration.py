"""End-to-end integration tests across the whole stack."""

import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.baselines import SpinpackBasis, SpinpackOperator
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import chain_symmetries


class TestGroundStatePipeline:
    """The full workflow of the paper: enumerate the symmetry-adapted basis
    on a cluster, run Lanczos with the producer-consumer matvec, and check
    the physics against independent references."""

    def test_ground_state_energy_16_spins(self):
        n, w = 16, 8
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        cluster = Cluster(4, laptop_machine(cores=4))
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        # Burnside says the sector dimension before we ever enumerate:
        from repro.symmetry import sector_dimension

        assert dbasis.dim == sector_dimension(group, w)

        dop = DistributedOperator(
            repro.heisenberg_chain(n), dbasis, batch_size=512
        )
        result, sim_time = repro.lanczos_distributed(dop, k=1, tol=1e-10)
        # Reference: exact diagonalization of the same sector via SciPy.
        serial = SymmetricBasis(group, hamming_weight=w)
        op = repro.Operator(repro.heisenberg_chain(n), serial)
        import scipy.sparse.linalg as spla

        e_ref = spla.eigsh(op.to_sparse(), k=1, which="SA")[0][0]
        assert result.eigenvalues[0] == pytest.approx(e_ref, abs=1e-8)
        assert sim_time > 0

    def test_ground_state_in_k0_sector(self):
        # For chains with n = 0 (mod 4) the AFM Heisenberg ground state has
        # momentum 0 (it sits at k = pi for n = 2 mod 4 — checked below).
        n, w = 8, 4
        energies = {}
        for k in range(n):
            group = chain_symmetries(n, momentum=k, parity=None, inversion=None)
            basis = SymmetricBasis(group, hamming_weight=w)
            if basis.dim == 0:
                continue
            op = repro.Operator(repro.heisenberg_chain(n), basis)
            energies[k] = np.linalg.eigvalsh(op.to_dense())[0]
        assert min(energies, key=energies.get) == 0

    def test_ground_state_at_k_pi_for_n_2_mod_4(self):
        # Marshall's sign rule: n = 10 puts the ground state at k = n/2.
        n, w = 10, 5
        energies = {}
        for k in range(n):
            group = chain_symmetries(n, momentum=k, parity=None, inversion=None)
            basis = SymmetricBasis(group, hamming_weight=w)
            if basis.dim == 0:
                continue
            op = repro.Operator(repro.heisenberg_chain(n), basis)
            energies[k] = np.linalg.eigvalsh(op.to_dense())[0]
        assert min(energies, key=energies.get) == n // 2

    def test_all_matvec_implementations_agree_end_to_end(self, rng):
        n, w = 14, 7
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        serial = SymmetricBasis(group, hamming_weight=w)
        cluster = Cluster(3, laptop_machine(cores=4))
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        x = rng.standard_normal(serial.dim)
        dx = DistributedVector.from_serial(dbasis, serial, x)
        results = {}
        for method in ["naive", "batched", "pc"]:
            dop = DistributedOperator(
                repro.heisenberg_chain(n), dbasis, method=method, batch_size=256
            )
            results[method] = dop.matvec(dx).to_serial(serial)
        spb = SpinpackBasis.from_serial(cluster, serial)
        spop = SpinpackOperator(repro.heisenberg_chain(n), spb, batch_size=256)
        y_sp, _ = spop.matvec(spb.vector_from_serial(serial, x))
        results["spinpack"] = spb.vector_to_serial(serial, y_sp)
        reference = repro.Operator(repro.heisenberg_chain(n), serial).matvec(x)
        for name, y in results.items():
            np.testing.assert_allclose(y, reference, atol=1e-12, err_msg=name)

    def test_pc_beats_spinpack_in_simulated_time(self, rng):
        # The qualitative Fig. 9 statement must hold in the simulation too:
        # at several locales the pipeline is faster than bulk-synchronous
        # exchange with 2x slower kernels.
        n, w = 14, 7
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        serial = SymmetricBasis(group, hamming_weight=w)
        cluster = Cluster(4, laptop_machine(cores=8))
        template = SymmetricBasis(group, hamming_weight=w, build=False)
        dbasis, _ = enumerate_states(
            cluster, template, use_weight_shortcut=True
        )
        x = rng.standard_normal(serial.dim)
        dop = DistributedOperator(
            repro.heisenberg_chain(n), dbasis, batch_size=256
        )
        dop.matvec(DistributedVector.from_serial(dbasis, serial, x))
        t_ls = dop.last_report.elapsed

        spb = SpinpackBasis.from_serial(cluster, serial)
        spop = SpinpackOperator(repro.heisenberg_chain(n), spb, batch_size=256)
        _, report = spop.matvec(spb.vector_from_serial(serial, x))
        assert report.elapsed > t_ls


class TestPhysicsInvariants:
    def test_energy_decreases_with_system_size_per_site(self):
        # e0/site approaches -log(2)+1/4 ~ -0.4431 from above for PBC chains.
        per_site = []
        for n in (8, 12, 16):  # n = 0 (mod 4) keeps the ground state at k=0
            group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
            basis = SymmetricBasis(group, hamming_weight=n // 2)
            op = repro.Operator(repro.heisenberg_chain(n), basis)
            res = repro.lanczos(
                op.matvec, np.random.default_rng(0).standard_normal(op.dim), k=1
            )
            per_site.append(res.eigenvalues[0] / n)
        assert per_site[0] < per_site[1] < per_site[2] < -0.4431

    def test_bethe_ansatz_thermodynamic_limit(self):
        # finite-size e0/n should already be within 1% of 1/4 - ln2 at n=16.
        n = 16
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=8)
        op = repro.Operator(repro.heisenberg_chain(n), basis)
        res = repro.lanczos(
            op.matvec, np.random.default_rng(1).standard_normal(op.dim), k=1
        )
        e_inf = 0.25 - np.log(2)
        assert res.eigenvalues[0] / n == pytest.approx(e_inf, rel=0.01)

    def test_magnetization_sectors_exhaust_spectrum(self):
        n = 8
        h = repro.Operator(repro.heisenberg_chain(n), SpinBasis(n)).to_dense()
        full = np.sort(np.linalg.eigvalsh(h))
        merged = []
        for w in range(n + 1):
            op = repro.Operator(
                repro.heisenberg_chain(n), SpinBasis(n, hamming_weight=w)
            )
            merged.append(np.linalg.eigvalsh(op.to_dense()))
        merged = np.sort(np.concatenate(merged))
        assert np.allclose(merged, full, atol=1e-8)

    def test_quench_dynamics_conserve_energy(self, rng):
        # evolve under H; <H> must be conserved by the unitary propagator
        n, w = 12, 6
        group = chain_symmetries(n, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=w)
        op = repro.Operator(repro.heisenberg_chain(n), basis)
        psi = rng.standard_normal(op.dim).astype(complex)
        psi /= np.linalg.norm(psi)
        e0 = np.real(np.vdot(psi, op.matvec(psi)))
        for _ in range(5):
            psi = repro.expm_krylov(op.matvec, psi, scale=-0.3j, krylov_dim=30)
        e1 = np.real(np.vdot(psi, op.matvec(psi)))
        assert e1 == pytest.approx(e0, abs=1e-8)


class TestPublicApi:
    def test_all_names_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart_snippet_runs(self):
        """The quick-start code of ``repro/__init__.py`` and of README.md's
        "Quickstart" section, executed as written."""
        literal = repro.__doc__.split("Quick start::\n", 1)[1]
        package = textwrap.dedent(literal.split("\nSee ``examples/``")[0])
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
        blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
        assert len(blocks) == 2
        for source in (package, "".join(blocks)):
            names = {}
            exec(compile(source, "<quick start>", "exec"), names)
            energy = names["result"].eigenvalues[0]
            assert names["result"].converged
            assert energy == pytest.approx(-7.1422963606, abs=1e-9)
