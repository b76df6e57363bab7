"""Tests for the declarative JSON input-file interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.basis import SpinBasis, SymmetricBasis
from repro.config import input_reference, load_simulation, run_simulation
from repro.errors import ConfigError, ReproError


BASE_SPEC = {
    "n_sites": 12,
    "hamiltonian": {"model": "heisenberg_chain"},
    "basis": {"hamming_weight": 6, "momentum": 0, "parity": 0, "inversion": 0},
    "solver": {"k": 1, "tol": 1e-10},
}


class TestLoading:
    def test_from_dict(self):
        spec = load_simulation(BASE_SPEC)
        assert spec.n_sites == 12
        assert isinstance(spec.basis, SymmetricBasis)
        assert not spec.distributed

    def test_from_json_string(self):
        spec = load_simulation(json.dumps(BASE_SPEC))
        assert spec.n_sites == 12

    def test_from_file(self, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(BASE_SPEC))
        spec = load_simulation(path)
        assert spec.n_sites == 12

    def test_plain_basis_without_symmetries(self):
        spec = load_simulation(
            {
                "n_sites": 8,
                "hamiltonian": {"model": "transverse_field_ising", "field": 0.5},
                "basis": {},
            }
        )
        assert isinstance(spec.basis, SpinBasis)
        assert spec.basis.hamming_weight is None

    def test_graph_model(self):
        spec = load_simulation(
            {
                "n_sites": 4,
                "hamiltonian": {
                    "model": "heisenberg_graph",
                    "edges": [[0, 1], [1, 2], [2, 3]],
                },
                "basis": {"hamming_weight": 2},
            }
        )
        ref = repro.heisenberg([(0, 1), (1, 2), (2, 3)])
        assert spec.expression.isclose(ref)

    def test_missing_n_sites(self):
        with pytest.raises(ReproError):
            load_simulation({"hamiltonian": {"model": "heisenberg_chain"}})

    def test_unknown_model(self):
        with pytest.raises(ReproError):
            load_simulation({"n_sites": 4, "hamiltonian": {"model": "hubbard"}})

    def test_unknown_model_parameter(self):
        with pytest.raises(ReproError):
            load_simulation(
                {
                    "n_sites": 4,
                    "hamiltonian": {"model": "heisenberg_chain", "tilt": 3},
                }
            )

    def test_missing_model_key(self):
        with pytest.raises(ReproError):
            load_simulation({"n_sites": 4, "hamiltonian": {"coupling": 1.0}})


class TestRunning:
    def test_serial_run_matches_direct_solve(self):
        result = run_simulation(load_simulation(BASE_SPEC))
        group = repro.chain_symmetries(12, momentum=0, parity=0, inversion=0)
        basis = SymmetricBasis(group, hamming_weight=6)
        op = repro.Operator(repro.heisenberg_chain(12), basis)
        e_ref = np.linalg.eigvalsh(op.to_dense())[0]
        assert result["converged"]
        assert result["dimension"] == basis.dim
        assert result["eigenvalues"][0] == pytest.approx(e_ref, abs=1e-8)

    def test_distributed_run(self):
        spec_dict = dict(BASE_SPEC)
        spec_dict["cluster"] = {"n_locales": 2, "machine": "laptop", "cores": 4}
        result = run_simulation(load_simulation(spec_dict))
        serial = run_simulation(load_simulation(BASE_SPEC))
        assert result["eigenvalues"][0] == pytest.approx(
            serial["eigenvalues"][0], abs=1e-8
        )
        assert result["n_locales"] == 2
        assert result["simulated_seconds"] > 0

    def test_result_is_json_serializable(self):
        result = run_simulation(load_simulation(BASE_SPEC))
        json.dumps(result)  # must not raise

    def test_xxz_model_runs(self):
        result = run_simulation(
            load_simulation(
                {
                    "n_sites": 8,
                    "hamiltonian": {"model": "xxz_chain", "jz": 0.5},
                    "basis": {"hamming_weight": 4},
                    "solver": {"k": 2},
                }
            )
        )
        assert len(result["eigenvalues"]) == 2

    def test_square_lattice_model(self):
        result = run_simulation(
            load_simulation(
                {
                    "n_sites": 8,
                    "hamiltonian": {
                        "model": "heisenberg_square",
                        "nx": 4,
                        "ny": 2,
                    },
                    "basis": {"hamming_weight": 4},
                }
            )
        )
        assert result["converged"]

    def test_kagome_model(self):
        spec = load_simulation(
            {
                "n_sites": 12,
                "hamiltonian": {"model": "heisenberg_kagome12"},
                "basis": {"hamming_weight": 6},
            }
        )
        result = run_simulation(spec)
        # kagome-12 reference: E0/site = -0.45374
        assert result["eigenvalues"][0] / 12 == pytest.approx(-0.45374, abs=1e-4)

    def test_lattice_geometry_mismatch(self):
        with pytest.raises(ReproError):
            load_simulation(
                {
                    "n_sites": 9,
                    "hamiltonian": {
                        "model": "heisenberg_square",
                        "nx": 4,
                        "ny": 2,
                    },
                }
            )

    def test_kagome_requires_12_sites(self):
        with pytest.raises(ReproError):
            load_simulation(
                {
                    "n_sites": 10,
                    "hamiltonian": {"model": "heisenberg_kagome12"},
                }
            )

    def test_snellius_cluster_default(self):
        spec_dict = dict(BASE_SPEC)
        spec_dict["cluster"] = {"n_locales": 2}
        result = run_simulation(load_simulation(spec_dict))
        assert result["converged"]


class TestResilienceKnobs:
    """Round-trips for the threads-backend watchdog knob
    (``watchdog_timeout``) through ``ResilienceConfig`` configs, the
    cluster section, and the CLI."""

    def test_resilience_config_round_trip(self):
        from repro.resilience import ResilienceConfig

        cfg = ResilienceConfig(watchdog_timeout=7.5, matvec_restarts=3)
        assert cfg.to_config() == {
            "watchdog_timeout": 7.5,
            "matvec_restarts": 3,
        }
        clone = ResilienceConfig.from_config(cfg.to_config())
        assert clone.watchdog_timeout == 7.5
        assert clone.matvec_restarts == 3
        assert clone.to_config() == cfg.to_config()

    def test_default_knobs_omitted_from_config(self):
        from repro.resilience import ResilienceConfig

        assert ResilienceConfig().to_config() == {}

    def test_knob_validation(self):
        from repro.resilience import ResilienceConfig

        with pytest.raises(ConfigError, match="watchdog_timeout"):
            ResilienceConfig(watchdog_timeout=0.0)
        # A crash is healed by a matvec restart only: there is no
        # per-worker restart budget to set.
        with pytest.raises(ConfigError, match="max_worker_restarts"):
            ResilienceConfig.from_config({"max_worker_restarts": 2})

    def test_cluster_section_reaches_executor(self):
        """The resilience section of a threads cluster spec reaches the
        operator, which hands it to the executor's watchdog."""
        from repro.config import _build_distributed
        from repro.runtime.executor import get_executor

        spec_dict = dict(BASE_SPEC)
        spec_dict["cluster"] = {
            "n_locales": 2, "backend": "threads", "machine": "laptop",
            "resilience": {"watchdog_timeout": 9.0},
        }
        operator, _ = _build_distributed(load_simulation(spec_dict))
        assert operator.faults is None
        ex = get_executor(operator.basis.cluster, resilience=operator.resilience)
        assert ex.watchdog_seconds == 9.0

    def test_cli_flags_inject_resilience_section(self, tmp_path, capsys):
        from repro.config import main

        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps({
            "n_sites": 8,
            "hamiltonian": {"model": "heisenberg_chain"},
            "basis": {"hamming_weight": 4},
            "solver": {"k": 1, "tol": 1e-10},
            "cluster": {"n_locales": 2, "machine": "laptop"},
        }))
        main([str(input_path), "--watchdog-timeout", "30"])
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]

    def test_cli_flags_require_cluster_section(self, tmp_path):
        from repro.config import main

        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(BASE_SPEC))
        with pytest.raises(ReproError, match="watchdog-timeout"):
            main([str(input_path), "--watchdog-timeout", "30"])


class TestMatvecKnobs:
    """Round-trips for the pipeline knobs (``cluster.matvec`` section and
    the ``--batch-size`` / ``--consumer-fraction`` / ``--work-stealing``
    flags)."""

    CLUSTER_SPEC = {
        "n_sites": 10,
        "hamiltonian": {"model": "heisenberg_chain"},
        "basis": {"hamming_weight": 5},
        "solver": {"k": 1, "tol": 1e-10},
        "cluster": {"n_locales": 2, "machine": "laptop"},
    }

    def _with_cluster(self, **cluster_extra):
        spec = json.loads(json.dumps(self.CLUSTER_SPEC))
        spec["cluster"].update(cluster_extra)
        return spec

    def test_matvec_section_round_trip(self):
        knobs = {
            "batch_size": 64,
            "consumer_fraction": 0.25,
            "work_stealing": True,
        }
        plain = run_simulation(load_simulation(self.CLUSTER_SPEC))
        tuned = run_simulation(
            load_simulation(self._with_cluster(matvec=knobs))
        )
        # knobs are echoed verbatim and never change the physics
        assert tuned["matvec"] == knobs
        assert "matvec" not in plain
        np.testing.assert_allclose(
            tuned["eigenvalues"], plain["eigenvalues"], atol=1e-8
        )

    def test_matvec_section_validation(self):
        from repro.errors import ConfigError

        bad_sections = [
            {"batch_size": 0},
            {"batch_size": True},
            {"consumer_fraction": 0.0},
            {"consumer_fraction": 1.5},
            {"work_stealing": 1},
            {"granularity": 4},
        ]
        for section in bad_sections:
            with pytest.raises(ConfigError):
                run_simulation(
                    load_simulation(self._with_cluster(matvec=section))
                )

    def test_consumer_fraction_on_threads_rejected(self, tmp_path, capsys):
        """The threads pipeline runs one producer and one consumer thread
        per locale whatever the fraction: the key and the flag used to be
        echoed and ignored."""
        from repro.config import main

        threads = self._with_cluster(backend="threads")
        keyed = json.loads(json.dumps(threads))
        keyed["cluster"]["matvec"] = {"consumer_fraction": 0.25}
        for spec, flags in ((keyed, []), (threads, ["--consumer-fraction", "0.25"])):
            input_path = tmp_path / "input.json"
            input_path.write_text(json.dumps(spec))
            with pytest.raises(ConfigError, match=(
                r"^cluster\.matvec\.consumer_fraction has no effect on a "
                "wall-clock cluster, which runs one producer and one consumer "
                r"thread per locale, .*: drop the key \(.*producers_per_locale "
                r"and consumers_per_locale keywords\)$"
            )):
                main([str(input_path), *flags])
        assert capsys.readouterr().out == ""

    def test_cli_flags_inject_matvec_section(self, tmp_path, capsys):
        from repro.config import main

        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(self.CLUSTER_SPEC))
        main([
            str(input_path),
            "--batch-size", "128",
            "--consumer-fraction", "0.25",
            "--work-stealing",
        ])
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]
        assert out["matvec"] == {
            "batch_size": 128,
            "consumer_fraction": 0.25,
            "work_stealing": True,
        }

    def test_cli_flags_override_file_section(self, tmp_path, capsys):
        from repro.config import main

        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(
            self._with_cluster(matvec={"batch_size": 32})
        ))
        main([str(input_path), "--batch-size", "256"])
        out = json.loads(capsys.readouterr().out)
        assert out["matvec"]["batch_size"] == 256

    def test_cli_flags_require_cluster_section(self, tmp_path):
        from repro.config import main

        input_path = tmp_path / "input.json"
        input_path.write_text(json.dumps(BASE_SPEC))
        for flags in (
            ["--batch-size", "64"],
            ["--consumer-fraction", "0.25"],
            ["--work-stealing"],
        ):
            with pytest.raises(ReproError, match=flags[0]):
                main([str(input_path)] + flags)


class TestObservables:
    SPEC = {
        "n_sites": 12,
        "hamiltonian": {"model": "heisenberg_chain"},
        "basis": {
            "hamming_weight": 6,
            "momentum": 0,
            "parity": 0,
            "inversion": 0,
        },
        "solver": {"k": 1, "tol": 1e-10},
        "observables": [
            {"type": "spin_correlation", "distance": 1},
            {"type": "spin_correlation", "distance": 3, "name": "far"},
            {"type": "staggered_magnetization"},
        ],
    }

    def test_serial_observables(self):
        result = run_simulation(load_simulation(self.SPEC))
        obs = result["observables"]
        # bond-energy sum rule: n * <S0.S1> == E0
        assert 12 * obs["S0.S1"] == pytest.approx(
            result["eigenvalues"][0], abs=1e-7
        )
        # zero total staggered moment in the singlet ground state
        assert obs["Sz_staggered"] == pytest.approx(0.0, abs=1e-8)
        assert obs["far"] < 0  # antiferromagnetic at odd distance

    def test_distributed_observables_match_serial(self):
        serial = run_simulation(load_simulation(self.SPEC))
        spec = dict(self.SPEC)
        spec["cluster"] = {"n_locales": 3, "machine": "laptop", "cores": 4}
        distributed = run_simulation(load_simulation(spec))
        for name, value in serial["observables"].items():
            assert distributed["observables"][name] == pytest.approx(
                value, abs=1e-7
            )

    def test_magnetization_observable(self):
        spec = {
            "n_sites": 8,
            "hamiltonian": {"model": "heisenberg_chain"},
            "basis": {"hamming_weight": 6},
            "observables": [{"type": "magnetization"}],
        }
        result = run_simulation(load_simulation(spec))
        # 6 up, 2 down -> Sz_total = (6 - 2) / 2 = 2
        assert result["observables"]["Sz_total"] == pytest.approx(2.0)

    def test_unknown_observable_rejected(self):
        spec = dict(self.SPEC)
        spec["observables"] = [{"type": "wilson_loop"}]
        with pytest.raises(ReproError):
            load_simulation(spec)


def _probe(**sections):
    """A valid serial chain-8 input with ``sections`` replaced."""
    spec = {
        "n_sites": 8,
        "hamiltonian": {"model": "heisenberg_chain"},
        "basis": {"hamming_weight": 4},
        "solver": {"k": 1},
    }
    spec.update(sections)
    return spec


#: (dotted path the ConfigError must name, input): the first six were
#: silently accepted before the schema, the other ten escaped untyped
#: (JSONDecodeError, ValueError, KeyError, TypeError, ZeroDivisionError).
PROBES = [
    ("basis.hamming_wieght", _probe(basis={"hamming_wieght": 4})),
    ("solver.tolerance", _probe(solver={"tolerance": 1e-3})),
    ("clutser", _probe(clutser={"n_locales": 2})),
    ("cluster.machine", _probe(cluster={"machine": "lapotp"})),
    ("cluster.cores", _probe(cluster={"cores": 2})),
    (
        "hamiltonian.tilt",
        _probe(
            n_sites=12,
            hamiltonian={"model": "heisenberg_kagome12", "tilt": 3},
        ),
    ),
    ("no-such-input.json", "no-such-input.json"),
    ("n_sites", _probe(n_sites="eight")),
    ("basis.hamming_weight", _probe(basis={"hamming_weight": 12})),
    ("solver.k", _probe(solver={"k": 0})),
    ("cluster.n_locales", _probe(cluster={"n_locales": 0})),
    (
        "hamiltonian.nx",
        _probe(hamiltonian={"model": "heisenberg_square", "ny": 2}),
    ),
    ("hamiltonian.edges", _probe(hamiltonian={"model": "heisenberg_graph"})),
    (
        "observables.distance",
        _probe(observables=[{"type": "spin_correlation"}]),
    ),
    ("cluster.bogus", _probe(cluster={"machine": "laptop", "bogus": 1})),
    ("unknown key cluster.tune", _probe(cluster={"tune": "auto"})),
    (
        "solver.checkpoint.every",
        _probe(solver={"checkpoint": {"dir": "unused", "every": 0}}),
    ),
]


class TestTypedRejection:
    """Bad input at the file boundary is a ``ConfigError`` naming the
    dotted path — never silently accepted, never another exception."""

    @pytest.mark.parametrize(
        "path, source", PROBES, ids=[path for path, _ in PROBES]
    )
    def test_probe_is_rejected_by_path(self, path, source):
        with pytest.raises(ConfigError, match=re.escape(path)):
            run_simulation(load_simulation(source))

    def test_from_config_goes_through_the_same_walker(self):
        from repro.resilience import FaultPlan, ResilienceConfig

        with pytest.raises(ConfigError, match="cluster.resilience.ack_timout"):
            ResilienceConfig.from_config({"ack_timout": 1.0})
        with pytest.raises(ConfigError, match="cluster.resilience.backoff"):
            ResilienceConfig.from_config({"backoff": "2"})
        with pytest.raises(ConfigError, match="cluster.faults.drop"):
            FaultPlan.from_config({"drop": 2.0})
        with pytest.raises(ConfigError, match="cluster.faults.crashes"):
            FaultPlan.from_config({"crashes": {"first": 0.5}})

    def test_process_boundary_prints_one_line_and_exits_2(self, tmp_path):
        """``python -m repro`` turns every ``ReproError`` — and an
        unreadable ``--faults`` file — into ``repro: error: ...``."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_probe(bassis={})))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_probe(cluster={"n_locales": 2})))
        tuned = tmp_path / "tuned.json"
        tuned.write_text(json.dumps(_probe(cluster={"tune": "auto"})))
        src = str(Path(repro.__file__).parents[1])
        for argv, named in (
            ([str(bad)], "bassis"),
            ([str(good), "--faults", str(tmp_path / "nope.json")], "nope.json"),
            ([str(good), "--batch-size", "0"], "cluster.matvec.batch_size"),
            ([str(tuned)], "unknown key cluster.tune"),
        ):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert done.returncode == 2
            assert done.stderr.startswith("repro: error:")
            assert done.stderr.count("\n") == 1
            assert named in done.stderr
            assert "Traceback" not in done.stderr and not done.stdout


def test_readme_key_table_is_generated_from_the_rows():
    """README.md embeds ``repro.config.input_reference()`` verbatim."""
    readme = Path(__file__).parents[1] / "README.md"
    assert input_reference() in readme.read_text()


def test_flags_come_from_the_rows(capsys):
    """Every flag is one row's: no flag without a row, and a cluster-only
    flag says so."""
    from repro.config import ROWS, main

    with pytest.raises(SystemExit):
        main(["--help"])
    text = " ".join(capsys.readouterr().out.split())
    flags = [row for row in ROWS if row.flag]
    assert len(flags) == 8
    for row in flags:
        assert row.flag in text
    assert text.count("requires a 'cluster' section") == sum(
        row.path.startswith("cluster.") for row in flags
    )
    assert "--metrics-export-interval" not in text
    assert "--max-worker-restarts" not in text


# -- fuzz: one random mutation of a valid input ------------------------------

FUZZ_SERIAL = {
    "n_sites": 6,
    "hamiltonian": {
        "model": "heisenberg_chain", "coupling": 1.0, "periodic": True,
    },
    "basis": {"hamming_weight": 3, "momentum": 0, "parity": 0, "inversion": 0},
    "solver": {"k": 1, "tol": 1e-8, "max_iter": 200},
    "observables": [{"type": "spin_correlation", "distance": 1, "name": "nn"}],
}
FUZZ_CLUSTER = {
    "n_locales": 2,
    "machine": "laptop",
    "cores": 2,
    "backend": "sim",
    "matvec": {
        "batch_size": 16, "consumer_fraction": 0.5, "work_stealing": False,
    },
    "faults": {"seed": 1, "max_delay": 1e-4},
    "resilience": {"max_retries": 3, "ack_timeout": 0.05, "checksums": True},
}


def _key_paths(node, prefix=()):
    """Paths (tuples of keys / list indices) of every dict key below."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _mutated(spec, path, how):
    spec = json.loads(json.dumps(spec))
    *parents, key = path
    node = spec
    for step in parents:
        node = node[step]
    value = node[key]
    if how == "rename":
        node[key + "_"] = node.pop(key)
    elif how == "drop":
        del node[key]
    elif how == "retype":
        node[key] = [value] if isinstance(value, str) else str(value)
    elif how == "negate":
        node[key] = -value if isinstance(value, (int, float)) else None
    else:
        node[key] = 0
    return spec


_FUZZ_PATHS = sorted(
    _key_paths({**FUZZ_SERIAL, "cluster": FUZZ_CLUSTER}), key=repr
)


@settings(max_examples=50, deadline=None)
@given(
    path=st.sampled_from(_FUZZ_PATHS),
    how=st.sampled_from(["rename", "drop", "retype", "negate", "zero"]),
    distributed=st.booleans(),
)
def test_one_mutation_runs_or_raises_repro_error(path, how, distributed):
    spec = dict(FUZZ_SERIAL)
    if distributed or path[0] == "cluster":
        spec["cluster"] = FUZZ_CLUSTER
    try:
        result = run_simulation(load_simulation(_mutated(spec, path, how)))
    except ReproError:
        return
    assert how != "rename", f"renamed key {path} was accepted"
    assert result["converged"]
