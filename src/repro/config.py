"""Declarative simulation input files.

The paper's package parses user input files (one of the jobs of its Haskell
layer) so that physicists can run simulations without writing code.  This
module provides the same interface with JSON:

.. code-block:: json

    {
        "n_sites": 16,
        "hamiltonian": {"model": "heisenberg_chain", "coupling": 1.0},
        "basis": {
            "hamming_weight": 8,
            "momentum": 0, "parity": 0, "inversion": 0
        },
        "solver": {"k": 2, "tol": 1e-10},
        "cluster": {"n_locales": 4}
    }

``load_simulation`` builds the objects; ``run_simulation`` executes the
eigensolve (serially, or on the simulated cluster when a ``cluster``
section is present).  ``python -m repro input.json`` runs it from the
command line (sample files in ``examples/inputs/``).

Every key a file may carry is one row of :data:`ROWS` (a
:class:`repro.schema.Key`: dotted path, type, default, range, and — where a
command-line flag overrides the file — the flag and its help text).  Both
functions check each section against the rows with
:func:`repro.schema.validate` (unknown key, wrong type, out of range,
missing → :class:`~repro.errors.ConfigError` naming the dotted path),
``main`` generates its flags from them (``python -m repro --help`` lists
them) and ``README.md`` its key table (:func:`input_reference`).  See
``docs/OBSERVABILITY.md`` for the trace schema and metric names.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.basis.spin_basis import Basis, SpinBasis
from repro.basis.symm_basis import SymmetricBasis
from repro.distributed.operator import MATVEC_ROWS, DistributedOperator
from repro.errors import ConfigError
from repro.operators import hamiltonians
from repro.operators.expression import Expression, spin_z
from repro.operators.operator import Operator
from repro.runtime.cluster import Cluster
from repro.runtime.executor import BACKENDS
from repro.runtime.machine import laptop_machine, snellius_machine
from repro.schema import Key, key_table, validate
from repro.symmetry.symmetries import chain_symmetries

__all__ = [
    "ROWS",
    "SimulationSpec",
    "input_reference",
    "load_simulation",
    "run_simulation",
]


def _grid(n_sites: int, nx: int, ny: int) -> None:
    if nx * ny != n_sites:
        raise ConfigError(
            f"hamiltonian.nx * hamiltonian.ny = {nx * ny} but n_sites = "
            f"{n_sites}"
        )


def _square(n_sites, nx, ny, coupling=1.0, periodic=True) -> Expression:
    _grid(n_sites, nx, ny)
    return hamiltonians.heisenberg_square(nx, ny, coupling, periodic)


def _triangular(n_sites, nx, ny, coupling=1.0) -> Expression:
    _grid(n_sites, nx, ny)
    return hamiltonians.heisenberg(
        hamiltonians.triangular_lattice_edges(nx, ny), coupling
    )


def _kagome12(n_sites, coupling=1.0) -> Expression:
    if n_sites != 12:
        raise ConfigError(
            f"hamiltonian.model heisenberg_kagome12 has exactly 12 sites, "
            f"but n_sites = {n_sites}"
        )
    return hamiltonians.heisenberg(hamiltonians.kagome_12_edges(), coupling)


def _graph(n_sites, edges, coupling=1.0) -> Expression:
    try:
        pairs = [(int(i), int(j)) for i, j in edges]
    except (TypeError, ValueError):
        raise ConfigError(
            f"hamiltonian.edges must be a list of [site, site] pairs, got "
            f"{edges!r}"
        ) from None
    return hamiltonians.heisenberg(pairs, coupling)


def _spin_correlation(n_sites, distance, name=None):
    name = f"S0.S{distance}" if name is None else name
    return name, hamiltonians.heisenberg([(0, distance % n_sites)])


def _magnetization(n_sites, name="Sz_total"):
    return name, sum(spin_z(i) for i in range(n_sites))


def _staggered_magnetization(n_sites, name="Sz_staggered"):
    return name, sum(
        ((-1) ** i / n_sites) * spin_z(i) for i in range(n_sites)
    )


# Sections whose keys depend on one of them: the value of that key ->
# (builder, the other keys it takes; all of them rows of ROWS below).
_MODELS = {
    "heisenberg_chain": (hamiltonians.heisenberg_chain, ("coupling", "periodic")),
    "xxz_chain": (hamiltonians.xxz_chain, ("jz", "jxy", "periodic")),
    "transverse_field_ising": (
        hamiltonians.transverse_field_ising,
        ("coupling", "field", "periodic"),
    ),
    "j1j2_chain": (hamiltonians.j1j2_chain, ("j1", "j2", "periodic")),
    "heisenberg_graph": (_graph, ("edges", "coupling")),
    "heisenberg_square": (_square, ("nx", "ny", "coupling", "periodic")),
    "heisenberg_triangular": (_triangular, ("nx", "ny", "coupling")),
    "heisenberg_kagome12": (_kagome12, ("coupling",)),
}
_OBSERVABLES = {
    "spin_correlation": (_spin_correlation, ("distance", "name")),
    "magnetization": (_magnetization, ("name",)),
    "staggered_magnetization": (_staggered_magnetization, ("name",)),
}
_MACHINES = {
    "snellius": (snellius_machine, ()),
    "laptop": (laptop_machine, ("cores",)),
}

#: Every key of an input file, one row each (the matvec rows live beside
#: what they configure).
ROWS = (
    Key("n_sites", int, required=True, min=1, max=64, help="number of spins"),
    Key("hamiltonian", dict, required=True,
        help="the model and its parameters"),
    Key("hamiltonian.model", str, required=True, choices=tuple(_MODELS),
        help="the Hamiltonian; each model takes the keys listed below the "
        "table"),
    Key("hamiltonian.coupling", float, help="exchange coupling J (1.0)"),
    Key("hamiltonian.periodic", bool,
        help="periodic boundary conditions (true)"),
    Key("hamiltonian.jz", float, required=True, help="XXZ: Ising coupling"),
    Key("hamiltonian.jxy", float, help="XXZ: exchange coupling (1.0)"),
    Key("hamiltonian.field", float, help="transverse field h (1.0)"),
    Key("hamiltonian.j1", float, help="nearest-neighbour coupling (1.0)"),
    Key("hamiltonian.j2", float, help="next-nearest-neighbour coupling (0.5)"),
    Key("hamiltonian.nx", int, required=True, min=1,
        help="lattice width; nx * ny must equal n_sites"),
    Key("hamiltonian.ny", int, required=True, min=1, help="lattice height"),
    Key("hamiltonian.edges", list, required=True,
        help="[[i, j], ...] bonds of the interaction graph"),
    Key("basis", dict, help="the symmetry sector (the full space if absent)"),
    Key("basis.hamming_weight", int, min=0,
        help="number of up spins (U(1) sector); at most n_sites"),
    Key("basis.momentum", int,
        help="translation sector of a closed chain (absent: not imposed)"),
    Key("basis.parity", int, help="reflection sector (0 even, 1 odd)"),
    Key("basis.inversion", int, help="spin-inversion sector (0 even, 1 odd)"),
    Key("solver", dict, help="Lanczos eigensolver options"),
    Key("solver.k", int, 1, min=1, help="number of lowest eigenvalues"),
    Key("solver.tol", float, 1e-10, above=0,
        help="Ritz-residual convergence threshold"),
    Key("solver.max_iter", int, 500, min=1, help="iteration budget"),
    Key("solver.checkpoint", dict, help="periodic solver snapshots"),
    Key("solver.checkpoint.dir", str, required=True, flag="--checkpoint",
        metavar="DIR", help="write periodic solver checkpoints under DIR"),
    Key("solver.checkpoint.every", int, 10, min=1,
        help="iterations between checkpoints"),
    Key("solver.checkpoint.keep", int, 2, min=1,
        help="newest checkpoints kept"),
    Key("solver.checkpoint.resume", bool, False, flag="--resume",
        help="resume the eigensolve from the newest checkpoint under the "
        "checkpoint directory (bit-for-bit continuation)"),
    Key("observables", list,
        help="ground-state expectation values to report, one object each"),
    Key("observables.type", str, required=True, choices=tuple(_OBSERVABLES),
        help="the observable"),
    Key("observables.name", str, help="key in the result's observables"),
    Key("observables.distance", int, required=True,
        help="spin_correlation: r of S_0 . S_r"),
    Key("cluster", dict, help="run distributed (serially if absent)"),
    Key("cluster.n_locales", int, 1, min=1, help="number of locales"),
    Key("cluster.machine", str, "snellius", choices=tuple(_MACHINES),
        help="machine model of the simulated cluster"),
    Key("cluster.cores", int, min=1,
        help="cores per locale (8); machine 'laptop' only"),
    Key("cluster.backend", str, "sim", choices=BACKENDS, flag="--backend",
        help="execution backend for the distributed run: 'sim' "
        "(discrete-event simulator, modelled timings) or 'threads' (real "
        "parallel workers, wall-clock timings; see docs/BACKENDS.md)"),
    Key("cluster.matvec", dict,
        help="pipeline knobs of Sec. 5.3/6.3, echoed in the result"),
    *MATVEC_ROWS,
)

#: Command-line options that are not input-file keys (``path`` = dest).
_CLI_ROWS = (
    Key("seed", int, 0, flag="--seed",
        help="seed for the random starting vector (default: 0)"),
    Key("trace", str, flag="--trace", metavar="PATH",
        help="write a Perfetto-compatible Chrome trace-event JSON of the "
        "simulated run to PATH"),
    Key("metrics", str, flag="--metrics", metavar="PATH",
        help="write the metrics snapshot (counters and gauges) as "
        "JSON to PATH; the text table goes to stderr"),
)
_NEEDS_CLUSTER = "requires a 'cluster' section in the input file"


def input_reference() -> str:
    """The input-file reference ``README.md`` embeds: the rows as a table,
    then which keys each model / observable / machine takes."""
    lines = [key_table(ROWS), ""]
    for what, table in (
        ("hamiltonian.model", _MODELS),
        ("observables.type", _OBSERVABLES),
        ("cluster.machine", _MACHINES),
    ):
        lines += [
            f"- `{what}` `{name}` takes " + (", ".join(keys) or "no keys")
            for name, (_, keys) in table.items()
        ]
    return "\n".join(lines)


def _select(
    section, prefix: str, selector: str, table: dict, fill: bool = False
):
    """Check a section whose keys depend on its ``selector`` key.

    ``table`` maps each value of that key to ``(builder, keys)``.  Returns
    the builder bound to those of ``keys`` the section gives, and the
    checked section.
    """
    rows = [row for row in ROWS if row.section == prefix]
    given = section.get(selector) if isinstance(section, dict) else None
    head = [row for row in rows if row.key == selector]
    builder, keys = table[validate({selector: given}, head, prefix)[selector]]
    others = {key for _, ks in table.values() for key in ks} - set(keys)
    checked = validate(
        section, [row for row in rows if row.key not in others], prefix, fill
    )
    params = {k: checked[k] for k in keys if checked.get(k) is not None}
    return partial(builder, **params), checked


@dataclass
class SimulationSpec:
    """A parsed and validated simulation input."""

    n_sites: int
    expression: Expression
    basis: Basis
    solver_options: dict = field(default_factory=dict)
    cluster_options: dict | None = None
    observables: list[dict] = field(default_factory=list)

    @property
    def distributed(self) -> bool:
        return self.cluster_options is not None


def _build_basis(n_sites: int, section: dict) -> Basis:
    sector = validate(section, ROWS, "basis")
    weight = sector.pop("hamming_weight")
    if weight is not None and weight > n_sites:
        raise ConfigError(
            f"basis.hamming_weight must be at most n_sites = {n_sites}, "
            f"got {weight}"
        )
    if any(value is not None for value in sector.values()):
        group = chain_symmetries(n_sites, **sector)
        return SymmetricBasis(group, hamming_weight=weight, build=False)
    return SpinBasis(n_sites, hamming_weight=weight)


def _read_json(source):
    """The JSON document in the file ``source``, or in the string itself
    when it names no file."""
    try:
        text = str(source)
        if Path(text).exists():
            text = Path(text).read_text()
        return json.loads(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"cannot read {str(source)!r} (no such file, or not JSON): {exc}"
        ) from None


def load_simulation(source) -> SimulationSpec:
    """Parse a specification from a path, JSON string, or dict.

    Checks what the file alone decides (top level, ``hamiltonian``,
    ``basis``, ``observables``); ``solver`` and ``cluster``, which flags
    and callers may still edit, are checked by :func:`run_simulation`.
    """
    data = source if isinstance(source, dict) else _read_json(source)
    top = validate(data, ROWS)
    n_sites = top["n_sites"]
    build, _ = _select(top["hamiltonian"], "hamiltonian", "model", _MODELS)
    spec = SimulationSpec(
        n_sites=n_sites,
        expression=build(n_sites),
        basis=_build_basis(n_sites, top["basis"] or {}),
        solver_options=dict(top["solver"] or {}),
        cluster_options=top["cluster"],
    )
    for section in top["observables"] or []:
        build, _ = _select(section, "observables", "type", _OBSERVABLES)
        name, expression = build(n_sites)
        spec.observables.append({"name": name, "expression": expression})
    return spec


def _build_distributed(spec: SimulationSpec):
    """The ``cluster`` section -> ``(operator, output)``: the distributed
    operator on the enumerated basis and what the set-up reports."""
    from repro.distributed.enumeration import enumerate_states

    make_machine, options = _select(
        spec.cluster_options, "cluster", "machine", _MACHINES, fill=True
    )
    knobs = options["matvec"]
    if knobs is not None:
        knobs = validate(knobs, ROWS, "cluster.matvec", fill=False)
    cluster = Cluster(
        options["n_locales"], make_machine(), backend=options["backend"]
    )
    dbasis, enum_report = enumerate_states(
        cluster, spec.basis, use_weight_shortcut=True
    )
    operator = DistributedOperator(spec.expression, dbasis, **(knobs or {}))
    output = {
        "n_locales": options["n_locales"],
        "simulated_seconds": None,  # the solve's; its place in the output
        "enumeration_seconds": enum_report.elapsed,
    }
    if knobs:
        output["matvec"] = knobs
    return operator, output


def run_simulation(spec: SimulationSpec, seed: int = 0) -> dict:
    """Execute the eigensolve described by a spec.

    Returns a JSON-serializable result dictionary (eigenvalues, dimension,
    iteration count, and — for distributed runs — simulated time).
    """
    from repro.linalg.lanczos import lanczos, lanczos_distributed
    from repro.linalg.spaces import NumpyVectorSpace
    from repro.operators.observables import expectation

    solver = validate(spec.solver_options, ROWS, "solver")
    solve = {
        "k": solver["k"],
        "tol": solver["tol"],
        "max_iter": solver["max_iter"],
        "compute_eigenvectors": bool(spec.observables),
    }
    if solver["checkpoint"]:
        checkpoint = validate(solver["checkpoint"], ROWS, "solver.checkpoint")
        solve["resume"] = checkpoint.pop("resume")
        solve.update({f"checkpoint_{k}": v for k, v in checkpoint.items()})

    if spec.distributed:
        operator, extra = _build_distributed(spec)
        result, sim_time = lanczos_distributed(operator, seed=seed, **solve)
        extra["simulated_seconds"] = sim_time
    else:
        basis = spec.basis
        if isinstance(basis, SymmetricBasis):
            basis.build()
        operator, extra = Operator(spec.expression, basis), {}
        v0 = NumpyVectorSpace().random(np.empty(basis.dim, operator.dtype), seed)
        result = lanczos(operator.matvec, v0, **solve)

    output = {
        "eigenvalues": result.eigenvalues.tolist(),
        "dimension": operator.dim,
        "iterations": result.n_iterations,
        "converged": result.converged,
        **extra,
    }
    if spec.observables:
        ground = result.eigenvectors[0]
        output["observables"] = {
            entry["name"]: expectation(entry["expression"], operator.basis, ground)
            for entry in spec.observables
        }
    return output


def _merge_flags(spec: SimulationSpec, args) -> None:
    """Put every input-file key a flag set where the file would have."""
    for row in ROWS:
        value = row.flag and getattr(args, row.flag[2:].replace("-", "_"))
        if value is None or value is False:  # not given (0 is a value)
            continue
        root, *inner = row.section.split(".")
        if root == "cluster" and not spec.distributed:
            raise ConfigError(f"{row.flag} {_NEEDS_CLUSTER}")
        target = (
            spec.cluster_options if root == "cluster" else spec.solver_options
        )
        for name in inner:
            child = dict(target.get(name) or {})
            target[name] = child
            target = child
        target[row.key] = value


class _Parser(argparse.ArgumentParser):
    """A command line that does not parse (an unknown flag, a value of the
    wrong type) is a :class:`ConfigError` like any other bad input."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> None:
    import sys

    from repro import telemetry

    parser = _Parser(
        description="Run an exact-diagonalization simulation from a JSON file"
    )
    parser.add_argument("input", help="path to the JSON input file")
    for row in (*_CLI_ROWS, *(row for row in ROWS if row.flag)):
        text = row.help
        if row.path.startswith("cluster."):
            text += f"; {_NEEDS_CLUSTER}"
        if row.type is bool:
            parser.add_argument(row.flag, action="store_true", help=text)
            continue
        parser.add_argument(
            row.flag,
            type=row.type if row.type in (int, float) else str,
            choices=row.choices or None,
            metavar=row.metavar,
            default=row.default if row in _CLI_ROWS else None,
            help=text,
        )
    args = parser.parse_args(argv)
    spec = load_simulation(args.input)
    _merge_flags(spec, args)
    if args.resume and not spec.solver_options["checkpoint"].get("dir"):
        raise ConfigError("--resume requires --checkpoint DIR")

    if args.trace is None and args.metrics is None:
        print(json.dumps(run_simulation(spec, seed=args.seed), indent=2))
        return

    tele = telemetry.Telemetry.enabled(trace=args.trace is not None)
    with telemetry.use(tele):
        output = run_simulation(spec, seed=args.seed)
    if args.trace is not None:
        tele.trace.save(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics is not None:
        snapshot = tele.metrics.snapshot()
        Path(args.metrics).write_text(
            json.dumps(snapshot.to_json(), indent=2)
        )
        print(snapshot.table(), file=sys.stderr)
    print(json.dumps(output, indent=2))

