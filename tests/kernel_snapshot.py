"""Bit-identity snapshot of the two cold-path kernels, kept as a tool.

A change to ``GroupKernel.state_info`` or ``SortedRanker`` that claims
"same numbers out" runs these cases before and after and compares what the
kernels and everything above them return, to the last bit.  Per case — a
chain of 10-16 sites or the 4x4 torus in one sector, real and complex
characters, half filling — it hashes

    state_info   rep, stab and the phase of every surviving state, over the
                 raw states of one Heisenberg matvec and over random states
    index        ``basis.index`` of the surviving representatives
    cold         the serial matrix-free ``y = H x`` (``plan=False``)
    sim          a three-locale ``pc`` matvec on ``sim``: every part of the
                 result, simulated seconds, messages, bytes, and the
                 enumeration's simulated seconds

    PYTHONPATH=src python tests/kernel_snapshot.py --check
    PYTHONPATH=src python tests/kernel_snapshot.py --record   # at a named commit

``--record`` rewrites ``tests/data/kernel_snapshot.json`` and belongs to
the commit whose behaviour is the reference (say which in CHANGES.md).
Tier-1 runs ``--check`` as ``tests/test_kernel_snapshot.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import repro
from repro.basis import SymmetricBasis
from repro.distributed import (
    DistributedOperator,
    DistributedVector,
    enumerate_states,
)
from repro.runtime import Cluster, laptop_machine
from repro.symmetry import (
    SymmetryGroup,
    chain_symmetries,
    rectangle_translation,
    spin_inversion,
)
from repro.symmetry.kernels import STAB_TOL

RECORDING = Path(__file__).parent / "data" / "kernel_snapshot.json"


def _torus(kx: int, ky: int, inversion: int | None) -> SymmetryGroup:
    generators = [
        rectangle_translation(4, 4, 0, kx),
        rectangle_translation(4, 4, 1, ky),
    ]
    if inversion is not None:
        generators.append(spin_inversion(16, inversion))
    return SymmetryGroup.from_generators(generators)


#: name -> (group, expression); chains are (sites, momentum, parity, inversion)
CASES = {
    **{
        f"chain{n}/k{k}/p{p}/z{z}": (
            chain_symmetries(n, k, p, z), repro.heisenberg_chain(n)
        )
        for n, k, p, z in [
            (10, 0, 0, 0),
            (10, 5, 1, 1),
            (10, 3, None, None),
            (12, 0, 0, 0),
            (12, 5, None, 1),
            (14, 1, None, None),
            (14, 7, 0, None),
            (16, 0, 0, 0),
            (16, 3, None, 0),
        ]
    },
    "torus4x4/k00/z0": (_torus(0, 0, 0), repro.heisenberg_square(4, 4)),
    "torus4x4/k12": (_torus(1, 2, None), repro.heisenberg_square(4, 4)),
}


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype} {array.shape} ".encode())
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _state_info(group: SymmetryGroup, states: np.ndarray):
    rep, phase, stab = group.state_info(states)
    alive = stab > STAB_TOL
    return rep, stab, phase[alive], alive


def digests(name: str) -> dict[str, str]:
    group, expression = CASES[name]
    n = group.n_sites
    basis = SymmetricBasis(group, hamming_weight=n // 2)
    op = repro.Operator(expression, basis, plan=False)
    rng = np.random.default_rng(24)

    _, raw, _ = op.compiled.apply_off_diag(basis.states)
    rep, stab, phase, alive = _state_info(group, raw)
    anywhere = rng.integers(0, 1 << n, size=4096, dtype=np.uint64)

    x = rng.standard_normal(basis.dim).astype(op.dtype)
    if op.dtype.kind == "c":
        x += 1j * rng.standard_normal(basis.dim)

    cluster = Cluster(3, laptop_machine(cores=2))
    dbasis, enumeration = enumerate_states(
        cluster, SymmetricBasis(group, hamming_weight=n // 2, build=False),
        use_weight_shortcut=True,
    )
    dop = DistributedOperator(expression, dbasis, method="pc", batch_size=128)
    y = dop.matvec(DistributedVector.full_random(dbasis, seed=7))
    report = dop.last_report
    return {
        "state_info": _digest(
            rep, stab, phase, *_state_info(group, anywhere)[:3]
        ),
        "index": _digest(basis.index(rep[alive])),
        "cold": _digest(op.matvec(x)),
        "sim": _digest(*dbasis.parts, *dbasis.scales, *y.parts)
        + f" {enumeration.elapsed!r} {report.elapsed!r}"
        f" {report.messages!r} {report.bytes_sent!r}",
    }


def mismatches() -> list[str]:
    """``name: part`` for every digest that differs from the recording."""
    recorded = json.loads(RECORDING.read_text())
    return [
        f"{name}: {part}"
        for name in CASES
        for part, digest in digests(name).items()
        if recorded.get(name, {}).get(part) != digest
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true")
    action.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        rows = (f"{json.dumps(n)}: {json.dumps(digests(n))}" for n in CASES)
        RECORDING.write_text("{\n" + ",\n".join(rows) + "\n}\n")
        print(f"recorded {len(CASES)} cases in {RECORDING}")
        return 0
    differing = mismatches()
    print(*differing, sep="\n")
    print(f"{len(CASES)} cases, {len(differing)} digest(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
