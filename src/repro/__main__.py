"""Command-line entry point: ``python -m repro input.json``.

Runs the exact-diagonalization simulation described by a JSON input file
(see :mod:`repro.config` for the schema) and prints the result as JSON.
``python -m repro --help`` lists the flags (generated from the same rows
as the input-file keys; ``docs/OBSERVABILITY.md`` describes what the
observability ones write).  Bad input — an unreadable file, an unknown or
out-of-range key, a flag that does not apply — exits 2 with a one-line
``repro: error: ...`` on stderr.
"""

import sys

from repro.config import main
from repro.errors import ReproError

if __name__ == "__main__":
    try:
        main()
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        sys.exit(2)
