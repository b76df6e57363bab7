"""The persistent tuned-settings cache.

One JSON file maps workload fingerprints (see
:mod:`repro.autotune.fingerprint`) to tuned knob assignments plus the
measurements that justified them.  The file is versioned — a format bump
discards stale entries instead of misapplying them — and contains no
timestamps or host names, so tuning the same workload twice writes
byte-identical files (the determinism the CI smoke gate checks).

The default location is ``benchmarks/baselines/autotune_cache.json``,
relative to the working directory and created on the first write;
override it per tuner with ``Autotuner(cache=...)`` / the ``--tune-cache``
flag, or process-wide with the ``REPRO_TUNE_CACHE`` environment variable.

The file comes from outside the program, so every entry is checked where
it is read: the knobs against the rows that declare them
(:data:`repro.distributed.operator.MATVEC_ROWS`), the measurements as
numbers.  A malformed entry is a :class:`~repro.errors.ConfigError`
naming the file, the fingerprint and the key.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.distributed.operator import MATVEC_ROWS
from repro.errors import ConfigError
from repro.resilience.checkpoint import atomic_write
from repro.schema import Key, validate

__all__ = ["TuneCache", "CACHE_VERSION", "default_cache_path"]

CACHE_VERSION = 1

#: Resolved relative to the current working directory, like the bench
#: harness's ``benchmarks/results`` — the repo checkout is the unit of
#: "known good" here.
DEFAULT_CACHE_RELPATH = Path("benchmarks") / "baselines" / "autotune_cache.json"


#: What an entry holds besides its knobs (``TuneResult.to_entry`` writes
#: them, ``from_entry`` reads them back).
ENTRY_ROWS = (
    Key("knobs", dict),
    Key("default_seconds", float, min=0),
    Key("tuned_seconds", float, min=0),
    Key("clock", str, choices=("sim", "wall")),
    Key("method", str),
    Key("n_measured", int, min=0),
)


def _checked(section, rows, prefix: str = "") -> dict:
    """The keys of ``section`` that ``rows`` declare, validated.  Keys only
    an older recipe wrote (knobs since dropped) are left out, not applied."""
    if not isinstance(section, dict):
        raise ConfigError(f"must be an object, got {section!r}")
    known = {row.key for row in rows}
    section = {k: v for k, v in section.items() if k in known}
    return validate(section, rows, prefix, fill=False)


def default_cache_path() -> Path:
    env = os.environ.get("REPRO_TUNE_CACHE")
    return Path(env) if env else DEFAULT_CACHE_RELPATH


class TuneCache:
    """A dict of fingerprint -> tuned entry, persisted as versioned JSON.

    Entries are plain dicts (see :class:`~repro.autotune.tuner.TuneResult`
    for the producer): ``{"knobs": {...}, "default_seconds": ...,
    "tuned_seconds": ..., "clock": "sim"|"wall", "method": ...,
    "n_measured": ...}``.  :meth:`put` persists immediately and
    atomically (write-to-temp + rename), so concurrent readers never see
    a torn file.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()
        self.entries: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"tune cache {self.path} is not valid JSON (corrupt?): {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(
                f"tune cache {self.path} must be a JSON object, got "
                f"{type(data).__name__}"
            )
        if data.get("version") != CACHE_VERSION:
            # Older (or newer) recipe: start fresh rather than misapply.
            return
        entries = data.get("entries", {})
        if not isinstance(entries, dict):
            raise ConfigError(
                f"tune cache {self.path}: 'entries' must be an object, got "
                f"{type(entries).__name__}"
            )
        for fingerprint, entry in entries.items():
            try:
                entry = _checked(entry, ENTRY_ROWS)
                if "knobs" in entry:
                    entry["knobs"] = _checked(
                        entry["knobs"], MATVEC_ROWS, "cluster.matvec"
                    )
            except ConfigError as exc:
                raise ConfigError(
                    f"tune cache {self.path}, entry {fingerprint}: {exc}"
                ) from None
            self.entries[fingerprint] = entry

    def get(self, fingerprint: str) -> dict | None:
        return self.entries.get(fingerprint)

    def put(self, fingerprint: str, entry: dict) -> None:
        self.entries[fingerprint] = entry
        self.save()

    def to_json(self) -> dict:
        return {
            "version": CACHE_VERSION,
            "entries": {
                key: self.entries[key] for key in sorted(self.entries)
            },
        }

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        atomic_write(self.path, payload.encode())

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries
