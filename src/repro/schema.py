"""One declaration per knob: schema rows and the walker that checks them.

Every key an input file may carry is one :class:`Key` row — dotted path,
type, default, range or choices and, where a command-line flag sets it, the
flag with its help text.  The rows live beside what they configure
(:data:`repro.config.ROWS`, :data:`repro.distributed.operator.MATVEC_ROWS`);
:func:`validate` checks one section of input against them, and
``python -m repro`` generates its flags and :func:`key_table` the
documentation from the same rows.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterable, NamedTuple

import numpy as np

from repro.errors import ConfigError

__all__ = ["Key", "require_positive", "validate", "key_table"]

_TYPE_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    str: "a string",
    dict: "an object",
    list: "a list",
}


class Key(NamedTuple):
    """One key of an input file (and the flag that sets it, if any)."""

    path: str  #: dotted path, e.g. ``cluster.matvec.batch_size``
    type: type  #: int, float (integers accepted), bool, str, dict or list
    default: Any = None  #: ``None``: the consumer's own default
    required: bool = False
    choices: tuple = ()
    min: float | None = None  #: inclusive lower bound
    above: float | None = None  #: exclusive lower bound
    max: float | None = None  #: inclusive upper bound
    flag: str | None = None  #: command-line flag that overrides the file
    metavar: str | None = None
    help: str = ""

    @property
    def section(self) -> str:
        return self.path.rpartition(".")[0]

    @property
    def key(self) -> str:
        return self.path.rpartition(".")[2]

    @property
    def constraint(self) -> str:
        """The accepted values in words (error messages, documentation)."""
        if self.choices:
            return "one of " + ", ".join(map(json.dumps, self.choices))
        bounds = ((">=", self.min), (">", self.above), ("<=", self.max))
        limits = [f"{sign} {b}" for sign, b in bounds if b is not None]
        return " ".join([_TYPE_NAMES[self.type], " and ".join(limits)]).strip()


def check(value, row: Key):
    """``value`` as ``row`` declares it (numbers widened to ``float`` where
    the row says so, NumPy integers to ``int``), or :class:`ConfigError`
    naming the dotted path."""
    kind = {float: (int, float), int: (int, np.integer)}.get(row.type, row.type)
    ok = isinstance(value, kind) and (
        row.type is bool or not isinstance(value, bool)
    )
    if ok and row.type is int:
        value = int(value)
    if ok and row.type is float:
        # finite (NaN and the infinities fail) and, if an integer, not too
        # large to widen
        ok = abs(value) <= sys.float_info.max
        value = float(value) if ok else value
    if (
        not ok
        or (row.choices and value not in row.choices)
        or (row.min is not None and value < row.min)
        or (row.above is not None and value <= row.above)
        or (row.max is not None and value > row.max)
    ):
        raise ConfigError(f"{row.path} must be {row.constraint}, got {value!r}")
    return value


def require_positive(**knobs) -> None:
    """Raise :class:`ConfigError` unless every knob is an integer >= 1 (a
    zero or negative step would silently skip work, a boolean is no
    count)."""
    for name, value in knobs.items():
        if (
            not isinstance(value, (int, np.integer))
            or isinstance(value, bool)
            or value < 1
        ):
            raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


def validate(
    section, rows: Iterable[Key], prefix: str = "", fill: bool = True
) -> dict:
    """Check one section of input against the rows directly under ``prefix``.

    Unknown key, wrong type, out of range, missing required key →
    :class:`ConfigError` naming the dotted path; ``null`` counts as absent.
    Returns a checked copy — with ``fill``, holding every key of the
    section (absent ones at their row's default).  Nested sections come
    back as given: whoever consumes one validates it under its own prefix.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix or 'the input'} must be an object")
    known = {row.key: row for row in rows if row.section == prefix}
    dot = prefix + "." if prefix else ""
    for key in section:
        if key not in known:
            raise ConfigError(
                f"unknown key {dot}{key}; available: {sorted(known)}"
            )
    checked = {}
    for key, row in known.items():
        value = section.get(key)
        if value is not None:
            checked[key] = check(value, row)
        elif row.required:
            raise ConfigError(f"{row.path} is required")
        elif fill:
            checked[key] = row.default
    return checked


def key_table(rows: Iterable[Key]) -> str:
    """The rows as a Markdown table (``README.md`` embeds it; a test keeps
    the two equal)."""
    lines = ["| key | value | default | flag | meaning |", "|---|---|---|---|---|"]
    for row in rows:
        default = "required" if row.required else (
            "" if row.default is None else f"`{json.dumps(row.default)}`"
        )
        flag = f"`{row.flag}`" if row.flag else ""
        lines.append(
            f"| `{row.path}` | {row.constraint} | {default} | {flag} "
            f"| {row.help} |"
        )
    return "\n".join(lines)
