"""OpenMetrics v1 text export of a :class:`MetricsRegistry`.

One-shot rendering (:func:`render_openmetrics`, :func:`write_openmetrics`)
plus a deliberately strict line parser (:func:`parse_openmetrics`) used by
CI to validate that what we export is what a Prometheus-compatible scraper
would actually accept.

Mapping from our instruments to OpenMetrics families:

- ``Counter`` -> ``counter`` (sample name gains the mandatory ``_total``
  suffix);
- ``Gauge`` -> ``gauge``;
- ``Histogram`` (we keep streaming count/sum/min/max, not buckets) ->
  ``summary`` (``_count``/``_sum`` samples) plus two ``gauge`` families
  ``<name>_min`` / ``<name>_max`` (omitted while empty).

Metric names are sanitized (``matvec.bytes`` -> ``matvec_bytes``) and
label values escaped per the spec (backslash, double-quote, newline).
Per-job mirror registries (see :mod:`repro.telemetry.jobs`) export the
same families with an extra ``job`` label, so a scraper can watch both
the global totals and the per-tenant breakdown from one file.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "render_openmetrics",
    "write_openmetrics",
    "parse_openmetrics",
    "OpenMetricsError",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _sanitize(name: str) -> str:
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def _escape(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _labelset(labels: Iterable[tuple[str, Any]]) -> str:
    parts = [f'{_sanitize(k)}="{_escape(v)}"' for k, v in labels]
    return "{" + ",".join(parts) + "}" if parts else ""


def _num(value: float) -> str:
    value = float(value)
    if value != value:  # NaN never appears in our instruments; be safe
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Family:
    """One metric family: a type plus its samples, rendered in a block."""

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.samples: list[str] = []

    def add(self, suffix: str, labels, value: float) -> None:
        self.samples.append(
            f"{self.name}{suffix}{_labelset(labels)} {_num(value)}"
        )

    def render(self) -> list[str]:
        return [f"# TYPE {self.name} {self.kind}"] + self.samples


def _collect(
    families: dict[str, _Family], snapshot, extra_labels: tuple = ()
) -> None:
    """Fold one MetricsSnapshot into the family table."""

    def family(raw_name: str, kind: str, suffix: str = "") -> _Family:
        name = _sanitize(raw_name) + suffix
        fam = families.get(name)
        if fam is None:
            fam = families[name] = _Family(name, kind)
        elif fam.kind != kind:
            raise OpenMetricsError(
                f"metric {name!r} registered as both {fam.kind} and {kind}"
            )
        return fam

    for (name, labels), value in snapshot.counters.items():
        family(name, "counter").add("_total", extra_labels + labels, value)
    for (name, labels), value in snapshot.gauges.items():
        family(name, "gauge").add("", extra_labels + labels, value)
    for (name, labels), stats in snapshot.histograms.items():
        fam = family(name, "summary")
        fam.add("_count", extra_labels + labels, stats["count"])
        fam.add("_sum", extra_labels + labels, stats["sum"])
        if stats["min"] is not None:
            family(name, "gauge", "_min").add(
                "", extra_labels + labels, stats["min"]
            )
        if stats["max"] is not None:
            family(name, "gauge", "_max").add(
                "", extra_labels + labels, stats["max"]
            )


def render_openmetrics(snapshot, jobs: dict | None = None) -> str:
    """Render a :class:`MetricsSnapshot` as OpenMetrics v1 text.

    ``jobs`` maps job id -> :class:`JobContext` (or any object with a
    ``metrics`` registry); their series are merged into the same
    families with a ``job`` label.  Ends with the mandatory ``# EOF``.
    """
    families: dict[str, _Family] = {}
    _collect(families, snapshot)
    for job_id, ctx in (jobs or {}).items():
        job_snapshot = ctx.metrics.snapshot()
        _collect(families, job_snapshot, extra_labels=(("job", job_id),))
    lines: list[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path, registry, jobs: dict | None = None) -> Path:
    """One-shot export of a live registry (or snapshot) to ``path``.

    Writes atomically (tmp file + rename) so a concurrent reader never
    sees a torn file.
    """
    snapshot = (
        registry.snapshot() if hasattr(registry, "snapshot") else registry
    )
    if hasattr(snapshot, "snapshot"):  # a registry slipped through
        snapshot = snapshot.snapshot()
    path = Path(path)
    text = render_openmetrics(snapshot, jobs=jobs)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)
    return path


class OpenMetricsError(ValueError):
    """Raised by :func:`parse_openmetrics` on any spec violation."""


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>[0-9.eE+-]+))?$"
)
_LABEL = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_openmetrics(text: str) -> dict[str, dict]:
    """Strictly parse OpenMetrics text; the validator CI runs on exports.

    Returns ``{family_name: {"type": ..., "samples": [(name, labels,
    value), ...]}}``.  Raises :class:`OpenMetricsError` (with a line
    number) on: missing ``# EOF``, content after ``# EOF``, samples
    before any ``# TYPE``, samples not belonging to the declared family,
    duplicate family declarations, malformed names/labels/values, or a
    counter sample missing its ``_total`` suffix.
    """
    families: dict[str, dict] = {}
    current: str | None = None
    lines = text.split("\n")
    if text and not text.endswith("\n"):
        raise OpenMetricsError("exposition must end with a newline")
    if lines and lines[-1] == "":
        lines.pop()
    saw_eof = False
    for lineno, line in enumerate(lines, start=1):
        if saw_eof:
            raise OpenMetricsError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if not line:
            raise OpenMetricsError(f"line {lineno}: blank line")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise OpenMetricsError(
                    f"line {lineno}: malformed TYPE line {line!r}"
                )
            _, _, name, kind = parts
            if not _NAME_OK.match(name):
                raise OpenMetricsError(
                    f"line {lineno}: invalid metric name {name!r}"
                )
            if kind not in {
                "counter",
                "gauge",
                "summary",
                "histogram",
                "unknown",
                "info",
                "stateset",
                "gaugehistogram",
            }:
                raise OpenMetricsError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if name in families:
                raise OpenMetricsError(
                    f"line {lineno}: duplicate family {name!r}"
                )
            families[name] = {"type": kind, "samples": []}
            current = name
            continue
        if line.startswith("# HELP ") or line.startswith("# UNIT "):
            continue
        if line.startswith("#"):
            raise OpenMetricsError(
                f"line {lineno}: unexpected comment {line!r}"
            )
        match = _SAMPLE.match(line)
        if not match:
            raise OpenMetricsError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        if current is None:
            raise OpenMetricsError(
                f"line {lineno}: sample {name!r} before any # TYPE"
            )
        kind = families[current]["type"]
        allowed = {
            "counter": {"_total", "_created"},
            "summary": {"_count", "_sum", ""},
            "histogram": {"_bucket", "_count", "_sum", "_created"},
        }.get(kind, {""})
        suffix = name[len(current):] if name.startswith(current) else None
        if suffix is None or suffix not in allowed:
            raise OpenMetricsError(
                f"line {lineno}: sample {name!r} does not belong to "
                f"family {current!r} ({kind})"
            )
        labels_raw = match.group("labels")
        labels: dict[str, str] = {}
        if labels_raw:
            body = labels_raw[1:-1]
            consumed = 0
            for lab in _LABEL.finditer(body):
                if lab.group("key") in labels:
                    raise OpenMetricsError(
                        f"line {lineno}: duplicate label "
                        f"{lab.group('key')!r}"
                    )
                labels[lab.group("key")] = lab.group("value")
                consumed += len(lab.group(0))
            leftover = len(body) - consumed - max(0, len(labels) - 1)
            if body and (not labels or leftover != 0):
                raise OpenMetricsError(
                    f"line {lineno}: malformed label set {labels_raw!r}"
                )
        value_raw = match.group("value")
        try:
            value = float(value_raw)
        except ValueError:
            raise OpenMetricsError(
                f"line {lineno}: non-numeric value {value_raw!r}"
            ) from None
        if kind == "counter" and value < 0:
            raise OpenMetricsError(
                f"line {lineno}: negative counter value {value_raw!r}"
            )
        families[current]["samples"].append((name, labels, value))
    if not saw_eof:
        raise OpenMetricsError("missing # EOF terminator")
    return families
