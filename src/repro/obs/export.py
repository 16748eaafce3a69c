"""Registry exporters: Prometheus text exposition and JSON.

Both exports are deterministic (instruments and children emitted in sorted
order) so telemetry snapshots can be diffed across runs like the decision
traces.  Prometheus metric names are prefixed with the ``repro_`` namespace
and counters get the conventional ``_total`` suffix; histograms emit the
standard cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.

Label *values* are arbitrary strings — tenant names, ``owner->reader``
cross-tenant pairs — so they are escaped per the text exposition format
(backslash, double-quote and line feed; ``\\`` first so the escapes
themselves never double-escape).  HELP text escapes backslash and line
feed.  :func:`lint_prometheus_text` is a standalone checker for the
format (metric/label name charset, escape validity, histogram bucket
monotonicity, counter naming) used by the CI service-obs smoke job to
keep the exposition honest end to end.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List

from .registry import LABEL_NAMES, MetricsRegistry, labels_dict


def _escape(value: str) -> str:
    """Escape a label value per the exposition format (v0.0.4)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP docstrings escape only backslash and line feed."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_str(labels: Dict[str, str], extra: Dict[str, str] = {}) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"' for k, v in merged.items())
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry, namespace: str = "repro") -> str:
    """The registry in the Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    names = registry.label_names
    for name in registry.names():
        kind = registry.kind_of(name)
        metric = f"{namespace}_{name}" if namespace else name
        if kind == "counter":
            metric += "_total"
        help_text = _escape_help(f"{name} recorded by the MDF engine")
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {kind}")
        for labels, instrument in sorted(registry.series(name).items()):
            label_map = labels_dict(labels, names)
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(instrument.bounds, instrument.counts):
                    cumulative += count
                    lines.append(
                        f"{metric}_bucket{_label_str(label_map, {'le': _fmt_value(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{metric}_bucket{_label_str(label_map, {'le': '+Inf'})}"
                    f" {instrument.count}"
                )
                lines.append(f"{metric}_sum{_label_str(label_map)} {_fmt_value(instrument.sum)}")
                lines.append(f"{metric}_count{_label_str(label_map)} {instrument.count}")
            else:
                lines.append(f"{metric}{_label_str(label_map)} {_fmt_value(instrument.value)}")
    return "\n".join(lines) + "\n"


def registry_to_dict(registry: MetricsRegistry) -> Dict[str, Any]:
    """The registry as a JSON-friendly dict (deterministic ordering)."""
    out: Dict[str, Any] = {}
    names = registry.label_names
    for name in registry.names():
        kind = registry.kind_of(name)
        series: List[Dict[str, Any]] = []
        for labels, instrument in sorted(registry.series(name).items()):
            entry: Dict[str, Any] = {"labels": labels_dict(labels, names)}
            if kind == "histogram":
                entry.update(
                    count=instrument.count,
                    sum=instrument.sum,
                    p50=_nan_none(instrument.p50),
                    p95=_nan_none(instrument.p95),
                    p99=_nan_none(instrument.p99),
                    buckets=[
                        {"le": bound, "count": count}
                        for bound, count in zip(instrument.bounds, instrument.counts)
                        if count
                    ],
                )
            else:
                entry["value"] = instrument.value
            series.append(entry)
        out[name] = {"kind": kind, "series": series}
    return out


def _nan_none(value: float):
    return None if value != value else value


def registry_json(registry: MetricsRegistry) -> str:
    """JSON text export of :func:`registry_to_dict`."""
    return json.dumps(registry_to_dict(registry), indent=2, sort_keys=True)


# --------------------------------------------------------------- format lint

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
#: one sample line: name, optional {labels}, value (timestamp unsupported)
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
#: a correctly escaped label value: any char except raw ", \ and newline,
#: or one of the three legal escapes
_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\\\|\\"|\\n)*)"\s*(?:,|$)'
)


def _parse_labels(raw: str) -> Dict[str, str]:
    """Parse a label block strictly; raises ValueError on any bad escape."""
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = _LABEL_RE.match(raw, pos)
        if match is None:
            raise ValueError(f"malformed label block at offset {pos}: {raw!r}")
        labels[match.group("name")] = match.group("value")
        pos = match.end()
    return labels


def lint_prometheus_text(text: str) -> List[str]:
    """Check a text exposition for format violations; returns problems.

    Validates what the real Prometheus parser would reject: metric and
    label name charsets, label-value escaping (raw ``"``/``\\``/newline
    inside a value is a parse error), sample values that are not valid
    floats, HELP/TYPE declared before samples, cumulative (monotone)
    histogram buckets, and counter families carrying the ``_total``
    suffix.  Empty list = clean.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    bucket_last: Dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.fullmatch(parts[2]):
                problems.append(f"line {lineno}: malformed comment line: {line!r}")
                continue
            if parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    problems.append(
                        f"line {lineno}: unknown TYPE {parts[3]!r} for {parts[2]}"
                    )
                typed[parts[2]] = parts[3]
                if parts[3] == "counter" and not parts[2].endswith("_total"):
                    problems.append(
                        f"line {lineno}: counter {parts[2]} lacks the _total suffix"
                    )
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparsable sample: {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"line {lineno}: sample {name} has no TYPE declaration")
        raw_labels = match.group("labels")
        labels: Dict[str, str] = {}
        if raw_labels is not None:
            try:
                labels = _parse_labels(raw_labels)
            except ValueError as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            for label_name in labels:
                if not _LABEL_NAME_RE.fullmatch(label_name):
                    problems.append(
                        f"line {lineno}: bad label name {label_name!r}"
                    )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(f"line {lineno}: bad sample value {value!r}")
        if name.endswith("_bucket"):
            series = name + json.dumps(
                sorted((k, v) for k, v in labels.items() if k != "le"),
                sort_keys=True,
            )
            count = int(float(value))
            if count < bucket_last.get(series, 0):
                problems.append(
                    f"line {lineno}: histogram buckets of {name} not cumulative"
                )
            bucket_last[series] = count
    return problems


__all__ = [
    "LABEL_NAMES",
    "lint_prometheus_text",
    "prometheus_text",
    "registry_json",
    "registry_to_dict",
]
