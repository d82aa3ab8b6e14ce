#!/usr/bin/env python3
"""Validate Prometheus text exposition format (version 0.0.4).

Usage: validate_prom.py [FILE]     (reads stdin when FILE is omitted)

Checks the grammar rules the MetricsRegistry exporter promises:
  * metric and label names match the exposition charset;
  * label values escape backslash, double quote, and newline;
  * HELP/TYPE appear at most once per family, before the family's samples,
    and every family's lines are contiguous;
  * sample values parse as floats (including +Inf/-Inf/NaN);
  * counter samples are non-negative;
  * histogram families expose _bucket series with strictly ascending,
    cumulative le boundaries (a repeated bound is rejected) ending in a
    +Inf bucket that equals _count, plus _sum/_count;
  * every _bucket series in one exposition carries the same ordered le set:
    the exporter writes one ladder (le = 2^k s, then +Inf) for every
    histogram, so a series on other edges is a second bucket layout.

Exits 0 when the input is valid, 1 with one message per violation otherwise.
"""

import math
import re
import sys

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?\s*$"
)
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def parse_labels(body, line_no, errors):
    """Parses the inner label body; returns a list of (name, value) pairs."""
    pairs = []
    i = 0
    while i < len(body):
        eq = body.find("=", i)
        if eq < 0:
            errors.append(f"line {line_no}: label without '=': {body[i:]!r}")
            return pairs
        name = body[i:eq]
        if not LABEL_NAME.match(name):
            errors.append(f"line {line_no}: bad label name {name!r}")
        if eq + 1 >= len(body) or body[eq + 1] != '"':
            errors.append(f"line {line_no}: unquoted value for label {name!r}")
            return pairs
        j = eq + 2
        value = []
        while j < len(body):
            c = body[j]
            if c == "\\":
                if j + 1 >= len(body) or body[j + 1] not in ('\\', '"', "n"):
                    errors.append(
                        f"line {line_no}: invalid escape in label {name!r}")
                    return pairs
                value.append("\n" if body[j + 1] == "n" else body[j + 1])
                j += 2
            elif c == '"':
                break
            elif c == "\n":
                errors.append(
                    f"line {line_no}: raw newline in label {name!r}")
                return pairs
            else:
                value.append(c)
                j += 1
        else:
            errors.append(f"line {line_no}: unterminated label {name!r}")
            return pairs
        pairs.append((name, "".join(value)))
        j += 1  # closing quote.
        if j < len(body) and body[j] == ",":
            j += 1
        elif j < len(body):
            errors.append(
                f"line {line_no}: expected ',' after label {name!r}")
            return pairs
        i = j
    return pairs


def parse_value(text, line_no, errors):
    try:
        return float(text.replace("+Inf", "inf").replace("-Inf", "-inf"))
    except ValueError:
        errors.append(f"line {line_no}: unparseable value {text!r}")
        return None


def family_of(name, kind):
    """Sample-name -> family, folding histogram suffixes onto the family."""
    if kind == "histogram":
        for suffix in HISTOGRAM_SUFFIXES:
            if name.endswith(suffix):
                return name[: -len(suffix)]
    return name


def check_histograms(samples, types, errors):
    """Cross-sample histogram checks, grouped by (family, non-le labels)."""
    groups = {}
    for name, labels, value, line_no in samples:
        family = None
        for suffix in HISTOGRAM_SUFFIXES:
            if name.endswith(suffix) and types.get(name[: -len(suffix)]) == \
                    "histogram":
                family = name[: -len(suffix)]
                part = suffix
                break
        if family is None:
            continue
        rest = tuple(sorted((k, v) for k, v in labels if k != "le"))
        group = groups.setdefault((family, rest), {"buckets": [], "sum": None,
                                                   "count": None})
        if part == "_bucket":
            le = dict(labels).get("le")
            if le is None:
                errors.append(f"line {line_no}: {name} bucket without le")
                continue
            bound = parse_value(le, line_no, errors)
            group["buckets"].append((bound, value, line_no))
        elif part == "_sum":
            group["sum"] = value
        else:
            group["count"] = value

    ladder = None  # (bounds, where) of the first histogram series.
    for (family, rest), group in groups.items():
        where = family + (str(dict(rest)) if rest else "")
        buckets = group["buckets"]
        if not buckets:
            errors.append(f"{where}: histogram without _bucket series")
            continue
        bounds = [b for b, _, _ in buckets]
        if any(b is None for b in bounds):
            continue  # already reported.
        ladder = ladder or (bounds, where)
        if bounds != ladder[0]:
            errors.append(f"{where}: le ladder {bounds} differs from "
                          f"{ladder[1]}'s {ladder[0]}")
        if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
            errors.append(
                f"{where}: le bounds not strictly ascending: {bounds}")
        if not math.isinf(bounds[-1]):
            errors.append(f"{where}: missing le=\"+Inf\" bucket")
        counts = [c for _, c, _ in buckets]
        if any(counts[i] > counts[i + 1] for i in range(len(counts) - 1)):
            errors.append(f"{where}: bucket counts not cumulative: {counts}")
        if group["count"] is None or group["sum"] is None:
            errors.append(f"{where}: missing _sum or _count")
        elif math.isinf(bounds[-1]) and counts[-1] != group["count"]:
            errors.append(
                f"{where}: +Inf bucket {counts[-1]} != _count "
                f"{group['count']}")


def validate(text):
    errors = []
    helps, types = {}, {}
    finished_families = set()
    current_family = None
    samples = []

    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                keyword, family = parts[1], parts[2]
                if not METRIC_NAME.match(family):
                    errors.append(
                        f"line {line_no}: bad family name {family!r}")
                table = helps if keyword == "HELP" else types
                if family in table:
                    errors.append(
                        f"line {line_no}: duplicate # {keyword} for "
                        f"{family}")
                if family in finished_families:
                    errors.append(
                        f"line {line_no}: family {family} reopened after "
                        f"other families' samples")
                table[family] = (parts[3].rstrip()
                                 if keyword == "HELP" and len(parts) > 3
                                 else parts[3].split()[0] if len(parts) > 3
                                 else "")
                if keyword == "TYPE":
                    value = parts[3].split()[0] if len(parts) > 3 else ""
                    if value not in ("counter", "gauge", "histogram",
                                    "summary", "untyped"):
                        errors.append(
                            f"line {line_no}: unknown type {value!r}")
                    types[family] = value
            continue  # other comments are free-form.

        match = SAMPLE.match(line)
        if not match:
            errors.append(f"line {line_no}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        if not METRIC_NAME.match(name):
            errors.append(f"line {line_no}: bad metric name {name!r}")
        labels = (parse_labels(match.group("labels"), line_no, errors)
                  if match.group("labels") is not None else [])
        value = parse_value(match.group("value"), line_no, errors)
        if value is None:
            continue

        kind = None
        family = name
        for candidate, candidate_kind in types.items():
            if family_of(name, candidate_kind) == candidate or \
                    name == candidate:
                if name == candidate or (
                        candidate_kind == "histogram"
                        and name.startswith(candidate)
                        and name[len(candidate):] in HISTOGRAM_SUFFIXES):
                    kind, family = candidate_kind, candidate
                    break
        if kind == "counter" and value < 0:
            errors.append(f"line {line_no}: negative counter {name}={value}")

        if family != current_family:
            if current_family is not None:
                finished_families.add(current_family)
            if family in finished_families:
                errors.append(
                    f"line {line_no}: samples of {family} are not "
                    f"contiguous")
            current_family = family
        samples.append((name, labels, value, line_no))

    check_histograms(samples, types, errors)

    for family, kind in types.items():
        if kind == "histogram":
            if not any(n.startswith(family) for n, _, _, _ in samples):
                errors.append(f"{family}: TYPE histogram but no samples")
    return errors


def main():
    if len(sys.argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    if len(sys.argv) == 2:
        with open(sys.argv[1], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    errors = validate(text)
    for error in errors:
        print(f"validate_prom: {error}", file=sys.stderr)
    if not errors:
        print(f"validate_prom: OK "
              f"({sum(1 for l in text.splitlines() if l and not l.startswith('#'))} samples)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
