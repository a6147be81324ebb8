"""Structured results for the command line tool.

A Report is a command name, its parameters, and a list of named check
rows.  A row is a name, its two sides (lhs and rhs), an optional
tolerance and a verdict; every row of the gate is a counted identity,
so no row carries a residual.  Emission is deterministic: identical
inputs and seed produce byte-identical output in every format.  A csv
row reads ``name,lhs,rhs,tolerance,pass``, and a json row has the keys
name, lhs, rhs, tolerance and passed, under the schema ``SCHEMA``.
Floats are printed with 17 significant digits so the text survives a
round trip through repr; exact rationals are printed as fractions and
never coerced to float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, NamedTuple, Optional, Sequence

__all__ = ["CheckResult", "Report", "row", "emit"]

SCHEMA = "qkepler-report-2"


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class CheckResult(NamedTuple):
    """One named comparison; lhs and rhs may be numbers or exact rationals."""

    name: str
    lhs: Any
    rhs: Any
    tolerance: Optional[float]
    passed: bool


def row(name, lhs=None, rhs=None, tolerance=None,
        passed=True) -> CheckResult:
    """A CheckResult with empty defaults; ``passed`` becomes a plain bool,
    so a caller may hand in a numpy bool."""
    return CheckResult(name=name, lhs=lhs, rhs=rhs, tolerance=tolerance,
                       passed=bool(passed))


class Report(NamedTuple):
    command: str
    parameters: dict
    results: Sequence[CheckResult]
    seed: Optional[int] = None
    timestamp: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _emit_text(report: Report) -> str:
    lines = [f"command: {report.command}"]
    for key in sorted(report.parameters):
        lines.append(f"  {key}: {_fmt(report.parameters[key])}")
    if report.seed is not None:
        lines.append(f"  seed: {report.seed}")
    if report.timestamp is not None:
        lines.append(f"  timestamp: {report.timestamp}")
    width = max((len(r.name) for r in report.results), default=0)
    for r in report.results:
        status = "pass" if r.passed else "FAIL"
        parts = [f"{r.name:<{width}}  {status}"]
        if r.lhs is not None or r.rhs is not None:
            parts.append(f"lhs={_fmt(r.lhs)} rhs={_fmt(r.rhs)}")
        if r.tolerance is not None:
            parts.append(f"tol={_fmt(r.tolerance)}")
        lines.append("  ".join(parts))
    lines.append("result: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _emit_csv(report: Report) -> str:
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "lhs", "rhs", "tolerance", "pass"])
    for r in report.results:
        writer.writerow([r.name, _fmt(r.lhs), _fmt(r.rhs), _fmt(r.tolerance),
                         "true" if r.passed else "false"])
    return buf.getvalue()


def _emit_json(report: Report) -> str:
    import json
    payload = {
        "schema": SCHEMA,
        "command": report.command,
        "parameters": _jsonable(report.parameters),
        "seed": report.seed,
        "timestamp": report.timestamp,
        "passed": bool(report.passed),
        "results": [
            {
                "name": r.name,
                "lhs": _jsonable(r.lhs),
                "rhs": _jsonable(r.rhs),
                "tolerance": _jsonable(r.tolerance),
                # a CheckResult built directly may hold a numpy bool, which
                # json rejects
                "passed": bool(r.passed),
            }
            for r in report.results
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit(report: Report, fmt: str = "text") -> str:
    """Render a report as 'text', 'csv' or 'json'."""
    if fmt == "text":
        return _emit_text(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "json":
        return _emit_json(report)
    raise ValueError(f"unknown format {fmt!r}")
