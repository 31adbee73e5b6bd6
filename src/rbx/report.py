"""Check outcomes and report emission.

A ``CheckResult`` records one identity verification; its ``anchor`` is the
stable equation label the check certifies (carried verbatim into reports so
downstream tooling can key on it). A ``Report`` bundles the results of one
suite run. JSON output is deterministic: keys sorted, checks ordered by name,
so two runs of the same configuration differ at most in ``elapsed_ms``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    anchor: str
    counterexample: str | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail"):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == "fail" and self.counterexample is None:
            raise ValueError("a failing check must carry a counterexample")

    @classmethod
    def of(cls, name: str, anchor: str, counterexample: str | None) -> "CheckResult":
        """A pass when there is no counterexample, else a fail carrying it."""
        return cls(name, "pass" if counterexample is None else "fail", anchor, counterexample)


@dataclass
class Report:
    suite: str
    params: dict
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    def __post_init__(self):
        self.checks = sorted(self.checks, key=lambda c: c.name)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "params": self.params,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "anchor": c.anchor,
                    "counterexample": c.counterexample,
                }
                for c in self.checks
            ],
            "passed": self.passed,
            "failed": self.failed,
            "elapsed_ms": self.elapsed_ms,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        if self.params:
            params = " ".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            lines.append("params: " + params)
        if self.checks:
            width = max(len(c.name) for c in self.checks)
            awidth = max(len(c.anchor) for c in self.checks)
            for c in self.checks:
                line = f"  {c.name:<{width}}  {c.status.upper():<4}  {c.anchor:<{awidth}}"
                if c.counterexample:
                    line += f"  {c.counterexample}"
                lines.append(line.rstrip())
        lines.append(f"passed: {self.passed}  failed: {self.failed}  elapsed_ms: {self.elapsed_ms}")
        return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "text", path: str | None = None) -> None:
    """Render the report and write it to ``path`` or standard output."""
    if fmt == "json":
        rendered = report.to_json()
    elif fmt == "text":
        rendered = report.to_text()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(rendered)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
