"""Finding records shared by every analysis pass.

A :class:`Finding` is one defect report — a race, an out-of-bounds
access, or a determinism hazard in a stored procedure.  Passes accumulate findings into a :class:`FindingReport`,
which the CLI turns into human-readable output and an exit code
(0 clean / 1 findings; usage errors exit 2 before a report exists).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

#: Pass identifiers (the CLI's sub-command names).
RACECHECK = "racecheck"
MEMCHECK = "memcheck"
DETLINT = "detlint"
KERNELLINT = "kernellint"


@dataclass(frozen=True)
class Finding:
    """One defect reported by an analysis pass.

    ``subject`` names the shadow buffer (racecheck/memcheck) or the
    stored procedure (detlint/kernellint).  ``threads`` is the
    representative conflicting thread pair for races; ``index`` the
    offending address or source line.  Static passes with a precise
    source anchor additionally carry a stable rule ``code`` (kernellint
    ``KLxxx``), the source ``file``, and a ``span`` of absolute
    ``(start_line, end_line)`` — the fields the SARIF emitter maps onto
    ``ruleId`` and ``physicalLocation``.
    """

    pass_name: str
    kind: str
    subject: str
    message: str
    kernel: str | None = None
    index: int | None = None
    threads: tuple[int, int] | None = None
    code: str | None = None
    file: str | None = None
    span: tuple[int, int] | None = None

    def describe(self) -> str:
        where = f" [kernel={self.kernel}]" if self.kernel else ""
        tag = f"[{self.code}] " if self.code else ""
        loc = ""
        if self.file is not None and self.span is not None:
            loc = f" ({self.file}:{self.span[0]})"
        return (
            f"{self.pass_name}:{self.kind} {tag}{self.subject}{where}: "
            f"{self.message}{loc}"
        )


@dataclass
class FindingReport:
    """Accumulated findings of one analysis run."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings dropped once a (subject, kind) bucket hit its cap.
    suppressed: int = 0

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: list[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def clean(self) -> bool:
        return not self.findings

    def __len__(self) -> int:
        return len(self.findings)

    def by_pass(self, pass_name: str) -> list[Finding]:
        return [f for f in self.findings if f.pass_name == pass_name]

    def counts(self) -> dict[str, int]:
        return dict(Counter(f.kind for f in self.findings))

    def summary(self) -> str:
        if self.clean:
            return "clean: 0 findings"
        parts = ", ".join(f"{k}={c}" for k, c in sorted(self.counts().items()))
        tail = f" (+{self.suppressed} suppressed)" if self.suppressed else ""
        return f"{len(self.findings)} findings: {parts}{tail}"

    def render(self, limit: int = 50) -> str:
        lines = [self.summary()]
        for finding in self.findings[:limit]:
            lines.append("  " + finding.describe())
        if len(self.findings) > limit:
            lines.append(f"  ... and {len(self.findings) - limit} more")
        return "\n".join(lines)
