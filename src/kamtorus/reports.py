"""Verification reports: named pass/fail entries with exact margins.

Structural checks never raise on failure; each produces a CheckEntry whose
`passed` field is True/False, or None for purely informational measurements
(reported constants, toy-scale rates, coverage notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckEntry:
    name: str
    subject: str
    passed: bool | None
    margin: str = ""
    note: str = ""

    def line(self) -> str:
        status = {True: "PASS", False: "FAIL", None: "info"}[self.passed]
        parts = [f"[{status}] {self.name} ({self.subject})"]
        if self.margin:
            parts.append(f"margin={self.margin}")
        if self.note:
            parts.append(self.note)
        return "  ".join(parts)


@dataclass
class VerificationReport:
    title: str
    header: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)

    def add(self, name: str, subject: str, passed: bool | None,
            margin: str = "", note: str = "") -> CheckEntry:
        entry = CheckEntry(name, subject, passed, margin, note)
        self.entries.append(entry)
        return entry

    def all_passed(self) -> bool:
        return all(e.passed is not False for e in self.entries)

    def counts(self) -> dict:
        return {
            "pass": sum(1 for e in self.entries if e.passed is True),
            "fail": sum(1 for e in self.entries if e.passed is False),
            "info": sum(1 for e in self.entries if e.passed is None),
        }

    def summary_lines(self) -> list:
        lines = [f"== {self.title} =="]
        for key in sorted(self.header):
            lines.append(f"   {key}: {self.header[key]}")
        lines.extend(e.line() for e in self.entries)
        c = self.counts()
        lines.append(f"-- {c['pass']} pass, {c['fail']} fail, {c['info']} info")
        return lines

    def to_jsonable(self) -> dict:
        return {
            "title": self.title,
            "header": dict(self.header),
            "counts": self.counts(),
            "all_passed": self.all_passed(),
            "entries": [
                {"name": e.name, "subject": e.subject, "passed": e.passed,
                 "margin": e.margin, "note": e.note}
                for e in self.entries
            ],
        }
