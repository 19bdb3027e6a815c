"""Uniform pass/fail reporting for the verification suites."""

from __future__ import annotations

from math import gcd


def fraction_string(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0: "n" or "n/d" in lowest terms, without importing fractions."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


class Check:
    def __init__(self, check_id: str, ok: bool, details: str = "") -> None:
        self.check_id = check_id
        self.ok = ok
        self.details = details


class Report:
    def __init__(self, suite: str) -> None:
        self.suite = suite
        self.checks: list[Check] = []

    def add(self, check_id: str, ok: bool, details: str = "") -> None:
        self.checks.append(Check(check_id, bool(ok), details))

    def require(self, check_id: str, ok: bool, details: str = "") -> None:
        """Like add, but the details are recorded only when the check fails."""
        if not ok:
            self.add(check_id, False, details)
        else:
            self.add(check_id, True)

    def extend(self, other: "Report") -> None:
        for c in other.checks:
            self.checks.append(Check(f"{other.suite}:{c.check_id}", c.ok, c.details))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.ok,
            "checks": [
                {"id": c.check_id, "status": "pass" if c.ok else "fail", "details": c.details}
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        lines = [
            f"[{'PASS' if c.ok else 'FAIL'}] {c.check_id}" + (f": {c.details}" if c.details else "")
            for c in self.checks
        ]
        lines.append(f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'} ({len(self.checks)} checks)")
        return "\n".join(lines)
