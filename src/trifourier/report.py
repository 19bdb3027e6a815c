"""Uniform pass/fail reporting for the verification suites."""

from __future__ import annotations

from math import gcd


# An integer of more bits than this prints as a stand-in: its digits are not read one by
# one, and str() of an int is quadratic and refuses one of more than 4,300 digits.
MAX_PRINTED_BITS = 256


def integer_string(n: int) -> str:
    """str(n), or "<1,234-bit integer>" (signed) for an n of more than MAX_PRINTED_BITS bits."""
    bits = n.bit_length()
    if bits <= MAX_PRINTED_BITS:
        return str(n)
    return f"{'-' if n < 0 else ''}<{bits:,}-bit integer>"


def fraction_string(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0: "n" or "n/d" in lowest terms, without importing
    fractions; each integer goes through `integer_string`."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return integer_string(num) if den == 1 else f"{integer_string(num)}/{integer_string(den)}"


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
