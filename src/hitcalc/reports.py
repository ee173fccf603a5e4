"""Machine-readable verdicts for the verification drivers."""

from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = ["VerdictReport", "emit_report"]


class VerdictReport(NamedTuple):
    claim: str
    n: int
    d: int
    expected: int
    computed: int
    passed: bool
    representatives: Sequence[dict] = ()
    timing_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "n": self.n,
            "d": self.d,
            "expected": self.expected,
            "computed": self.computed,
            "pass": self.passed,
            "representatives": list(self.representatives),
            "timing_ms": round(self.timing_ms, 3),
        }


def emit_report(reports: list[VerdictReport], fmt: str = "text") -> str:
    """Serialize verdicts with stable field order; fmt is json, csv or text."""
    if fmt == "json":
        import json

        return json.dumps([r.to_dict() for r in reports], indent=2)
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["claim", "n", "d", "expected", "computed", "pass"])
        for r in reports:
            writer.writerow(
                [r.claim, r.n, r.d, r.expected, r.computed, str(r.passed).lower()]
            )
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"{status} {r.claim}: expected {r.expected}, computed {r.computed}"
                f" ({r.timing_ms:.0f} ms)"
            )
            for rep in r.representatives:
                label = rep.get("label") or "-"
                lines.append(
                    f"    rep {rep.get('d_element')} -> {rep.get('lambda_element')}"
                    f" cycle={rep.get('cycle')} label={label}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown report format {fmt!r}")
