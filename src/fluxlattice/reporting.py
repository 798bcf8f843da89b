"""Line-oriented pass/fail reports of exact and measured checks, where
`RelationReport.measure` alone decides a measured value against its bound,
and the one allocation budget, ALLOCATION_BUDGET_BYTES, that every module
checks through require_allocation before it builds a large array."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["RelationCheck", "RelationReport"]

# Most memory one request may hold.
ALLOCATION_BUDGET_BYTES = 1 << 30


def require_allocation(nbytes: int, what: str) -> None:
    """Refuse a request that would hold more than the budget."""
    if nbytes > ALLOCATION_BUDGET_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the "
                         f"{ALLOCATION_BUDGET_BYTES} byte allocation budget")


@dataclass(frozen=True)
class RelationCheck:
    """One named check: whether it holds, a site witnessing a failure,
    detail, and a measured check's value and bound (None when exact)."""

    name: str
    holds: bool
    witness_site: tuple | None = None
    detail: str = ""
    value: float | None = None
    bound: float | None = None


@dataclass
class RelationReport:
    """Checks in the order they were added; passes when every check holds."""

    checks: list[RelationCheck] = field(default_factory=list)

    def add(self, name: str, holds: bool, witness_site: tuple | None = None,
            detail: str = "", value: float | None = None, bound: float | None = None) -> None:
        self.checks.append(RelationCheck(name, holds, witness_site, detail, value, bound))

    def measure(self, name: str, value: float, bound: float, detail: str) -> None:
        """Add a measured check, which holds when value <= bound; NaN fails."""
        self.add(name, bool(value <= bound), None, detail, value, bound)

    @property
    def all_pass(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.holds else "FAIL"
            detail = c.detail
            if not c.holds and c.witness_site is not None:
                detail = (detail + " " if detail else "") + f"witness_site={list(c.witness_site)}"
            lines.append(f"RELATION {c.name}: {status}" + (f" {detail}" if detail else ""))
        return "\n".join(lines)

    def to_json_dict(self) -> list[dict]:
        return [
            {
                "relation": c.name,
                "holds": c.holds,
                "witness_site": list(c.witness_site) if c.witness_site is not None else None,
            }
            for c in self.checks
        ]
