"""Diagnostics shared by every static-analysis pass.

A :class:`Diagnostic` is one finding: a stable rule id from the catalog
below, a severity, the offending instruction (when one exists) and an
optional fix hint. An :class:`AnalysisResult` is the report one analyzer
run produces — a flat, order-preserving list of diagnostics plus the
names of the passes that ran, with text and JSON renderings for the
``repro verify`` CLI and the CI artifact.

Rule ids are permanent API: tests, CI gates and the mutation suite key
on them, so a rule may be *retired* but its id never reused.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

ERROR = "error"
WARNING = "warning"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1}


@dataclasses.dataclass(frozen=True)
class Rule:
    """One catalog entry: a stable id and what the rule guards."""

    rule_id: str
    owner: str      # the pass that emits it
    summary: str


#: The rule catalog (see DESIGN.md section 10 for the prose version).
RULES: Tuple[Rule, ...] = (
    # Shape/dtype verifier.
    Rule("S001", "shape", "stored shape differs from the re-inferred shape"),
    Rule("S002", "shape", "stored dtype differs from the re-inferred dtype"),
    Rule("S003", "shape", "malformed or inconsistent instruction attributes"),
    # SSA / def-use checker.
    Rule("V001", "ssa", "operand used before its definition or not in module"),
    Rule("V002", "ssa", "non-source instruction has no operands"),
    Rule("V003", "ssa", "module root missing or not part of the module"),
    Rule("V004", "ssa", "orphan instruction: no users and not the root"),
    Rule("V005", "ssa", "While body/signature disagreement"),
    # Async-pair linter.
    Rule("A001", "async", "collective-permute-start without a done"),
    Rule("A002", "async", "done without a start, or a start with several dones"),
    Rule("A003", "async", "interleaved reuse of one channel id"),
    Rule("A004", "async", "in-flight async permutes exceed the budget"),
    # Collective legality.
    Rule("C001", "collective", "replica groups do not partition the devices"),
    Rule("C002", "collective", "replica groups have non-uniform sizes"),
    Rule("C003", "collective", "collective-permute pair sends a device to itself"),
    Rule("C004", "collective", "device is the source/destination of two pairs"),
    Rule("C005", "collective", "pair names a device outside the mesh"),
    Rule("C006", "collective", "permute pairs do not close into a ring"),
    Rule("C007", "collective", "permute marked comm_kind=p2p closes into a ring"),
    # Donation-race detector.
    Rule("D001", "donation", "donated buffer written while a prior value is read"),
    Rule("D002", "donation", "donation record names an unknown step or value"),
    # Schedule legality.
    Rule("L001", "schedule", "instruction scheduled before one of its operands"),
    Rule("L002", "schedule", "done scheduled before its matching start"),
    Rule("L003", "schedule", "fusion group is not contiguous in the schedule"),
    Rule("L004", "schedule", "schedule is not a permutation of the module"),
    # Plan concurrency verifier (see DESIGN.md section 14).
    # The C0xx block was already taken by collective legality when this
    # pass landed, and ids are never reused, so these carry a CC prefix.
    Rule("CC001", "concurrency", "unordered write/write or write/read race on shared rows"),
    Rule("CC002", "concurrency", "parity-window overflow: in-flight transfer reuses a live mailbox cell"),
    Rule("CC003", "concurrency", "barrier divergence or deadlock across workers"),
    Rule("CC004", "concurrency", "mailbox post without consume, or consume without post"),
    Rule("CC005", "concurrency", "donated buffer mutated while a pending snapshot still reads it"),
)

RULES_BY_ID: Dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One finding of one pass."""

    rule: str
    severity: str
    message: str
    instruction: Optional[str] = None
    module: Optional[str] = None
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES_BY_ID:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def format(self) -> str:
        where = ""
        if self.module is not None:
            where += f"{self.module}:"
        if self.instruction is not None:
            where += f"{self.instruction}: "
        elif where:
            where += " "
        hint = f"  [fix: {self.hint}]" if self.hint else ""
        return f"{self.severity} {self.rule} {where}{self.message}{hint}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "instruction": self.instruction,
            "module": self.module,
            "hint": self.hint,
        }


def error(
    rule: str,
    message: str,
    instruction: Optional[str] = None,
    module: Optional[str] = None,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(rule, ERROR, message, instruction, module, hint)


def warning(
    rule: str,
    message: str,
    instruction: Optional[str] = None,
    module: Optional[str] = None,
    hint: Optional[str] = None,
) -> Diagnostic:
    return Diagnostic(rule, WARNING, message, instruction, module, hint)


@dataclasses.dataclass(frozen=True)
class AnalysisResult:
    """The report of one analyzer run over one module."""

    module_name: str
    diagnostics: Tuple[Diagnostic, ...]
    passes_run: Tuple[str, ...]

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """Clean of *errors*; warnings do not fail verification."""
        return not self.errors

    @property
    def rule_ids(self) -> Tuple[str, ...]:
        """Every distinct rule id flagged, catalog order."""
        flagged = {d.rule for d in self.diagnostics}
        return tuple(r.rule_id for r in RULES if r.rule_id in flagged)

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    def format_text(self, verbose: bool = False) -> str:
        """Human-readable report; one line per finding, worst first."""
        header = (
            f"{self.module_name}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"[{', '.join(self.passes_run)}]"
        )
        if not self.diagnostics:
            return header + " — clean"
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (_SEVERITY_RANK[d.severity], d.rule),
        )
        if not verbose:
            ordered = [d for d in ordered if d.is_error] or ordered
        return "\n".join([header] + [f"  {d.format()}" for d in ordered])

    def to_json(self) -> Dict[str, object]:
        return {
            "module": self.module_name,
            "ok": self.ok,
            "passes": list(self.passes_run),
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def merge_results(
    module_name: str, results: Sequence[AnalysisResult]
) -> AnalysisResult:
    """Combine several results (e.g. a module plus its While bodies)."""
    diagnostics: List[Diagnostic] = []
    passes: List[str] = []
    for result in results:
        diagnostics.extend(result.diagnostics)
        for name in result.passes_run:
            if name not in passes:
                passes.append(name)
    return AnalysisResult(module_name, tuple(diagnostics), tuple(passes))


class AnalysisError(RuntimeError):
    """Raised when a verification hook finds errors (e.g. between passes).

    Carries the failing :class:`AnalysisResult` and, when raised by the
    pipeline's ``verify_after_each_pass`` hook, the name of the pass
    that introduced the violation.
    """

    def __init__(
        self, result: AnalysisResult, stage: Optional[str] = None
    ) -> None:
        self.result = result
        self.stage = stage
        prefix = f"after pass {stage!r}: " if stage else ""
        super().__init__(prefix + result.format_text())
