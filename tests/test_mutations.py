"""Seeded-defect mutation tests: every analyzer rule catches its defect.

Each mutation from :mod:`repro.analysis.mutations` is applied to every
compiled golden module it is applicable to, and the analyzer must report
the mutation's expected rule id. The dual direction — un-mutated modules
analyze clean — lives in ``tests/test_analysis.py``; together they pin
each rule to a concrete defect class.
"""

import json

import pytest

from repro.analysis import analyze_module
from repro.analysis.mutations import MUTATIONS, MUTATIONS_BY_NAME, Mutation
from repro.cli import main
from repro.core.config import OverlapConfig
from repro.core.loop import emit_rolled
from repro.core.patterns import find_candidates
from repro.core.pipeline import compile_module
from repro.faults.chaos import GOLDEN_CASES
from repro.sharding.mesh import DeviceMesh

CASES = {case.name: case for case in GOLDEN_CASES}
GRID = [
    (case.name, ring) for case in GOLDEN_CASES for ring in case.rings
]


def _compiled(name, ring):
    case = CASES[name]
    mesh = DeviceMesh.ring(ring)
    module = case.build(mesh)
    compile_module(
        module, mesh, OverlapConfig(use_cost_model=False, unroll=False)
    )
    return module


def _rolled(name, ring):
    case = CASES[name]
    mesh = DeviceMesh.ring(ring)
    module = case.build(mesh)
    emit_rolled(module, find_candidates(module)[0], mesh)
    return module


def _build(mutation: Mutation, name: str, ring: int):
    """The module kind a mutation needs: rolled for While, else compiled."""
    if mutation.expected_rule == "V005":
        return _rolled(name, ring)
    return _compiled(name, ring)


class TestCatalog:
    def test_names_unique(self):
        assert len(MUTATIONS_BY_NAME) == len(MUTATIONS)

    def test_expected_rules_exist(self):
        from repro.analysis import RULES_BY_ID

        for mutation in MUTATIONS:
            assert mutation.expected_rule in RULES_BY_ID, mutation.name

    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=[m.name for m in MUTATIONS]
    )
    def test_applicable_somewhere(self, mutation):
        """A mutation no golden module can host tests nothing."""
        assert any(
            mutation.apply(_build(mutation, name, ring)) is not None
            for name, ring in GRID
        ), f"{mutation.name} never applied"


class TestMutationsAreCaught:
    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=[m.name for m in MUTATIONS]
    )
    @pytest.mark.parametrize("name,ring", GRID)
    def test_expected_rule_fires(self, mutation, name, ring):
        module = _build(mutation, name, ring)
        extra = mutation.apply(module)
        if extra is None:
            pytest.skip(f"{mutation.name} has no site in {name}/ring{ring}")
        result = analyze_module(module, num_devices=ring, **extra)
        assert mutation.expected_rule in result.rule_ids, (
            f"{mutation.name} expected {mutation.expected_rule}, "
            f"analyzer said: {result.format_text()}"
        )

    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=[m.name for m in MUTATIONS]
    )
    def test_error_mutations_fail_verification(self, mutation):
        """Error-severity defects must flip result.ok, warnings must not."""
        from repro.analysis import WARNING

        name, ring = "mlp-chain", 4
        module = _build(mutation, name, ring)
        extra = mutation.apply(module)
        if extra is None:
            pytest.skip(f"{mutation.name} has no site in {name}/ring{ring}")
        result = analyze_module(module, num_devices=ring, **extra)
        # L003 (torn fusion group) is deliberately warning-severity: the
        # schedule still computes the right value, it just misprices.
        expected_warning = mutation.expected_rule == "L003"
        fired = [
            d for d in result.diagnostics
            if d.rule == mutation.expected_rule
        ]
        assert fired
        if expected_warning:
            assert all(d.severity == WARNING for d in fired)
        else:
            assert not result.ok


class TestVerifyCLI:
    def test_golden_sweep_passes(self, capsys, tmp_path):
        artifact = tmp_path / "verify.json"
        assert main(["verify", "--out", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "verify passed" in out
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert payload["errors"] == 0
        # One target per golden module, ring and pipeline variant, then
        # one concurrency target per worker count (1/2 on 2-device rings,
        # 1/2/4 on 4-device rings) for the plan the engine would serve.
        pipeline = [
            t for t in payload["targets"] if "/w" not in t["target"]
        ]
        plans = [t for t in payload["targets"] if "/w" in t["target"]]
        assert len(pipeline) == 24
        assert len(plans) == 60
        for target in pipeline:
            assert target["failed_stage"] is None
            assert len(target["stages"]) == 6
        for target in plans:
            assert target["ok"]
            assert target["stages"][0]["passes"] == ["concurrency"]

    def test_lints_a_clean_dump(self, capsys, tmp_path):
        from repro.hlo.printer import format_module

        module = _compiled("mlp-chain", 4)
        path = tmp_path / "good.hlo"
        path.write_text(format_module(module) + "\n")
        assert main(["verify", str(path), "--devices", "4"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_flags_a_corrupt_dump(self, capsys, tmp_path):
        from repro.hlo.printer import format_module

        module = _compiled("mlp-chain", 4)
        MUTATIONS_BY_NAME["corrupt-shape-dim"].apply(module)
        path = tmp_path / "bad.hlo"
        path.write_text(format_module(module) + "\n")
        assert main(["verify", str(path), "--devices", "4"]) == 1
        assert "S001" in capsys.readouterr().out

    def test_json_report_on_corrupt_dump(self, capsys, tmp_path):
        from repro.hlo.printer import format_module

        module = _compiled("mlp-chain", 4)
        MUTATIONS_BY_NAME["corrupt-dtype"].apply(module)
        path = tmp_path / "bad.hlo"
        path.write_text(format_module(module) + "\n")
        assert main(["verify", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        rules = {
            d["rule"]
            for target in payload["targets"]
            for stage in target["stages"]
            for d in stage["diagnostics"]
        }
        assert "S002" in rules

    def test_unreadable_path_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "missing.hlo"
        assert main(["verify", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unparsable_dump_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.hlo"
        path.write_text("this is not HLO\n")
        assert main(["verify", str(path)]) == 2
        assert "parse error" in capsys.readouterr().err
