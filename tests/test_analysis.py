"""Tests for repro.analysis: the simulation-safety static analyzer.

Three layers:

- exact per-rule findings over the fixture corpus in
  ``tests/analysis_fixtures/`` (rule id, line, message fragment);
- drift demonstrations: mutating *real* source (an undeclared phase
  write) must produce the corresponding finding;
- the meta-test: the analyzer exits 0 over ``src/`` — the tree it
  polices stays clean.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, RULE_IDS, analyze

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"
SIMULATOR_PY = REPO / "src" / "repro" / "sim" / "simulator.py"


def findings_for(path, **kwargs):
    return analyze([str(path)], **kwargs)


def as_tuples(findings):
    return [(f.rule, f.line) for f in findings]


def run_cli(*args, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


# ----------------------------------------------------------------------
# Fixture corpus: exact findings per rule
# ----------------------------------------------------------------------
def test_det001_fixture_exact_findings():
    findings = findings_for(FIXTURES / "det001_clock.py")
    assert as_tuples(findings) == [
        ("DET001", 12),
        ("DET001", 13),
        ("DET001", 14),
        ("DET001", 15),
        ("DET001", 16),
    ]
    messages = [f.message for f in findings]
    assert "time.time()" in messages[0]
    assert "os.urandom()" in messages[1]
    assert "random.random()" in messages[2]
    assert "numpy.random.random()" in messages[3]
    assert "unseeded numpy.random.default_rng()" in messages[4]
    # line 17 carries `# repro: noqa[DET001]` and must be absent
    assert 17 not in [f.line for f in findings]


def test_det002_fixture_exact_findings():
    findings = findings_for(FIXTURES / "det002_iteration.py")
    assert as_tuples(findings) == [
        ("DET002", 7),
        ("DET002", 9),
        ("DET002", 10),
        ("DET002", 11),
    ]
    assert "table.keys()" in findings[0].message
    assert "table.values()" in findings[1].message
    assert "a set literal" in findings[2].message
    assert "set(...)" in findings[3].message
    # line 13 iterates sorted(...); line 15 is noqa'd: both absent
    assert {13, 15}.isdisjoint({f.line for f in findings})


def test_det003_fixture_exact_findings():
    findings = findings_for(FIXTURES / "det003_rng.py")
    assert as_tuples(findings) == [("DET003", 11), ("DET003", 12)]
    assert "numpy.random.default_rng(...)" in findings[0].message
    assert "numpy.random.PCG64(...)" in findings[1].message
    # the child_rng call and the noqa'd constructor produce nothing
    assert {13, 14}.isdisjoint({f.line for f in findings})


def test_det004_fixture_exact_findings():
    findings = findings_for(FIXTURES / "det004_sort.py")
    assert as_tuples(findings) == [
        ("DET004", 8),
        ("DET004", 9),
        ("DET004", 10),
        ("DET004", 11),
        ("DET004", 12),
    ]
    messages = [f.message for f in findings]
    assert "numpy.argsort()" in messages[0]
    assert "numpy.sort()" in messages[1]
    assert "data.argsort()" in messages[2]
    assert "non-stable kind=" in messages[3]
    assert "data.sort()" in messages[4]
    # stable/mergesort kinds, list.sort(key=...), sorted(), and the
    # noqa'd call (lines 13-17) produce nothing
    assert {13, 14, 15, 16, 17}.isdisjoint({f.line for f in findings})


def test_phase001_fixture_exact_findings():
    findings = findings_for(FIXTURES / "phase001_contract.py")
    assert as_tuples(findings) == [
        ("PHASE001", 3),
        ("PHASE001", 3),
        ("PHASE001", 13),
        ("PHASE001", 20),
    ]
    messages = "\n".join(f.message for f in findings)
    assert "'step_missing' but no class in this module defines it" in messages
    assert "'step_epoch' writes self.ghost, but no reachable code" in messages
    assert "'step_network' writes undeclared attribute self.sneaky" in messages
    assert (
        "'step_epoch' writes undeclared attribute self.hidden "
        "(via self._refresh())" in messages
    )


def test_clean_fixture_has_no_findings():
    assert findings_for(FIXTURES / "clean_ok.py") == []


def test_fixture_directory_totals():
    findings = findings_for(FIXTURES)
    by_rule = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    assert by_rule == {
        "CACHE001": 3,
        "DET001": 5,
        "DET002": 4,
        "DET003": 2,
        "DET004": 5,
        "PHASE001": 4,
        "RNG001": 4,
        "RNG002": 3,
    }


# ----------------------------------------------------------------------
# Scope model and suppressions
# ----------------------------------------------------------------------
def test_det_rules_ignore_files_outside_sim_scope(tmp_path):
    victim = tmp_path / "helper.py"
    victim.write_text("import time\n\nNOW = time.time()\n")
    assert findings_for(victim) == []


def test_scope_pragma_opts_a_file_in(tmp_path):
    victim = tmp_path / "helper.py"
    victim.write_text(
        "# repro: analysis-scope=sim\nimport time\n\nNOW = time.time()\n"
    )
    findings = findings_for(victim)
    assert as_tuples(findings) == [("DET001", 4)]


def test_bare_noqa_suppresses_every_rule(tmp_path):
    victim = tmp_path / "helper.py"
    victim.write_text(
        "# repro: analysis-scope=sim\nimport time\n\n"
        "NOW = time.time()  # repro: noqa\n"
    )
    assert findings_for(victim) == []


def test_select_and_ignore_filter_rules():
    path = FIXTURES / "det001_clock.py"
    only_det2 = findings_for(path, select=["DET002"])
    assert only_det2 == []
    both = findings_for(FIXTURES, select=["DET001", "DET002"])
    assert {f.rule for f in both} == {"DET001", "DET002"}
    without = findings_for(FIXTURES, ignore=["DET001"])
    assert "DET001" not in {f.rule for f in without}


def test_parse_error_becomes_parse000_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = findings_for(bad)
    assert [f.rule for f in findings] == ["PARSE000"]


def test_finding_format_is_location_prefixed():
    finding = findings_for(FIXTURES / "det003_rng.py")[0]
    assert re.match(
        r".*det003_rng\.py:11:\d+: DET003 ", finding.format()
    )


# ----------------------------------------------------------------------
# Drift demonstrations against the real tree
# ----------------------------------------------------------------------
def test_phase001_catches_undeclared_write_in_real_simulator(tmp_path):
    """A phase writing undeclared simulator state must fail."""
    text = SIMULATOR_PY.read_text(encoding="utf-8")
    mutated = text.replace(
        "    def _behavior_phase(self, cycle: int) -> None:\n",
        "    def _behavior_phase(self, cycle: int) -> None:\n"
        "        self.rogue_state = cycle\n",
        1,
    )
    assert mutated != text
    victim = tmp_path / "simulator.py"
    victim.write_text(mutated)
    findings = findings_for(victim, select=["PHASE001"])
    assert any(
        "'_behavior_phase' writes undeclared attribute self.rogue_state"
        in f.message
        for f in findings
    ), findings


def test_phase001_requires_contract_where_pipelines_are_built(tmp_path):
    victim = tmp_path / "pipe.py"
    victim.write_text(
        "# repro: analysis-scope=sim\n"
        "from repro.sim.pipeline import PhasePipeline\n\n"
        "def build():\n"
        "    return PhasePipeline()\n"
    )
    findings = findings_for(victim, select=["PHASE001"])
    assert len(findings) == 1
    assert "declares no PHASE_WRITES contract" in findings[0].message


# ----------------------------------------------------------------------
# CLI behavior
# ----------------------------------------------------------------------
def test_cli_exits_zero_on_src():
    """The meta-test: the tree the analyzer polices is clean."""
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_exits_nonzero_with_rule_ids_on_fixtures():
    proc = run_cli(str(FIXTURES))
    assert proc.returncode == 1
    for rule in RULE_IDS:
        assert rule in proc.stdout


def test_cli_json_format_and_output_artifact(tmp_path):
    artifact = tmp_path / "findings.json"
    proc = run_cli(
        str(FIXTURES / "det003_rng.py"),
        "--format", "json",
        "--output", str(artifact),
    )
    assert proc.returncode == 1
    document = json.loads(proc.stdout)
    assert document["count"] == 2
    assert [f["rule"] for f in document["findings"]] == ["DET003", "DET003"]
    assert {r["id"] for r in document["rules"]} == set(RULE_IDS)
    assert json.loads(artifact.read_text()) == document


def test_cli_select_and_ignore():
    proc = run_cli(str(FIXTURES), "--select", "DET003")
    assert proc.returncode == 1
    assert set(re.findall(r"\b([A-Z]+\d{3})\b", proc.stdout)) == {"DET003"}
    proc = run_cli(str(FIXTURES / "det003_rng.py"), "--ignore", "DET003")
    assert proc.returncode == 0


def test_cli_rejects_unknown_rule_id():
    proc = run_cli("src", "--select", "NOPE999")
    assert proc.returncode == 2
    assert "unknown rule id" in proc.stderr


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in RULE_IDS:
        assert rule in proc.stdout


def test_rule_registry_is_id_sorted_and_unique():
    assert list(RULE_IDS) == [
        "CACHE001", "DET001", "DET002", "DET003", "DET004", "PHASE001",
        "RNG001", "RNG002",
    ]
    assert len(set(RULE_IDS)) == len(RULE_IDS) == len(ALL_RULES)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
