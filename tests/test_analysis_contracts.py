"""Tests for the cross-layer contract rules (RNG/CACHE/REG) and the
analyzer infrastructure added alongside them (SARIF output, the
findings baseline, and the AST cache).

Same layers as test_analysis.py:

- exact per-rule findings over the contract fixtures in
  ``tests/analysis_fixtures/``;
- meta-tests: the full tree (src, tests, benchmarks — fixtures
  excluded) exits 0, and the committed baseline is empty.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    RULE_IDS,
    AnalysisCache,
    analyze,
    sarif_document,
)

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"
BASELINE = REPO / "analysis_baseline.json"

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
def test_rng001_fixture_exact_findings():
    findings = findings_for(FIXTURES / "rng001_labels.py")
    assert as_tuples(findings) == [
        ("RNG001", 14),
        ("RNG001", 15),
        ("RNG001", 16),
        ("RNG001", 26),
    ]
    messages = [f.message for f in findings]
    assert "duplicate child_rng label 'alpha'" in messages[0]
    assert "duplicate child_rng label 'alpha'" in messages[1]
    assert "must be a string literal" in messages[2]
    assert "duplicate child_rng label 'omega'" in messages[3]
    # the primary spawn sites and the unique 'beta' label are clean
    assert {13, 17, 22}.isdisjoint({f.line for f in findings})


def test_rng002_fixture_exact_findings():
    findings = findings_for(FIXTURES / "rng002_backend.py")
    assert as_tuples(findings) == [
        ("RNG002", 21),
        ("RNG002", 22),
        ("RNG002", 25),
    ]
    direct, indirect, orelse = findings
    assert "draws from an RNG stream" in direct.message
    assert "calls Engine._refill(), which draws" in indirect.message
    assert "draws from an RNG stream" in orelse.message
    # the unconditional draw after the branch is fine
    assert 26 not in {f.line for f in findings}


def test_cache001_fixture_exact_findings():
    findings = findings_for(FIXTURES / "cache001_spec.py")
    assert as_tuples(findings) == [
        ("CACHE001", 31),
        ("CACHE001", 39),
        ("CACHE001", 40),
    ]
    catch_all, stale, unreachable = findings
    assert "no generic 'config' catch-all" in catch_all.message
    assert "SimulationConfig.jitter" in stale.message
    assert "not a declared field, property, or method" in stale.message
    assert "config field 'width' is read here but unreachable" in (
        unreachable.message
    )
    # reads of canonical fields and derived properties are clean
    assert {37, 38}.isdisjoint({f.line for f in findings})


def test_reg001_fixture_exact_findings():
    findings = findings_for(FIXTURES / "reg001_registry.py")
    assert as_tuples(findings) == [
        ("REG001", 23),
        ("REG001", 26),
        ("REG001", 31),
    ]
    duplicate, kinds, choices = findings
    assert "duplicate registry entry 'central'" in duplicate.message
    assert "CONTROLLER_KINDS drifted" in kinds.message
    assert "'live'" in kinds.message
    assert "--controller choices drifted" in choices.message
    assert "'central'" in choices.message and "'live'" in choices.message


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_sarif_document_shape():
    findings = findings_for(FIXTURES / "rng001_labels.py")
    document = sarif_document(findings, ALL_RULES)
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert set(RULE_IDS) <= set(rule_ids)
    assert len(run["results"]) == len(findings)
    for result, finding in zip(run["results"], findings):
        assert result["ruleId"] == finding.rule
        assert rule_ids[result["ruleIndex"]] == finding.rule
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uriBaseId"] == "ROOT"
        assert location["artifactLocation"]["uri"] == finding.path
        assert location["region"]["startLine"] == finding.line


def test_cli_sarif_format_is_valid_json(tmp_path):
    artifact = tmp_path / "analysis.sarif"
    proc = run_cli(
        str(FIXTURES / "det003_rng.py"),
        "--format", "sarif",
        "--output", str(artifact),
    )
    assert proc.returncode == 1
    document = json.loads(artifact.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"
    results = document["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["DET003", "DET003"]
    # stdout carries the same document
    assert json.loads(proc.stdout) == document


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def test_baseline_roundtrip_suppresses_grandfathered_findings(tmp_path):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "det003_rng.py")
    proc = run_cli(target, "--baseline", str(baseline), "--write-baseline")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(baseline.read_text(encoding="utf-8"))
    assert payload["version"] == 1
    assert len(payload["findings"]) == 2
    # with the baseline in place the same run is clean
    proc = run_cli(target, "--baseline", str(baseline))
    assert proc.returncode == 0, proc.stdout
    # dropping one entry resurfaces exactly one finding
    payload["findings"] = payload["findings"][:1]
    baseline.write_text(json.dumps(payload), encoding="utf-8")
    proc = run_cli(target, "--baseline", str(baseline))
    assert proc.returncode == 1
    assert proc.stdout.count("DET003") == 1


def test_baseline_matching_ignores_line_numbers(tmp_path):
    baseline = tmp_path / "baseline.json"
    victim = tmp_path / "victim.py"
    victim.write_text(
        "# repro: analysis-scope=sim\nimport time\n\n"
        "NOW = time.time()\n"
    )
    proc = run_cli(str(victim), "--baseline", str(baseline),
                   "--write-baseline")
    assert proc.returncode == 0
    # shift the finding down two lines: still baselined
    victim.write_text(
        "# repro: analysis-scope=sim\nimport time\n\n\n\n"
        "NOW = time.time()\n"
    )
    proc = run_cli(str(victim), "--baseline", str(baseline))
    assert proc.returncode == 0, proc.stdout


def test_write_baseline_requires_baseline_path():
    proc = run_cli("src", "--write-baseline")
    assert proc.returncode == 2
    assert "--write-baseline requires --baseline" in proc.stderr


def test_committed_baseline_is_empty():
    """The tree is clean, so the committed baseline grandfathers nothing."""
    payload = json.loads(BASELINE.read_text(encoding="utf-8"))
    assert payload == {"version": 1, "findings": []}


# ----------------------------------------------------------------------
# AST cache
# ----------------------------------------------------------------------
def test_ast_cache_warm_run_hits_and_agrees(tmp_path):
    store = tmp_path / "cache.pickle"
    cold_cache = AnalysisCache(str(store))
    cold = analyze([str(FIXTURES)], cache=cold_cache)
    cold_cache.save()
    assert cold_cache.hits == 0
    assert cold_cache.misses > 0
    warm_cache = AnalysisCache(str(store))
    warm = analyze([str(FIXTURES)], cache=warm_cache)
    assert warm_cache.hits == cold_cache.misses
    assert warm_cache.misses == 0
    assert as_tuples(warm) == as_tuples(cold)


def test_ast_cache_invalidates_on_content_change(tmp_path):
    store = tmp_path / "cache.pickle"
    victim = tmp_path / "victim.py"
    victim.write_text("# repro: analysis-scope=sim\nX = 1\n")
    cache = AnalysisCache(str(store))
    assert analyze([str(victim)], cache=cache) == []
    cache.save()
    victim.write_text(
        "# repro: analysis-scope=sim\nimport time\nX = time.time()\n"
    )
    cache = AnalysisCache(str(store))
    findings = analyze([str(victim)], cache=cache)
    assert [f.rule for f in findings] == ["DET001"]
    assert cache.misses == 1


def test_ast_cache_survives_corrupt_store(tmp_path):
    store = tmp_path / "cache.pickle"
    store.write_bytes(b"not a pickle")
    cache = AnalysisCache(str(store))
    findings = analyze([str(FIXTURES / "det003_rng.py")], cache=cache)
    assert [f.rule for f in findings] == ["DET003", "DET003"]
    assert cache.misses > 0


def test_cli_cache_stats(tmp_path):
    store = tmp_path / "cache.pickle"
    target = str(FIXTURES / "clean_ok.py")
    proc = run_cli(target, "--cache", str(store), "--stats")
    assert proc.returncode == 0
    assert re.search(r"analysis-cache: 0 hit\(s\), \d+ miss", proc.stderr)
    proc = run_cli(target, "--cache", str(store), "--stats")
    assert proc.returncode == 0
    assert re.search(r"analysis-cache: [1-9]\d* hit\(s\), 0 miss", proc.stderr)


# ----------------------------------------------------------------------
# Meta-tests: the real tree is clean end to end
# ----------------------------------------------------------------------
def test_cli_exits_zero_on_full_tree_with_fixture_exclude():
    proc = run_cli(
        "src", "tests", "benchmarks",
        "--exclude", "tests/analysis_fixtures/*",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_exclude_does_not_apply_to_explicit_paths():
    proc = run_cli(
        str(FIXTURES / "det003_rng.py"),
        "--exclude", "tests/analysis_fixtures/*",
    )
    assert proc.returncode == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
