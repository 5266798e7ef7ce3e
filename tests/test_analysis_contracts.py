"""Tests for the cross-layer contract rules (RNG/CACHE) and the
analyzer infrastructure added alongside them (--exclude).

Same layers as test_analysis.py:

- exact per-rule findings over the contract fixtures in
  ``tests/analysis_fixtures/``;
- meta-test: the full tree (src, tests, benchmarks — fixtures
  excluded) exits 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import analyze

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"

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
        ("CACHE001", 26),
        ("CACHE001", 34),
        ("CACHE001", 35),
    ]
    catch_all, stale, unreachable = findings
    assert "no generic 'config' catch-all field" in catch_all.message
    assert "SimulationConfig.jitter" in stale.message
    assert "not a declared field, property, or method" in stale.message
    assert "config field 'width' is read here but unreachable" in (
        unreachable.message
    )
    # reads of spec fields and derived properties are clean
    assert {32, 33}.isdisjoint({f.line for f in findings})


# ----------------------------------------------------------------------
# Meta-test: the real tree is clean end to end
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
