"""repro.analysis: simulation-safety static analyzer.

AST-based, stdlib-only lints for the invariants this reproduction's
correctness rests on and that the running program cannot check about
itself — determinism of the cycle-level simulation, RNG lineage, phase
isolation and cache-key completeness — enforced *before* any cycle
executes instead of after a violation has poisoned a sweep.  Run it
as::

    python -m repro.analysis src/                 # whole tree
    python -m repro.analysis --format json src/   # machine-readable
    python -m repro.analysis --select DET001 file.py

Rules (see DESIGN.md §S22 and §S27 for the full semantics):

========== ==========================================================
CACHE001   SimulationConfig reads reachable from the JobSpec fields
DET001     no wall-clock/entropy sources in simulation hot paths
DET002     no dict/set iteration without ``sorted(...)`` in hot paths
DET003     RNG streams must come from :func:`repro.rng.child_rng`
DET004     numpy sort/argsort in hot paths must pass ``kind="stable"``
PHASE001   pipeline phases only write declared simulator attributes
RNG001     child_rng labels are unique literals across SIM_PACKAGES
RNG002     no RNG draw executes under a backend-conditional branch
========== ==========================================================

Three former rules are gone because the facts they compared now have one
owner each and the copies are derived at run time:

* CFG001 — ``JobSpec.canonical()``/``with_config()``/``run_job`` are
  computed from ``dataclasses.fields``, and ``python -m repro`` passes
  every dest it does not consume to ``SimulationConfig`` by name, so an
  orphaned flag is a ``TypeError`` on the first run.
* REG001 — CLI ``choices``, the JobSpec recipe check and controller
  construction all read :mod:`repro.control.registry` (and the
  network/locality/backend name tables); there is no second list.
* SCHEMA001 — ``RESULT_SCHEMA_FIELD_HASH`` is checked by a test that
  hashes the keys of a real run's ``to_dict()``.

Suppress a deliberate violation inline with ``# repro: noqa[RULE]``;
opt a file outside ``repro/{network,sim,cpu,control,traffic}`` into the
hot-path rules with a ``# repro: analysis-scope=sim`` header comment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.cachekey import Cache001KeyCompleteness
from repro.analysis.core import (
    Finding,
    Project,
    Rule,
    SourceFile,
    SIM_PACKAGES,
    run_analysis,
)
from repro.analysis.determinism import (
    Det001WallClock,
    Det002UnsortedIteration,
    Det003RngProvenance,
    Det004UnstableSort,
)
from repro.analysis.phasecontract import Phase001PhaseWrites
from repro.analysis.rnglineage import (
    Rng001LabelLineage,
    Rng002BackendConditionalDraw,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "SIM_PACKAGES",
    "analyze",
    "run_analysis",
]


def all_rules() -> Tuple[Rule, ...]:
    """Fresh instances of every registered rule, ordered by id."""
    rules: Tuple[Rule, ...] = (
        Cache001KeyCompleteness(),
        Det001WallClock(),
        Det002UnsortedIteration(),
        Det003RngProvenance(),
        Det004UnstableSort(),
        Phase001PhaseWrites(),
        Rng001LabelLineage(),
        Rng002BackendConditionalDraw(),
    )
    return rules


#: Default rule set (id-ordered); the CLI and tests run these.
ALL_RULES: Tuple[Rule, ...] = all_rules()

#: Every selectable rule id.
RULE_IDS: Tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)


def analyze(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    exclude: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the full registered rule set over *paths*."""
    return run_analysis(
        paths, ALL_RULES, select=select, ignore=ignore, exclude=exclude
    )
