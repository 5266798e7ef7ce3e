"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §3), prints a paper-vs-measured report, and writes the same
report under ``benchmarks/results/`` so it survives output capture.

Cycle budgets are scaled-down from the paper's 10M-cycle runs; set
``REPRO_BENCH_SCALE`` to raise them (e.g. ``REPRO_BENCH_SCALE=4``).
Every budget routes through ``repro.experiments.scaled_cycles``.

Multi-run benchmarks execute through :mod:`repro.harness`, so setting
``REPRO_JOBS=4`` shards their simulations over four worker processes
and ``REPRO_CACHE_DIR=...`` reuses results across reruns (reports note
when results may come from cache).
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Print a report and persist it to benchmarks/results/<name>.txt."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(text)

    return _report


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
