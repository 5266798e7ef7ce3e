"""Source-size gate: ``src/repro`` lines (``*.py`` + ``*.c``) per package.

Each package is held to the budget below, counted like ``wc -l``.  The
budget only moves down: a change that needs a package to grow raises
its number here and says why in CHANGES.md.
"""

import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: package -> most lines it may hold; "repro" is the top-level modules.
#: 16,153 lines in all.
BUDGET = {
    "analysis": 1_733,
    "chaos": 961,
    "control": 1_268,
    "cpu": 432,
    "experiments": 1_671,
    "guardrails": 971,
    "harness": 1_017,
    "metrics": 182,
    "native": 1_747,
    "network": 1_907,
    "observability": 441,
    "power": 101,
    "repro": 912,
    "sim": 1_049,
    "topology": 1_005,
    "traffic": 756,
}


def package_lines():
    """``{package: lines}`` of the tracked sources (build outputs and
    bytecode caches are not source)."""
    counts = {}
    for path in sorted(SRC.rglob("*")):
        relative = path.relative_to(SRC)
        if path.suffix not in (".py", ".c") or any(
            part.startswith(("_build", "__pycache__"))
            for part in relative.parts
        ):
            continue
        package = relative.parts[0] if len(relative.parts) > 1 else "repro"
        counts[package] = counts.get(package, 0) + path.read_bytes().count(
            b"\n"
        )
    return counts


def test_every_package_is_within_its_line_budget():
    over = {
        package: (lines, BUDGET.get(package, 0))
        for package, lines in package_lines().items()
        if lines > BUDGET.get(package, 0)
    }
    assert over == {}, "package: (lines, budget)"


def test_the_budget_names_only_existing_packages():
    assert set(BUDGET) <= set(package_lines())
