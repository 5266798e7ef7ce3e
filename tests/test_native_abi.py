"""The Python<->C ABI has one owner: runtime checks of the injection seam.

``kernels.c`` defines no slot index or layout constant; ``repro.native.build``
hands it every fact as a ``-D`` flag generated from the tables in
``repro.native.accel``.  These tests drive that seam for real (compiling
into ``tmp_path``) instead of statically comparing two hand-kept copies:

- slot order is not a contract: permuted tables still give native == numpy;
- the object tag follows the source, every injected value, the compile
  options *and* the numpy whose distributions are linked in;
- a name C uses that Python does not supply is a named build failure,
  as is compiling ``kernels.c`` outside the build;
- three planted bugs in ``credit_phase``, each compiled from a mutated
  copy, die on the numpy == fused == per-phase comparison;
- failure drills: no compiler, a numpy without ``libnpyrandom.a``,
  truncated object, unwritable build directory, ``$CC`` carrying
  arguments, a non-contiguous slot array.
"""

import os
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.native import (
    NativeAccel,
    NativeBuildError,
    NativeUnsupported,
    accel,
    build,
    load_library,
    native_available,
)
from repro.network import flit
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_category_workload
from tests.test_native_backend import (
    EQUIVALENCE_CASES, _canon, _run, _three_ways,
)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native backend"
)


@pytest.fixture
def scratch_build(monkeypatch, tmp_path):
    """An empty build directory and no library loaded yet."""
    build_dir = tmp_path / "_build"
    monkeypatch.setattr(build, "_BUILD_DIR", str(build_dir))
    monkeypatch.setattr(build, "_lib", None)
    return build_dir


def _patched_source(monkeypatch, tmp_path, extra):
    source = tmp_path / "kernels.c"
    shutil.copy(build._SRC, source)
    with open(source, "a", encoding="utf-8") as handle:
        handle.write(extra)
    monkeypatch.setattr(build, "_SRC", str(source))


def _simulator(backend, **kwargs):
    workload = make_category_workload("H", 16, np.random.default_rng(1))
    return Simulator(
        SimulationConfig(workload, seed=1, backend=backend, **kwargs)
    )


# ----------------------------------------------------------------------
# (a) slot order is not a contract
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_permuted_slot_tables_still_match_numpy(
    case, monkeypatch, scratch_build
):
    """Reversing all four tables just rebuilds; results are unchanged."""
    for table in ("_PT", "_CFG", "_FCFG", "_CTR"):
        original = getattr(accel, table)
        permuted = dict(reversed(list(original.items())))
        assert list(permuted) != list(original)
        monkeypatch.setattr(accel, table, permuted)
    kwargs = EQUIVALENCE_CASES[case]
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(
        _run(backend="native", **kwargs)
    )
    assert len(list(scratch_build.glob("kernels-*.so"))) == 1


# ----------------------------------------------------------------------
# (b) the object tag follows source and injected values
# ----------------------------------------------------------------------
def test_so_tag_changes_iff_source_or_injected_value_changes(
    monkeypatch, tmp_path
):
    def tag():
        return build._so_path(build._flags())

    monkeypatch.delenv("CC", raising=False)
    baseline = tag()
    assert tag() == baseline
    with monkeypatch.context() as patch:
        patch.setattr(flit, "SEQ_RING", 512)
        assert tag() != baseline
    with monkeypatch.context() as patch:
        swapped = dict(reversed(list(accel._CFG.items())))
        patch.setattr(accel, "_CFG", swapped)
        assert tag() != baseline
    # $CC's arguments reach the compile, so they are part of the tag;
    # the program name (a wrapper, another compiler) is not.
    with monkeypatch.context() as patch:
        patch.setenv("CC", "some-other-compiler")
        assert tag() == baseline
        patch.setenv("CC", "cc -DX")
        with_argument = tag()
        assert with_argument != baseline
        patch.setenv("CC", "other-cc -DX")
        assert tag() == with_argument
        patch.setenv("CC", "cc -DY")
        assert tag() not in (baseline, with_argument)
    # numpy's distributions are linked in statically: another numpy is
    # another object, and so is another set of compile options.
    with monkeypatch.context() as patch:
        patch.setattr(build.numpy, "__version__", "0.0.0+other")
        assert tag() != baseline
    with monkeypatch.context() as patch:
        patch.setattr(build, "_CFLAGS", (*build._CFLAGS, "-O3"))
        assert tag() != baseline
    assert "-ffp-contract=off" in build._CFLAGS
    assert tag() == baseline
    _patched_source(monkeypatch, tmp_path, "/* edited */\n")
    assert os.path.basename(tag()) != os.path.basename(baseline)


def test_abi_defines_number_each_table_densely():
    defines = accel.abi_defines()
    for prefix, table in (
        ("PT_", accel._PT), ("CFG_", accel._CFG), ("FCFG_", accel._FCFG),
        ("CTR_", accel._CTR),
    ):
        indices = [defines[prefix + name] for name in table]
        assert indices == list(range(len(table)))
    assert all(type(value) is int for value in defines.values())
    assert defines["KEY_MAX"] == np.iinfo(np.int64).max
    assert defines["HOP_ONE"] == 1 << defines["HOPS_SHIFT"]


def test_every_table_slot_python_injects_is_named_in_kernels_c():
    """No dead slot: an array Python allocates, or a counter it mirrors,
    for a kernel that no longer reads it.  A word search, not a parser —
    a name that survives only in a comment passes.  Enum codes
    (``ARB_OLDEST_FIRST``, ``LOC_POWERLAW``, ...) are exempt: the code C
    never names is the branch its ``else`` takes, not a dead value."""
    with open(build._SRC, encoding="utf-8") as handle:
        words = set(re.findall(r"\w+", handle.read()))
    dead = [
        name for name in accel.abi_defines()
        if name.startswith(("PT_", "CFG_", "FCFG_", "CTR_"))
        and name not in words
    ]
    assert dead == []


# ----------------------------------------------------------------------
# (c), (d) names C uses must come from Python, through the build
# ----------------------------------------------------------------------
@needs_native
def test_uninjected_name_is_a_build_error_naming_it(
    monkeypatch, tmp_path, scratch_build
):
    _patched_source(
        monkeypatch, tmp_path,
        "long long probe(void **pt) { return (long long)pt[PT_NO_SUCH_SLOT]; }\n",
    )
    with pytest.raises(NativeBuildError, match="PT_NO_SUCH_SLOT"):
        load_library()
    assert not native_available()


@needs_native
def test_slot_dropped_from_python_table_is_a_build_error_naming_it(
    monkeypatch, scratch_build
):
    dropped = {k: v for k, v in accel._PT.items() if k != "RING_BIRTH"}
    monkeypatch.setattr(accel, "_PT", dropped)
    with pytest.raises(NativeBuildError, match="PT_RING_BIRTH"):
        load_library()


@needs_native
def test_bare_compile_without_flags_hits_the_error_guard(tmp_path):
    proc = subprocess.run(
        [*build._find_compiler(), "-c", build._SRC, "-o",
         str(tmp_path / "kernels.o")],
        capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "build through repro.native.build" in proc.stderr


@needs_native
def test_noc_span_is_the_only_entry_point():
    """The per-phase exports are gone, from the object and the source:
    a phase on its own is a one-bit noc_span call."""
    assert build.KERNELS == ("noc_span",)
    lib = load_library()
    for name in ("noc_cores", "noc_issue", "noc_memory", "noc_bless",
                 "noc_credit", "noc_eject"):
        assert not hasattr(lib, name)
    with open(build._SRC, encoding="utf-8") as handle:
        source = handle.read()
    external = re.findall(
        r"^(?!static\b|extern\b|typedef\b)[a-z][\w *]*?\b(\w+)\(",
        source, re.MULTILINE,
    )
    assert external == ["noc_span"]
    defines = accel.abi_defines()
    bits = [defines["PHASE_" + name.upper()] for name in accel.PHASES]
    assert bits == [1, 2, 4, 8, 16]


# ----------------------------------------------------------------------
# Mutants of credit_phase the equivalence suite must kill (ROADMAP 3d)
# ----------------------------------------------------------------------
#: The ways the three-pass rewrite can go wrong: name -> (text that
#: occurs once in kernels.c, its replacement).
CREDIT_MUTANTS = {
    # One-phase: each winner is granted as soon as it is checked, so a
    # later node's check sees this port's pops and reservations.
    "grant applied inside the check loop": (
        "            list[nw] = list[j];\n"
        "            w_down[nw] = idx;\n"
        "            nw++;\n"
        "        }\n"
        "        for (i64 k = 0; k < nw; k++) {\n"
        "            i64 node = list[k] / MAX_PORTS, idx = w_down[k];\n"
        "            i64 bi = node * pp + list[k] % MAX_PORTS, h = buf_head[bi];\n",
        "            nw++;\n"
        "            i64 bi = node * pp + list[j] % MAX_PORTS, h = buf_head[bi];\n",
    ),
    "output ports visited p-1..0": (
        "    for (i64 op = 0; op < p; op++) {\n        i64 *list",
        "    for (i64 op = p - 1; op >= 0; op--) {\n        i64 *list",
    ),
    "credit check without reserved": (
        "buf_count[down * pp + dport] + reserved[idx] >= bufcap",
        "buf_count[down * pp + dport] >= bufcap",
    ),
}

#: Known equivalent mutant, not chased: a tie keeps the first port only
#: if two heads of one router can carry the same key, and keys are
#: unique per flit (birth and source; 63 random bits).
CREDIT_EQUIVALENT_MUTANT = ("|| k < best[op]) {", "|| k <= best[op]) {")


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(CREDIT_MUTANTS))
def test_credit_phase_mutant_dies_on_the_three_way_suite(
    name, monkeypatch, tmp_path, scratch_build
):
    """The mutant goes through the normal build path, from a mutated
    copy of kernels.c, and must break numpy == fused == per-phase on a
    4x5 torus (which the unmutated kernel passes in
    test_grid_routes_agree_with_and_without_route_tables)."""
    with open(build._SRC, encoding="utf-8") as handle:
        source = handle.read()
    assert source.count(CREDIT_EQUIVALENT_MUTANT[0]) == 1
    text, replacement = CREDIT_MUTANTS[name]
    assert source.count(text) == 1
    mutant = tmp_path / "kernels.c"
    mutant.write_text(source.replace(text, replacement), encoding="utf-8")
    monkeypatch.setattr(build, "_SRC", str(mutant))
    with pytest.raises(AssertionError):
        _three_ways(network="buffered", topology="torus", width=4, height=5,
                    nodes=20)
    assert len(list(scratch_build.glob("kernels-*.so"))) == 1


@pytest.mark.skipif(
    build._find_compiler() is None
    or not os.path.isfile(build._npyrandom_path()),
    reason="no C compiler (or no libnpyrandom.a) to build with",
)
def test_kernels_compile_warning_free(tmp_path):
    """The real command plus -Wall -Wextra -Werror: the per-node stack
    arrays, port masks and casts of the kernels stay clean.  Not gated
    on ``native_available()``: a kernels.c that does not compile fails
    here instead of skipping every native test."""
    command = build._command(
        build._find_compiler(), build._flags(), str(tmp_path / "kernels.so")
    )
    proc = subprocess.run(
        [*command, "-Wall", "-Wextra", "-Werror"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# (e) failure drills: every one ends in a named error or a rebuild
# ----------------------------------------------------------------------
def test_no_compiler_is_native_unsupported_naming_numpy(
    monkeypatch, tmp_path, scratch_build
):
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.delenv("CC", raising=False)
    assert not native_available()
    with pytest.raises(NativeUnsupported, match="backend='numpy'"):
        _simulator("native")


@needs_native
def test_numpy_without_libnpyrandom_is_native_unsupported_naming_the_file(
    monkeypatch, tmp_path, scratch_build
):
    """The fused span draws through numpy's own static library; a numpy
    that ships none is a named refusal before anything is compiled."""
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setattr(build, "_npyrandom_path", lambda: str(missing))
    with pytest.raises(NativeBuildError, match="libnpyrandom.a"):
        load_library()
    assert not native_available()
    with pytest.raises(
        NativeUnsupported, match="libnpyrandom.a.*backend='numpy'"
    ):
        _simulator("native")
    assert not list(scratch_build.glob("*"))  # no half-built object


@needs_native
def test_truncated_object_is_rebuilt_once_and_loaded(
    monkeypatch, scratch_build
):
    # Compiled but never loaded here: truncating a mapped object would
    # crash this process instead of exercising the loader.
    flags = build._flags()
    so_path = Path(build._so_path(flags))
    build._compile(str(so_path), flags)
    good_size = so_path.stat().st_size
    so_path.write_bytes(so_path.read_bytes()[:100])
    compiles = []
    real_compile = build._compile

    def counting_compile(path, flags):
        compiles.append(path)
        real_compile(path, flags)

    monkeypatch.setattr(build, "_compile", counting_compile)
    lib = load_library()
    assert compiles == [str(so_path)]
    assert so_path.stat().st_size == good_size
    assert all(hasattr(lib, name) for name in build.KERNELS)


def test_unwritable_build_dir_is_a_named_error(monkeypatch, tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(build, "_BUILD_DIR", str(blocker / "_build"))
    monkeypatch.setattr(build, "_lib", None)
    assert native_available() is False
    with pytest.raises(NativeBuildError):
        load_library()
    with pytest.raises(NativeUnsupported):
        _simulator("native")


@needs_native
def test_cc_with_arguments_is_probed_by_first_word_and_passed_through(
    monkeypatch, tmp_path, scratch_build
):
    _patched_source(
        monkeypatch, tmp_path,
        '#ifndef CC_ARGUMENT_SEEN\n#error "CC arguments dropped"\n#endif\n',
    )
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    monkeypatch.setenv("CC", f"{compiler} -DCC_ARGUMENT_SEEN")
    assert build._find_compiler() == [compiler, "-DCC_ARGUMENT_SEEN"]
    load_library()
    monkeypatch.setenv("CC", "no-such-compiler -DCC_ARGUMENT_SEEN")
    assert build._find_compiler()[0] in ("cc", "gcc", "clang")


@needs_native
def test_noncontiguous_slot_array_is_refused_by_name():
    sim = _simulator("numpy")
    n = sim.network.num_nodes
    sim.network.congested_nodes = np.zeros(2 * n, dtype=np.bool_)[::2]
    with pytest.raises(NativeUnsupported, match="PT_CONGESTED"):
        NativeAccel(sim)


@needs_native
def test_flush_mirrors_every_counter_back_with_its_python_type():
    sim = _simulator("native", epoch=100)
    before = {
        (id(owner), attr): type(getattr(owner, attr))
        for _, owner, attr, _ in sim._accel._mirrors
    }
    sim.run(250)
    assert sim.network.stats.cycles == 250
    assert sim.network._cursor == 250 % sim.network._ring_depth
    for _, owner, attr, _ in sim._accel._mirrors:
        assert type(getattr(owner, attr)) is before[(id(owner), attr)]
    assert type(sim.cores._head_dirty) is bool
