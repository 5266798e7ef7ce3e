"""One owner per run-description fact, checked on the running program.

These are the runtime successors of the CFG001/REG001 lints: instead of
comparing source text, they ask the registries, the parsers and the
``JobSpec`` dataclass themselves, parametrized over the registry tables
so a new entry is covered (or fails for want of a case) on arrival.
"""

import ast
import dataclasses
import json
import pathlib
import pickle

import numpy as np
import pytest

import repro
import repro.__main__ as cli
from repro import SimulationConfig, make_homogeneous_workload
from repro.analysis.__main__ import build_parser as build_analysis_parser
from repro.config import BACKENDS
from repro.control.hierarchical import COORDINATION_MODES
from repro.control.registry import (
    CONTROLLER_NAMES,
    CONTROLLERS,
    build_controller,
)
from repro.experiments.sweeps import NETWORK_VARIANTS
from repro.guardrails import FaultConfig, FaultModel
from repro.harness import JobSpec, build, run_job
from repro.native import native_available
from repro.network import (
    NETWORK_MODELS,
    NETWORK_NAMES,
    CreditFlowControl,
    DeflectFlowControl,
    HybridFlowControl,
    RouterEngine,
    build_network,
)
from repro.rng import child_rng
from repro.topology import Mesh2D
from repro.topology.registry import TOPOLOGY_NAMES
from repro.traffic.locality import LOCALITY_MODELS, LOCALITY_NAMES
from repro.traffic.workloads import WORKLOAD_CATEGORIES

EPOCH = 400
DEMO = pathlib.Path(__file__).resolve().parents[1] / "examples" / "chaos_demo.json"

#: name -> (CLI flags that parameterize it, the equivalent JobSpec recipe)
CONTROLLER_CASES = {
    "none": ([], ("none",)),
    "central": ([], ("central",)),
    "distributed": ([], ("distributed",)),
    "static": (["--static-rate", "0.3"], ("static", 0.3)),
    "hierarchical": (
        ["--controller-domains", "4", "--controller-mode", "local"],
        ("hierarchical", 4, "local"),
    ),
    "fair": ([], ("fair",)),
}


def spec(**overrides) -> JobSpec:
    return JobSpec(**{"app_names": ("mcf",) * 16, "cycles": 1200,
                      "epoch": EPOCH, **overrides})


def cli_spec(argv):
    """The spec ``python -m repro <argv>`` describes (one cell)."""
    (cell,) = cli._specs(cli.build_parser().parse_args(argv))
    return cell


def cli_controller(argv):
    """The controller ``python -m repro <argv>`` would install."""
    cell = cli_spec(argv)
    return build_controller(cell.controller, epoch=cell.epoch)


class TestControllerRegistry:
    def test_every_entry_has_a_case(self):
        assert set(CONTROLLER_CASES) == set(CONTROLLER_NAMES)

    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_cli_flags_and_recipe_build_the_same_controller(self, name):
        flags, recipe = CONTROLLER_CASES[name]
        from_cli = cli_controller(
            ["--controller", name, "--epoch", str(EPOCH), *flags]
        )
        from_spec = build_controller(
            spec(controller=recipe).controller, epoch=EPOCH
        )
        assert type(from_spec) is type(from_cli)
        assert from_spec.describe() == from_cli.describe()

    @pytest.mark.parametrize(
        "name", ["none", "central", "distributed", "hierarchical", "fair"]
    )
    def test_flag_defaults_match_recipe_defaults(self, name):
        from_cli = cli_controller(
            ["--controller", name, "--epoch", str(EPOCH)]
        )
        from_spec = build_controller((name,), epoch=EPOCH)
        assert from_spec.describe() == from_cli.describe()

    def test_kinds_are_the_entries_with_a_recipe(self):
        """No scheme is CLI-only: every registry entry prints a recipe
        form, and a JobSpec accepts it."""
        for name, entry in CONTROLLERS.items():
            assert entry.recipe.startswith(f'("{name}"')
            recipe = CONTROLLER_CASES[name][1]
            assert spec(controller=recipe).controller == recipe

    @pytest.mark.parametrize("recipe, form", [
        (("static",), '("static", rate, app)'),
        (("static", 1.7), '("static", rate, app)'),
        (("static", True), '("static", rate, app)'),
        (("static", 0.9, "quake"), '("static", rate, app)'),
        (("central", "x"), '("central", alpha_throt, gamma_throt)'),
        (("central", 0), '("central", alpha_throt, gamma_throt)'),
        (("central", -0.5), '("central", alpha_throt, gamma_throt)'),
        (("central", 0.9, 0.0), '("central", alpha_throt, gamma_throt)'),
        (("central", 0.9, 1.5), '("central", alpha_throt, gamma_throt)'),
        (("central", 0.9, 0.75, 1), '("central", alpha_throt, gamma_throt)'),
        (("fair", 2.5), '("fair",)'),
        (("none", "x"), '("none",)'),
    ])
    def test_malformed_recipes_rejected_at_construction(self, recipe, form):
        """Used to surface as IndexError/ValueError inside the worker:
        an unknown app, alpha <= 0, gamma outside (0, 1], an argument
        the scheme does not take."""
        with pytest.raises(ValueError) as raised:
            spec(controller=recipe)
        assert form in str(raised.value)

    @pytest.mark.parametrize("spelled, canonical", [
        (("central", 0.9, 0.75), ("central",)),
        (("central", 0.9), ("central",)),
        (("central", 0.3, 0.75), ("central", 0.3)),
        (("central", 0.9, 0.5), ("central", 0.9, 0.5)),
        (("hierarchical", 0, "global"), ("hierarchical",)),
        (("hierarchical", 4, "global"), ("hierarchical", 4)),
        (("static", 0.9, None), ("static", 0.9)),
    ])
    def test_one_run_one_key(self, spelled, canonical):
        """Trailing arguments equal to their defaults are dropped, so a
        run spelled with and without them is one cache entry."""
        assert spec(controller=spelled).controller == canonical
        assert (spec(controller=spelled).content_hash()
                == spec(controller=canonical).content_hash())

    def test_static_app_the_workload_does_not_run_fails_at_build(self):
        """The app is checked against the catalog at construction and
        against the workload (all mcf here) when built, before a cycle."""
        with pytest.raises(ValueError, match="'gromacs', which the work"):
            build(spec(controller=("static", 0.9, "gromacs")))


# ----------------------------------------------------------------------
# Name tables: one object, read by the config check and every parser
# ----------------------------------------------------------------------
NAME_TABLES = {
    "network": NETWORK_NAMES,
    "topology": TOPOLOGY_NAMES,
    "backend": BACKENDS,
    "locality": LOCALITY_NAMES,
    "controller": CONTROLLER_NAMES,
    "controller_mode": COORDINATION_MODES,
}

PARSERS = {
    "run": cli.build_parser,
    "figure": cli.build_figure_parser,
}

#: A folded verb's option and the ``run`` option that took its value
#: (``None``: dropped; the overhead check is best of a constant 2).  Every
#: other option of ``sweep``, ``profile`` and ``chaos`` kept its name.
RENAMED = {
    "--sizes": "--nodes", "--networks": "--network",
    "--script": "--chaos-script", "--no-invariants": "--check-invariants",
    "--repeats": None,
}

#: The surface rows of the verbs that folded into ``run``, recorded from
#: their last parsers.  Each case checks that ``run`` takes every option
#: (under its ``RENAMED`` name) and checks its value as the verb did.
#: Defaults are ``run``'s now: a sweep, profile or campaign spells out the
#: ``--cycles``, ``--seed`` or ``--watchdog`` the verb defaulted.
FOLDED = {
    "sweep": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--sizes",), "sizes", "16,64", None, None, "_StoreAction"),
        (("--networks",), "networks", "bless,bless-throttling,buffered", None, None, "_StoreAction"),
        (("--cycles",), "cycles", 8000, "_positive_int", None, "_StoreAction"),
        (("--category",), "category", "H", None, "WORKLOAD_CATEGORIES", "_StoreAction"),
        (("--seed",), "seed", 2, "int", None, "_StoreAction"),
        (("--epoch",), "epoch", 1200, "int", None, "_StoreAction"),
        (("--topology",), "topology", "mesh", None, "TOPOLOGY_NAMES", "_StoreAction"),
        (("--locality",), "locality", "exponential", None, "LOCALITY_NAMES", "_StoreAction"),
        (("--locality-param",), "locality_param", 1.0, "float", None, "_StoreAction"),
        (("--jobs",), "jobs", None, "int", None, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, "_StoreAction"),
        (("--no-progress",), "no_progress", False, None, None, "_StoreTrueAction"),
    ],
    "profile": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--category",), "category", "H", None, "WORKLOAD_CATEGORIES", "_StoreAction"),
        (("--nodes",), "nodes", 64, "int", None, "_StoreAction"),
        (("--cycles",), "cycles", 20000, "_positive_int", None, "_StoreAction"),
        (("--seed",), "seed", 1, "int", None, "_StoreAction"),
        (("--epoch",), "epoch", 2000, "int", None, "_StoreAction"),
        (("--network",), "network", "bless", None, "NETWORK_NAMES", "_StoreAction"),
        (("--topology",), "topology", "mesh", None, "TOPOLOGY_NAMES", "_StoreAction"),
        (("--trace",), "trace", False, None, None, "_StoreTrueAction"),
        (("--trace-sample",), "trace_sample", 0.0625, "float", None, "_StoreAction"),
        (("--overhead-check",), "overhead_check", None, "float", None, "_StoreAction"),
        (("--repeats",), "repeats", 2, "_positive_int", None, "_StoreAction"),
    ],
    "chaos": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--script",), "script", "examples/chaos_demo.json", None, None, "_StoreAction"),
        (("--category",), "category", "H", None, "WORKLOAD_CATEGORIES", "_StoreAction"),
        (("--nodes",), "nodes", 16, "int", None, "_StoreAction"),
        (("--cycles",), "cycles", 5000, "_positive_int", None, "_StoreAction"),
        (("--seed",), "seed", 1, "int", None, "_StoreAction"),
        (("--epoch",), "epoch", 2000, "int", None, "_StoreAction"),
        (("--network",), "network", "bless", None, "NETWORK_NAMES", "_StoreAction"),
        (("--topology",), "topology", "mesh", None, "TOPOLOGY_NAMES", "_StoreAction"),
        (("--controller",), "controller", "none", None, "CONTROLLER_NAMES", "_StoreAction"),
        (("--static-rate",), "static_rate", 0.5, "float", None, "_StoreAction"),
        (("--no-invariants",), "check_invariants", True, None, None, "_StoreFalseAction"),
        (("--watchdog",), "watchdog_window", 2000, "int", None, "_StoreAction"),
    ],
}


def folded_actions(command):
    """The ``run`` actions that took the options of folded verb *command*
    (a key of ``FOLDED``)."""
    run = cli.build_parser()._option_string_actions
    targets = {
        RENAMED.get(option, option)
        for options, *_ in FOLDED[command] for option in options
    } - {None}
    return list(dict.fromkeys(run[target] for target in sorted(targets)))


class TestNameTables:
    @pytest.mark.parametrize("field, name", [
        (field, name)
        for field in ("network", "topology", "backend", "locality")
        for name in NAME_TABLES[field]
    ])
    def test_config_accepts_every_registered_name(self, field, name):
        # 64 nodes fit every layout: 8x8 grids, a 4x4x4 cube, 4x4 tiles.
        workload = make_homogeneous_workload("mcf", 64)
        config = SimulationConfig(workload, **{field: name})
        assert getattr(config, field) == name

    @pytest.mark.parametrize("field", ["network", "backend", "locality"])
    def test_config_rejects_unregistered_names(self, field):
        workload = make_homogeneous_workload("mcf", 16)
        with pytest.raises(ValueError, match="wormhole"):
            SimulationConfig(workload, **{field: "wormhole"})

    def test_name_tuples_are_the_builder_tables(self):
        assert NETWORK_NAMES == tuple(NETWORK_MODELS)
        assert LOCALITY_NAMES == tuple(LOCALITY_MODELS)

    @pytest.mark.parametrize(
        "command", [*(c for c in PARSERS if c != "figure"), *FOLDED]
    )  # figure has no config flags; a folded verb's flags are run's
    def test_parser_choices_are_the_registry_objects(self, command):
        checked = 0
        actions = (folded_actions(command) if command in FOLDED
                   else PARSERS[command]()._actions)
        for action in actions:
            if action.dest in NAME_TABLES:
                assert action.choices is NAME_TABLES[action.dest], action.dest
                checked += 1
        assert checked >= 2

    def test_sweep_variants_cover_every_network_model(self):
        """Each variant is a ``run`` grid value: a router model, or
        ``bless-throttling``'s ``--controller central`` on BLESS."""
        assert set(NETWORK_MODELS) < set(NETWORK_VARIANTS)
        for name in NETWORK_MODELS:
            assert NETWORK_VARIANTS[name] == (name, ("none",))
        throttled = cli_spec(["--controller", "central"])
        assert ((throttled.network, throttled.controller)
                == NETWORK_VARIANTS["bless-throttling"])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["--network", "bless", "wormhole"])


# ----------------------------------------------------------------------
# Network registry: one construction path, every field forwarded once
# ----------------------------------------------------------------------
#: name -> (the recipe's flow class, its model-specific config fields at
#: non-default values)
NETWORK_CASES = {
    "bless": (DeflectFlowControl, {"eject_width": 2}),
    "buffered": (CreditFlowControl, {"buffer_capacity": 5}),
    "hybrid": (
        HybridFlowControl, {"eject_width": 2, "side_buffer_capacity": 3},
    ),
}

#: shared engine parameter -> (non-default config overrides, how to read
#: it back off the engine, expected value)
SHARED_FIELDS = {
    # hop_latency is the config's router_latency + link_latency.
    "hop_latency": ({"router_latency": 4}, lambda net: net.hop_latency, 5),
    "queue_capacity": (
        {"queue_capacity": 7},
        lambda net: (net.request_queue.capacity, net.response_queue.capacity),
        (7, 7),
    ),
    "arbitration": (
        {"arbitration": "youngest_first"},
        lambda net: (net.arbitration, type(net._arb).name),
        ("youngest_first", "youngest_first"),
    ),
}


def network_config(name, **overrides):
    return SimulationConfig(
        make_homogeneous_workload("mcf", 16), network=name, **overrides
    )


class TestNetworkRegistry:
    def test_every_entry_has_a_case(self):
        assert set(NETWORK_CASES) == set(NETWORK_NAMES)

    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_builds_an_engine_around_the_recipes_flow(self, name):
        config = network_config(name)
        flow = NETWORK_MODELS[name](config)
        assert type(flow) is NETWORK_CASES[name][0]
        net = build_network(config, Mesh2D(4, 4))
        assert type(net) is RouterEngine
        assert type(net.flow) is type(flow)

    @pytest.mark.parametrize("field", SHARED_FIELDS)
    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_shared_field_reaches_the_engine(self, name, field):
        """One parameter per case, so a dropped keyword fails by name
        (buffered used to drop ``arbitration`` and ``rng``)."""
        overrides, read, expected = SHARED_FIELDS[field]
        default = build_network(network_config(name), Mesh2D(4, 4))
        assert read(default) != expected  # the case is not vacuous
        net = build_network(network_config(name, **overrides), Mesh2D(4, 4))
        assert read(net) == expected

    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_rng_object_reaches_the_engine(self, name):
        rng = child_rng(3, "arbitration")
        net = build_network(network_config(name), Mesh2D(4, 4), rng=rng)
        assert net._rng is rng

    @pytest.mark.parametrize("name", NETWORK_NAMES)
    def test_fault_model_reaches_the_engine(self, name):
        topology = Mesh2D(4, 4)
        faults = FaultModel(topology, None)
        net = build_network(
            network_config(name), topology, fault_model=faults
        )
        assert net.fault_model is faults
        assert net.link_up is faults.link_up

    @pytest.mark.parametrize("name, field", [
        (name, field)
        for name, (_, fields) in NETWORK_CASES.items() for field in fields
    ])
    def test_model_specific_field_reaches_its_flow(self, name, field):
        value = NETWORK_CASES[name][1][field]
        assert getattr(network_config(name), field) != value
        net = build_network(
            network_config(name, **{field: value}), Mesh2D(4, 4)
        )
        assert getattr(net.flow, field) == value
        assert getattr(net, field) == value  # the observers' stable name


# ----------------------------------------------------------------------
# CLI surface: same option strings as before, no orphaned dest
# ----------------------------------------------------------------------
OPTION_STRINGS = {
    "run": [
        "--app", "--backend", "--cache-dir", "--category", "--chaos-script",
        "--check-invariants", "--chiplet-tile", "--controller",
        "--controller-domains", "--controller-mode", "--cycles", "--depth",
        "--epoch", "--express-stride", "--fault-seed", "--help", "--jobs",
        "--link-faults", "--list-controllers", "--list-topologies",
        "--locality", "--locality-param", "--max-flit-age", "--network",
        "--no-progress", "--nodes", "--overhead-check", "--profile",
        "--router-faults", "--seed", "--static-rate", "--timeout",
        "--topology", "--trace", "--trace-capacity", "--trace-sample",
        "--transient-faults", "--watchdog", "-h",
    ],
    "figure": [
        "--cache-dir", "--help", "--jobs", "--markdown", "--no-progress",
        "--scale", "-h",
    ],
}


#: One row per parser action: (option strings, dest, default, type name,
#: choices, action class).  A choices entry naming a registry tuple is
#: checked by identity.  Recorded from the hand-written parsers before
#: their config flags were generated from ``SimulationConfig`` field
#: metadata; every ``--cycles`` has since taken ``_positive_int``.  The
#: ``sweep``, ``profile`` and ``chaos`` parsers folded into ``run``: its
#: grid flags take lists, and it gained the harness flags and
#: ``--overhead-check``.
PARSER_SURFACE = {
    "run": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--app",), "app", None, None, None, "_StoreAction"),
        (("--category",), "category", None, None, "WORKLOAD_CATEGORIES", "_StoreAction"),
        (("--nodes",), "nodes", [16], "int", None, "_StoreAction"),
        (("--cycles",), "cycles", 20000, "_positive_int", None, "_StoreAction"),
        (("--seed",), "seed", 1, "int", None, "_StoreAction"),
        (("--epoch",), "epoch", 2000, "int", None, "_StoreAction"),
        (("--network",), "network", ["bless"], None, "NETWORK_NAMES", "_StoreAction"),
        (("--topology",), "topology", "mesh", None, "TOPOLOGY_NAMES", "_StoreAction"),
        (("--controller",), "controller", ["none"], None, "CONTROLLER_NAMES", "_StoreAction"),
        (("--static-rate",), "static_rate", 0.5, "float", None, "_StoreAction"),
        (("--backend",), "backend", None, None, "BACKENDS", "_StoreAction"),
        (("--depth",), "depth", 0, "int", None, "_StoreAction"),
        (("--chiplet-tile",), "chiplet_tile", 4, "int", None, "_StoreAction"),
        (("--express-stride",), "express_stride", 4, "int", None, "_StoreAction"),
        (("--controller-domains",), "controller_domains", 0, "int", None, "_StoreAction"),
        (("--controller-mode",), "controller_mode", "global", None, "COORDINATION_MODES", "_StoreAction"),
        (("--list-controllers",), "list_controllers", False, None, None, "_StoreTrueAction"),
        (("--list-topologies",), "list_topologies", False, None, None, "_StoreTrueAction"),
        (("--locality",), "locality", "uniform", None, "LOCALITY_NAMES", "_StoreAction"),
        (("--locality-param",), "locality_param", 1.0, "float", None, "_StoreAction"),
        (("--profile",), "profile", False, None, None, "_StoreTrueAction"),
        (("--trace",), "trace", False, None, None, "_StoreTrueAction"),
        (("--trace-sample",), "trace_sample", 0.0625, "float", None, "_StoreAction"),
        (("--trace-capacity",), "trace_capacity", 65536, "int", None, "_StoreAction"),
        (("--overhead-check",), "overhead_check", None, "float", None, "_StoreAction"),
        (("--check-invariants",), "check_invariants", False, None, None, "_StoreTrueAction"),
        (("--watchdog",), "watchdog_window", 0, "int", None, "_StoreAction"),
        (("--max-flit-age",), "max_flit_age", 0, "int", None, "_StoreAction"),
        (("--timeout",), "timeout", None, "float", None, "_StoreAction"),
        (("--link-faults",), "link_faults", 0.0, "float", None, "_StoreAction"),
        (("--router-faults",), "router_faults", 0.0, "float", None, "_StoreAction"),
        (("--transient-faults",), "transient_faults", 0.0, "float", None, "_StoreAction"),
        (("--fault-seed",), "fault_seed", 0, "int", None, "_StoreAction"),
        (("--chaos-script",), "chaos_script", None, None, None, "_StoreAction"),
        (("--jobs",), "jobs", None, "int", None, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, "_StoreAction"),
        (("--no-progress",), "no_progress", False, None, None, "_StoreTrueAction"),
    ],
    "figure": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        ((), "names", None, None, None, "_StoreAction"),
        (("--scale",), "scale", 1.0, "float", None, "_StoreAction"),
        (("--markdown",), "markdown", None, None, None, "_StoreAction"),
        (("--jobs",), "jobs", None, "int", None, "_StoreAction"),
        (("--cache-dir",), "cache_dir", None, None, None, "_StoreAction"),
        (("--no-progress",), "no_progress", False, None, None, "_StoreTrueAction"),
    ],
}

REGISTRIES = {
    "NETWORK_NAMES": NETWORK_NAMES, "TOPOLOGY_NAMES": TOPOLOGY_NAMES,
    "BACKENDS": BACKENDS, "LOCALITY_NAMES": LOCALITY_NAMES,
    "CONTROLLER_NAMES": CONTROLLER_NAMES,
    "COORDINATION_MODES": COORDINATION_MODES,
    "WORKLOAD_CATEGORIES": WORKLOAD_CATEGORIES,
}


def surface_row(action):
    choices = action.choices
    if choices is not None:
        named = [k for k, v in REGISTRIES.items() if v is choices]
        choices = named[0] if named else tuple(choices)
    type_name = None if action.type is None else action.type.__name__
    return (tuple(action.option_strings), action.dest, action.default,
            type_name, choices, type(action).__name__)


def cli_simulator(argv):
    """The simulator ``python -m repro <argv>`` would run."""
    return build(cli_spec(argv))


#: Config fields that are ``python -m repro`` flags (a "help" entry in
#: their field metadata).
CONFIG_FLAGS = [
    f for f in dataclasses.fields(SimulationConfig) if "help" in f.metadata
]


def non_default(field, default):
    """A valid command-line value for *field* other than *default*."""
    if "choices" in field.metadata:
        return next(c for c in field.metadata["choices"] if c != default)
    return default + 1 if isinstance(default, int) else default / 2


class TestCliSurface:
    @pytest.mark.parametrize("command", [*PARSERS, *FOLDED])
    def test_option_strings_unchanged(self, command):
        """A folded verb's options are all ``run``'s, as ``RENAMED`` says."""
        if command in FOLDED:
            run = cli.build_parser()._option_string_actions
            for options, *_ in FOLDED[command]:
                for option in options:
                    if RENAMED.get(option, option) is not None:
                        assert RENAMED.get(option, option) in run, option
            return
        parser = PARSERS[command]()
        assert sorted(parser._option_string_actions) == OPTION_STRINGS[command]

    @pytest.mark.parametrize("command", [*PARSERS, *FOLDED])
    def test_parser_surface_unchanged(self, command):
        """A folded verb's option checks its value on ``run`` as it did:
        the same type and the same registry choices, where it had any."""
        if command in FOLDED:
            run = cli.build_parser()._option_string_actions
            for options, _, _, type_name, choices, _ in FOLDED[command]:
                target = RENAMED.get(options[-1], options[-1])
                if target is None:
                    continue
                _, _, _, run_type, run_choices, _ = surface_row(run[target])
                if type_name is not None:
                    assert run_type == type_name, options
                if choices is not None:
                    assert run_choices == choices, options
            return
        rows = [surface_row(a) for a in PARSERS[command]()._actions]
        assert rows == PARSER_SURFACE[command]

    def test_run_declares_every_config_flag(self):
        dests = {a.dest for a in cli.build_parser()._actions}
        assert {f.name for f in CONFIG_FLAGS} <= dests

    @pytest.mark.parametrize("field", CONFIG_FLAGS, ids=lambda f: f.name)
    def test_every_config_flag_reaches_the_config(self, field):
        """Generated from the field metadata: a flag added to a field
        later is covered by construction."""
        action = next(
            a for a in cli.build_parser()._actions if a.dest == field.name
        )
        if isinstance(field.default, bool):
            argv, value = [action.option_strings[0]], True
        else:  # --backend's flag default is None: "not given"
            default = action.default
            value = non_default(field, default or field.default)
            argv = [action.option_strings[0], str(value)]
        if value == "native" and not native_available():
            pytest.skip("no C compiler for the native backend")
        simulator = cli_simulator(argv)
        assert getattr(simulator.config, field.name) == value

    def test_analysis_cli_lost_only_the_cache_and_baseline_flags(self):
        assert sorted(build_analysis_parser()._option_string_actions) == [
            "--exclude", "--format", "--help", "--ignore", "--list-rules",
            "--output", "--select", "-h",
        ]

    # The ids name the parser and entry point each case first covered;
    # a campaign and a timed run are ``run`` flags now.
    @pytest.mark.parametrize("extras", [
        pytest.param([[], ["--nodes", "16", "25"]], id="build_parser-main"),
        pytest.param([["--chaos-script", str(DEMO)]],
                     id="build_chaos_parser-chaos_main"),
        pytest.param([["--profile", "--overhead-check", "5"]],
                     id="build_profile_parser-profile_main"),
    ])
    def test_orphaned_dest_fails_loudly(self, extras, monkeypatch):
        """A flag nobody consumes and no config field matches is a
        TypeError on the first run (what CFG001 used to lint for): of
        one run, every grid cell, a campaign and a timed run."""
        build = cli.build_parser

        def with_orphan():
            parser = build()
            parser.add_argument("--orphan", default=1)
            return parser

        monkeypatch.setattr(cli, "build_parser", with_orphan)
        for extra in extras:
            with pytest.raises(TypeError, match="orphan"):
                cli.main(["--cycles", "10", *extra])


# ----------------------------------------------------------------------
# JobSpec: hash pre-image and forwarding cover the fields by construction
# ----------------------------------------------------------------------
class TestJobSpecFields:
    def test_canonical_encodes_exactly_the_fields(self):
        payload = json.loads(spec().canonical())
        assert sorted(payload) == sorted(
            f.name for f in dataclasses.fields(JobSpec)
        )

    def test_canonical_covers_a_new_field_by_construction(self):
        @dataclasses.dataclass(frozen=True)
        class Extended(JobSpec):
            flavour: str = "plain"

        kw = {"app_names": ("mcf",) * 16, "cycles": 1200}
        parent = JobSpec(**kw)
        assert Extended(**kw).content_hash() != parent.content_hash()
        assert (
            Extended(**kw, flavour="spicy").content_hash()
            != Extended(**kw).content_hash()
        )
        # with_config keeps the type and the extra field.
        profiled = Extended(**kw, flavour="spicy").with_config(profile=True)
        assert isinstance(profiled, Extended)
        assert profiled.flavour == "spicy"

    def test_run_job_forwards_a_new_field_by_construction(self):
        @dataclasses.dataclass(frozen=True)
        class Extended(JobSpec):
            flavour: str = "plain"

        with pytest.raises(TypeError, match="flavour"):
            run_job(Extended(("mcf",) * 16, cycles=10))

    def test_for_workload_lifts_any_spec_field(self):
        workload = make_homogeneous_workload("mcf", 16)
        lifted = JobSpec.for_workload(
            workload, 1200, config={"topology": "torus", "mshr_limit": 8}
        )
        assert lifted.topology == "torus"
        assert lifted.config == (("mshr_limit", 8),)

    def test_fault_config_json_round_trip(self):
        faults = FaultConfig(
            link_fault_rate=0.05, transient_fault_rate=0.01,
            router_fault_rate=0.06, seed=3, max_resample=8,
        )
        assert FaultConfig.from_json(faults.to_json()) == faults
        # Equal configs encode equally, whatever numeric types built them.
        assert FaultConfig(link_fault_rate=0, seed=np.int64(3)).to_json() \
            == FaultConfig(link_fault_rate=0.0, seed=3).to_json()

    def test_faults_key_carries_canonical_json_and_moves_the_hash(self):
        faults = FaultConfig(link_fault_rate=0.05, seed=3)
        with_faults = spec().with_config(faults=faults)
        assert with_faults.config == (("faults", faults.to_json()),)
        assert spec(config=(("faults", faults),)) == with_faults
        assert with_faults.content_hash() != spec().content_hash()
        reseeded = spec().with_config(
            faults=FaultConfig(link_fault_rate=0.05, seed=4)
        )
        assert reseeded.content_hash() != with_faults.content_hash()
        assert build(with_faults).config.faults == faults


# ----------------------------------------------------------------------
# One construction site: every command runs the JobSpec it describes
# ----------------------------------------------------------------------
SRC = pathlib.Path(repro.__file__).parent


def test_one_simulator_construction_site_outside_sim():
    """``harness/jobs.build`` is the only ``Simulator(...)`` call under
    ``src/repro`` outside ``repro.sim`` (docstrings are not calls): every
    figure report, Fig 5, §6.4 and §7 included, runs specs."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "Simulator":
                sites.append(relative.as_posix())
    assert sites == ["harness/jobs.py"]


#: argv samples of one run each (``chaos`` and ``profile`` are what
#: those verbs ran, as ``run`` flags); each must describe its run
#: completely in the spec it builds
CLI_SAMPLES = {
    "faults": ["--cycles", "1500", "--epoch", "500", "--link-faults",
               "0.05", "--router-faults", "0.06", "--fault-seed", "3",
               "--check-invariants"],
    "chaos-script": ["--cycles", "2500", "--epoch", "500",
                     "--chaos-script", str(DEMO)],
    "app": ["--app", "mcf", "--cycles", "1200", "--epoch", "400",
            "--controller", "static", "--static-rate", "0.3"],
    "trace": ["--cycles", "1200", "--epoch", "400", "--profile", "--trace",
              "--network", "buffered", "--timeout", "600"],
    "native": ["--backend", "native", "--cycles", "1200", "--epoch", "400",
               "--controller", "central"],
    "chaos": ["--chaos-script", str(DEMO), "--cycles", "2500",
              "--controller", "hierarchical", "--check-invariants",
              "--watchdog", "2000"],
    "profile": ["--nodes", "16", "--cycles", "1200", "--epoch", "400",
                "--profile", "--trace"],
}


@pytest.mark.slow
@pytest.mark.parametrize("sample", CLI_SAMPLES)
def test_cli_spec_runs_what_the_cli_runs(sample, monkeypatch, capsys):
    """The spec a command builds, shipped to a worker as a value, gives
    the result of the simulator the command ran (perf is wall-clock)."""
    if sample == "native" and not native_available():
        pytest.skip("no C compiler for the native backend")
    built = []

    def recording_build(spec):
        simulator = build(spec)
        built.append((spec, simulator))
        return simulator

    monkeypatch.setattr(cli, "build", recording_build)
    assert cli.main(CLI_SAMPLES[sample]) == 0
    capsys.readouterr()
    ((spec, simulator),) = built
    ran = simulator.result().to_dict()
    shipped = run_job(pickle.loads(pickle.dumps(spec))).to_dict()
    ran.pop("perf")
    shipped.pop("perf")
    assert shipped == ran


@pytest.mark.parametrize("sample", CLI_SAMPLES)
def test_a_cli_spec_names_its_backend(sample, monkeypatch, capsys):
    """One run names its backend — numpy unless ``--backend`` says
    otherwise; only a grid and figure let the harness pick (a picked
    profiled run would time fused spans against phases)."""
    specs = []

    def stop(spec):
        specs.append(spec)
        raise ValueError("built")

    monkeypatch.setattr(cli, "build", stop)
    assert cli.main(CLI_SAMPLES[sample]) == 2
    capsys.readouterr()
    (spec,) = specs
    expected = "native" if sample == "native" else "numpy"
    assert dict(spec.config)["backend"] == expected


def test_grid_rows_are_the_single_runs():
    """Each row of a 2 x 2 grid is the spec of the single run with the
    same flags; the single run's backend is the only difference."""
    common = ["--cycles", "1200", "--epoch", "400", "--seed", "3"]
    grid = cli._specs(cli.build_parser().parse_args(
        ["--nodes", "16", "25", "--controller", "none", "central", *common]
    ))
    singles = [
        cli_spec(["--nodes", nodes, "--controller", ctl, *common])
        for nodes in ("16", "25") for ctl in ("none", "central")
    ]
    assert len(grid) == len(singles) == 4
    assert all("backend" not in dict(row.config) for row in grid)
    for row, single in zip(grid, singles):
        assert row.content_hash() == single.content_hash()
        assert row.with_config(backend="numpy") == \
            single.with_config(backend="numpy")


def test_profile_smoke_times_the_run_profile_timed():
    """CI's profile-smoke flags on ``run`` describe the run the removed
    ``profile --nodes 64 --cycles 6000 --epoch 1000 --trace`` timed.
    Both literals were taken from the last commit that had ``profile``:
    the first is ``run --profile --trace`` with these flags there, the
    second ``profile``'s spec, which lacked the config keys only ``run``
    declares.  Those keys are at their ``SimulationConfig`` defaults."""
    spec = cli_spec(["--nodes", "64", "--cycles", "6000", "--epoch", "1000",
                     "--profile", "--trace", "--overhead-check", "5"])
    assert spec.content_hash() == (
        "1f88b410b9a6e237e24bad3d1d80d1cbe637e2011ca1874a545611ec11d2dff5"
    )
    run_only = {"check_invariants", "chiplet_tile", "depth", "express_stride",
                "max_flit_age", "trace_capacity", "watchdog_window"}
    config = dict(spec.config)
    for key in run_only:
        assert config.pop(key) == SimulationConfig.__dataclass_fields__[
            key].default
    as_profile = dataclasses.replace(spec, config=tuple(sorted(config.items())))
    assert as_profile.content_hash() == (
        "45155ad680016900a240a7faff6471f078e2590175c8f7337b8089645ca13431"
    )
