"""One owner per run-description fact, checked on the running program.

These are the runtime successors of the CFG001/REG001 lints: instead of
comparing source text, they ask the registries, the parsers and the
``JobSpec`` dataclass themselves, parametrized over the registry tables
so a new entry is covered (or fails for want of a case) on arrival.
"""

import dataclasses
import json

import pytest

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
from repro.guardrails import FaultModel
from repro.harness import JobSpec, run_job
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
}


def spec(**overrides) -> JobSpec:
    return JobSpec(**{"app_names": ("mcf",) * 16, "cycles": 1200,
                      "epoch": EPOCH, **overrides})


def cli_controller(argv):
    """The controller ``python -m repro <argv>`` would install."""
    opts = vars(cli.build_parser().parse_args(argv))
    recipe = cli._pop_controller_recipe(opts)
    return build_controller(recipe, epoch=opts["epoch"])


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
        "name", ["none", "central", "distributed", "hierarchical"]
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
        (("static",), '("static", rate)'),
        (("static", 1.7), '("static", rate)'),
        (("static", True), '("static", rate)'),
        (("central", 7), '("central",)'),
        (("none", "x"), '("none",)'),
    ])
    def test_malformed_recipes_rejected_at_construction(self, recipe, form):
        """Used to surface as IndexError/ValueError inside the worker —
        or, for ("central", 7), as a second cache key for the same run."""
        with pytest.raises(ValueError) as raised:
            spec(controller=recipe)
        assert form in str(raised.value)


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
    "sweep": cli.build_sweep_parser,
    "profile": cli.build_profile_parser,
    "chaos": cli.build_chaos_parser,
}


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

    @pytest.mark.parametrize("command", PARSERS)
    def test_parser_choices_are_the_registry_objects(self, command):
        checked = 0
        for action in PARSERS[command]()._actions:
            if action.dest in NAME_TABLES:
                assert action.choices is NAME_TABLES[action.dest], action.dest
                checked += 1
        assert checked >= 2

    def test_sweep_variants_cover_every_network_model(self):
        assert set(NETWORK_MODELS) < set(NETWORK_VARIANTS)
        for name in NETWORK_MODELS:
            assert NETWORK_VARIANTS[name] == (name, ("none",))
        assert cli.sweep_main(["--sizes", "16", "--networks", "wormhole"]) == 2


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
        "--app", "--backend", "--category", "--chaos-script",
        "--check-invariants", "--chiplet-tile", "--controller",
        "--controller-domains", "--controller-mode", "--cycles", "--depth",
        "--epoch", "--express-stride", "--fault-seed", "--help",
        "--link-faults", "--list-controllers", "--list-topologies",
        "--locality", "--locality-param", "--max-flit-age", "--network",
        "--nodes", "--profile", "--router-faults", "--seed",
        "--static-rate", "--timeout", "--topology", "--trace",
        "--trace-capacity", "--trace-sample", "--transient-faults",
        "--watchdog", "-h",
    ],
    "sweep": [
        "--cache-dir", "--category", "--cycles", "--epoch", "--help",
        "--jobs", "--locality", "--locality-param", "--networks",
        "--no-progress", "--seed", "--sizes", "--topology", "-h",
    ],
    "profile": [
        "--category", "--cycles", "--epoch", "--help", "--network",
        "--nodes", "--overhead-check", "--repeats", "--seed",
        "--topology", "--trace", "--trace-sample", "-h",
    ],
    "chaos": [
        "--category", "--controller", "--cycles", "--epoch", "--help",
        "--network", "--no-invariants", "--nodes", "--script", "--seed",
        "--static-rate", "--topology", "--watchdog", "-h",
    ],
}


#: One row per parser action: (option strings, dest, default, type name,
#: choices, action class).  A choices entry naming a registry tuple is
#: checked by identity.  Recorded from the hand-written parsers before
#: their config flags were generated from ``SimulationConfig`` field
#: metadata; the single-run ``--cycles`` has since taken ``_positive_int``.
PARSER_SURFACE = {
    "run": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--app",), "app", None, None, None, "_StoreAction"),
        (("--category",), "category", None, None, "WORKLOAD_CATEGORIES", "_StoreAction"),
        (("--nodes",), "nodes", 16, "int", None, "_StoreAction"),
        (("--cycles",), "cycles", 20000, "_positive_int", None, "_StoreAction"),
        (("--seed",), "seed", 1, "int", None, "_StoreAction"),
        (("--epoch",), "epoch", 2000, "int", None, "_StoreAction"),
        (("--network",), "network", "bless", None, "NETWORK_NAMES", "_StoreAction"),
        (("--topology",), "topology", "mesh", None, "TOPOLOGY_NAMES", "_StoreAction"),
        (("--controller",), "controller", "none", None, "CONTROLLER_NAMES", "_StoreAction"),
        (("--static-rate",), "static_rate", 0.5, "float", None, "_StoreAction"),
        (("--backend",), "backend", "numpy", None, "BACKENDS", "_StoreAction"),
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
        (("--check-invariants",), "check_invariants", False, None, None, "_StoreTrueAction"),
        (("--watchdog",), "watchdog_window", 0, "int", None, "_StoreAction"),
        (("--max-flit-age",), "max_flit_age", 0, "int", None, "_StoreAction"),
        (("--timeout",), "timeout", None, "float", None, "_StoreAction"),
        (("--link-faults",), "link_faults", 0.0, "float", None, "_StoreAction"),
        (("--router-faults",), "router_faults", 0.0, "float", None, "_StoreAction"),
        (("--transient-faults",), "transient_faults", 0.0, "float", None, "_StoreAction"),
        (("--fault-seed",), "fault_seed", 0, "int", None, "_StoreAction"),
        (("--chaos-script",), "chaos_script", None, None, None, "_StoreAction"),
    ],
    "sweep": [
        (("-h", "--help"), "help", "==SUPPRESS==", None, None, "_HelpAction"),
        (("--sizes",), "sizes", "16,64", None, None, "_StoreAction"),
        (("--networks",), "networks", "bless,bless-throttling,buffered", None, None, "_StoreAction"),
        (("--cycles",), "cycles", 8000, "int", None, "_StoreAction"),
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
    opts = vars(cli.build_parser().parse_args(argv))
    for dest in ("cycles", "timeout", "list_controllers", "list_topologies"):
        opts.pop(dest)
    return cli._simulator(opts)


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
    @pytest.mark.parametrize("command", PARSERS)
    def test_option_strings_unchanged(self, command):
        parser = PARSERS[command]()
        assert sorted(parser._option_string_actions) == OPTION_STRINGS[command]

    @pytest.mark.parametrize("command", PARSERS)
    def test_parser_surface_unchanged(self, command):
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
        else:
            value = non_default(field, action.default)
            argv = [action.option_strings[0], str(value)]
        if value == "native" and not native_available():
            pytest.skip("no C compiler for the native backend")
        simulator = cli_simulator(argv)
        assert simulator is not None
        assert getattr(simulator.config, field.name) == value

    def test_analysis_cli_lost_only_the_cache_and_baseline_flags(self):
        assert sorted(build_analysis_parser()._option_string_actions) == [
            "--exclude", "--format", "--help", "--ignore", "--list-rules",
            "--output", "--select", "-h",
        ]

    @pytest.mark.parametrize("builder, entry", [
        ("build_parser", cli.main), ("build_chaos_parser", cli.chaos_main),
        ("build_profile_parser", cli.profile_main),
    ])
    def test_orphaned_dest_fails_loudly(self, builder, entry, monkeypatch):
        """A flag nobody consumes and no config field matches is a
        TypeError on the first run (what CFG001 used to lint for)."""
        build = getattr(cli, builder)

        def with_orphan():
            parser = build()
            parser.add_argument("--orphan", default=1)
            return parser

        monkeypatch.setattr(cli, builder, with_orphan)
        with pytest.raises(TypeError, match="orphan"):
            entry(["--cycles", "10"])


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
