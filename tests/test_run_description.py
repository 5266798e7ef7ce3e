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


class TestCliSurface:
    @pytest.mark.parametrize("command", PARSERS)
    def test_option_strings_unchanged(self, command):
        parser = PARSERS[command]()
        assert sorted(parser._option_string_actions) == OPTION_STRINGS[command]

    def test_analysis_cli_lost_only_the_cache_and_baseline_flags(self):
        assert sorted(build_analysis_parser()._option_string_actions) == [
            "--exclude", "--format", "--help", "--ignore", "--list-rules",
            "--output", "--select", "-h",
        ]

    @pytest.mark.parametrize("builder, entry", [
        ("build_parser", cli.main), ("build_chaos_parser", cli.chaos_main),
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
