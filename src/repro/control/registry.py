"""The controller registry: name -> description, recipe, construction.

Mirrors :mod:`repro.topology.registry` for the control plane.  One
:class:`ControllerEntry` per scheme owns everything that is said about
it elsewhere: the ``--controller`` choices and ``--list-controllers``
table, the declarative :class:`~repro.harness.JobSpec` recipe form with
its arity and argument checks, the CLI flags that carry those arguments,
and the constructor call.  :func:`build_controller` is the one lookup
behind both the CLI and harness workers, so the two cannot build
different controllers for the same description.  Every scheme is built
from its recipe alone; what it needs from the built system arrives
later through :meth:`~repro.control.base.Controller.attach`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

from repro.control.base import NoController
from repro.control.central import CentralController, ControlParams
from repro.control.distributed import DistributedController
from repro.control.fairness import FairCentralController
from repro.control.hierarchical import (
    COORDINATION_MODES,
    HierarchicalController,
)
from repro.control.static_throttle import StaticThrottleController
from repro.traffic.applications import APPLICATION_CATALOG

__all__ = [
    "RecipeArg",
    "ControllerEntry",
    "CONTROLLERS",
    "CONTROLLER_NAMES",
    "check_recipe",
    "canonical_recipe",
    "build_controller",
]

_REQUIRED = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


@dataclass(frozen=True)
class RecipeArg:
    """One positional argument of a controller recipe."""

    #: name shown in the recipe form
    name: str
    #: argparse dest of the CLI flag that carries it
    dest: str
    accepts: Callable[[object], bool]
    #: what ``accepts`` wants, worded for the error message
    expects: str
    default: object = _REQUIRED


@dataclass(frozen=True)
class ControllerEntry:
    """One selectable congestion-control scheme."""

    name: str
    #: one-line description (README table, ``--list-controllers``)
    description: str
    #: ``factory(epoch, *args)`` -> controller, with every recipe
    #: argument present (defaults filled in)
    factory: Callable
    args: Tuple[RecipeArg, ...] = ()

    @property
    def recipe(self) -> str:
        """The declarative JobSpec form."""
        if not self.args:
            return f'("{self.name}",)'
        names = ", ".join(arg.name for arg in self.args)
        return f'("{self.name}", {names})'


_ENTRIES = (
    ControllerEntry(
        "none",
        "no congestion control (baseline BLESS/buffered operation)",
        lambda epoch: NoController(),
    ),
    ControllerEntry(
        "central",
        "the paper's Algorithm 1: one global controller and hub (§5)",
        lambda epoch, alpha, gamma: CentralController(ControlParams(
            epoch=epoch, alpha_throt=alpha, gamma_throt=gamma
        )),
        args=(
            RecipeArg(
                "alpha_throt", "alpha_throt",
                lambda v: _is_number(v) and v > 0,
                "a number > 0 (Eq 2's alpha)",
                default=ControlParams.alpha_throt,
            ),
            RecipeArg(
                "gamma_throt", "gamma_throt",
                lambda v: _is_number(v) and 0 < v <= 1,
                "a number in (0, 1] (Eq 2's rate cap)",
                default=ControlParams.gamma_throt,
            ),
        ),
    ),
    ControllerEntry(
        "distributed",
        "per-node AIMD on in-network congestion bits (§6.6)",
        lambda epoch: DistributedController(),
    ),
    ControllerEntry(
        "static",
        "fixed throttle rate on every node, or on one application's "
        "nodes (ablation baseline, Fig 5)",
        lambda epoch, rate, app: StaticThrottleController(float(rate), app),
        args=(
            RecipeArg(
                "rate", "static_rate",
                lambda v: _is_number(v) and 0.0 <= v < 1.0,
                "a number in [0, 1)",
            ),
            RecipeArg(
                "app", "static_app",
                lambda v: v is None or isinstance(v, str)
                and v in APPLICATION_CATALOG,
                "None or an application of APPLICATION_CATALOG",
                default=None,
            ),
        ),
    ),
    ControllerEntry(
        "hierarchical",
        "per-domain Algorithm-1 shards + global coordinator "
        "(--controller-domains/--controller-mode)",
        lambda epoch, domains, mode: HierarchicalController(
            ControlParams(epoch=epoch), num_domains=domains, mode=mode
        ),
        args=(
            RecipeArg(
                "domains", "controller_domains",
                lambda v: _is_int(v) and v >= 0,
                "an int domain count >= 0 (0 = topology default)",
                default=0,
            ),
            RecipeArg(
                "mode", "controller_mode",
                lambda v: v in COORDINATION_MODES,
                f"one of {COORDINATION_MODES}",
                default=COORDINATION_MODES[0],
            ),
        ),
    ),
    ControllerEntry(
        "fair",
        "Algorithm 1 plus a slowdown cap of 2.5 (§7 fairness extension)",
        lambda epoch: FairCentralController(
            ControlParams(epoch=epoch), max_slowdown=2.5
        ),
    ),
)

#: Registry table; insertion order is the canonical CLI/choices order.
CONTROLLERS = {entry.name: entry for entry in _ENTRIES}

#: Canonical name tuple for CLI ``choices`` and error messages.
CONTROLLER_NAMES = tuple(CONTROLLERS)

def check_recipe(recipe: tuple) -> tuple:
    """Validate a ``(name, *args)`` recipe against its registry entry.

    Returns ``(entry, args)`` with defaults filled in.
    """
    name, given = recipe[0], recipe[1:]
    entry = CONTROLLERS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown controller {name!r}; expected one of "
            f"{CONTROLLER_NAMES}"
        )
    misfit = f"controller recipe {recipe!r} does not fit {entry.recipe}: "
    required = sum(arg.default is _REQUIRED for arg in entry.args)
    if not required <= len(given) <= len(entry.args):
        raise ValueError(
            f"{misfit}it takes at least {required} and at most "
            f"{len(entry.args)} argument(s)"
        )
    for arg, value in zip(entry.args, given):
        if not arg.accepts(value):
            raise ValueError(
                f"{misfit}{arg.name} must be {arg.expects}, got {value!r}"
            )
    defaults = tuple(arg.default for arg in entry.args[len(given):])
    return entry, given + defaults


def canonical_recipe(recipe: tuple) -> tuple:
    """*recipe* checked, with trailing arguments equal to their defaults
    dropped: one spelling per controller, so one cache key per run."""
    entry, args = check_recipe(recipe)
    while args and args[-1] == entry.args[len(args) - 1].default:
        args = args[:-1]
    return (entry.name, *args)


def build_controller(recipe: tuple, *, epoch: int):
    """Instantiate the controller a ``(name, *args)`` recipe describes
    (the CLI and harness workers both build through here)."""
    entry, args = check_recipe(recipe)
    return entry.factory(epoch, *args)
