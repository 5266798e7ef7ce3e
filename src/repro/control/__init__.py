"""Congestion-control mechanisms for the NoC (§5, §6.6).

Every scheme is a :class:`Controller`: built from parameters alone (by
constructor or a :mod:`repro.control.registry` recipe), passed in
``SimulationConfig(controller=...)``, attached to the built network
once by ``Simulator.__init__``, and failed/restored in place by chaos
campaigns — one controller instance per run.
"""

from repro.control.base import Controller, EpochView, NoController
from repro.control.central import (
    CentralController,
    ControlParams,
    DomainSummary,
)
from repro.control.domains import DomainMap
from repro.control.fairness import FairCentralController
from repro.control.hierarchical import HierarchicalController
from repro.control.registry import CONTROLLER_NAMES, CONTROLLERS, ControllerEntry
from repro.control.static_throttle import StaticThrottleController
from repro.control.distributed import DistributedController
from repro.control.hardware import MechanismHardwareCost, mechanism_hardware_cost

__all__ = [
    "Controller",
    "EpochView",
    "NoController",
    "ControlParams",
    "CentralController",
    "FairCentralController",
    "StaticThrottleController",
    "DistributedController",
    "DomainMap",
    "DomainSummary",
    "HierarchicalController",
    "ControllerEntry",
    "CONTROLLERS",
    "CONTROLLER_NAMES",
    "MechanismHardwareCost",
    "mechanism_hardware_cost",
]
