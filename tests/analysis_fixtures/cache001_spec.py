# repro: analysis-scope=sim
"""CACHE001 fixture: cache-key-invisible config state (3 findings).

``JobSpec`` lacks the generic ``config`` catch-all field, so the
``width`` field read by the simulation shares a cache hash across runs
that differ in it; ``jitter`` is a read of a field that does not exist
at all (a stale read).  ``seed`` and the ``horizon`` property are fine:
``seed`` is a spec field, ``horizon`` is derived state.
"""

from dataclasses import dataclass


@dataclass
class SimulationConfig:
    seed: int = 1
    epoch: int = 1000
    width: int = 4

    @property
    def horizon(self):
        return self.epoch * 2


@dataclass
class JobSpec:
    seed: int = 1
    epoch: int = 1000


def run(config: SimulationConfig):
    a = config.seed
    b = config.horizon
    c = config.jitter
    d = config.width
    return a, b, c, d
