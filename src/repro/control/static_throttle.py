"""Static (application-blind) injection throttling.

The paper's §3.1 experiment: throttle every node at one fixed rate and
sweep the rate to trace system throughput against network utilization
(Fig 2(c)), and its §4 experiment: statically throttle one chosen
application by 90% (Fig 5).  Also the building block for the
application-awareness ablation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.control.base import Controller, EpochView

__all__ = ["StaticThrottleController"]


class StaticThrottleController(Controller):
    """Throttle the nodes running one application at a fixed rate.

    Parameters
    ----------
    rate:
        Fraction of injection attempts blocked, in [0, 1).
    app:
        Application whose nodes are throttled (resolved against the
        workload at :meth:`attach`); ``None`` throttles every node.
    """

    def __init__(self, rate: float, app: Optional[str] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError("static throttle rate must be in [0, 1)")
        self.rate = rate
        self.app = app
        self.nodes = None

    def attach(self, network, config) -> None:
        super().attach(network, config)
        if self.app is not None:
            names = config.workload.app_names
            self.nodes = np.flatnonzero([name == self.app for name in names])
            if self.nodes.size == 0:
                raise ValueError(
                    f"static throttle targets {self.app!r}, which the "
                    f"workload does not run"
                )

    def on_epoch(self, view: EpochView) -> np.ndarray:
        rates = np.zeros(view.active.shape[0])
        if self.nodes is None:
            rates[:] = self.rate
        else:
            rates[self.nodes] = self.rate
        return rates

    def describe(self) -> str:
        target = "all" if self.app is None else self.app
        return f"StaticThrottleController(rate={self.rate}, app={target})"
