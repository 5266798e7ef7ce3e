"""The paper's application-aware source-throttling mechanism (§5).

Centrally coordinated, periodic (every T cycles), in three decisions:

**When to throttle** — Eq. (1): node *i* is congested when its windowed
starvation rate exceeds ``min(beta_starve + alpha_starve / IPF_i,
gamma_starve)``.  The IPF term allows network-intensive applications a
higher starvation level before alarming, since they naturally starve
more at the same congestion level.  Throttling is active when *any*
node is congested.

**Whom to throttle** — the Throttling Criterion: when throttling is
active, throttle node *i* iff ``IPF_i < mean(IPF)``; lower IPF means
greater network intensity.  Notably the congested nodes are usually
*not* the ones throttled — the heavily injecting ones are.

**How much** — Eq. (2): ``rate_i = min(beta_throt + alpha_throt /
IPF_i, gamma_throt)``, proportional to network intensity and bounded so
intensive applications are never fully starved.

Only data *requests* are throttled; responses are exempt (handled by
the network's injection stage, which drains the response queue outside
the throttle gate).

Algorithm 1 is written once, as a measurement half
(:meth:`CentralController.summarize`) and an actuation half
(:meth:`CentralController.throttle`): the central scheme composes them
over the whole fabric, :mod:`repro.control.hierarchical` runs one
controller per control domain and reconciles the summaries in between.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.control.base import Controller, EpochView

__all__ = ["ControlParams", "DomainSummary", "CentralController"]


@dataclass(frozen=True)
class ControlParams:
    """Algorithm parameters, defaulted to the paper's empirical optimum
    (§6.1, §6.4)."""

    alpha_starve: float = 0.40
    beta_starve: float = 0.0
    gamma_starve: float = 0.70
    alpha_throt: float = 0.90
    beta_throt: float = 0.20
    gamma_throt: float = 0.75
    #: controller period T in cycles (paper: 100k on 10M-cycle runs)
    epoch: int = 100_000
    #: IPF ceiling used when averaging (idle nodes report infinite IPF)
    ipf_cap: float = 1.0e6

    def scaled(self, **overrides) -> "ControlParams":
        """A copy with some fields replaced (for sensitivity sweeps)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class DomainSummary:
    """What the measurement half of Algorithm 1 reports for one epoch
    (under hierarchical control: one flit each way between a domain and
    the coordinator in the modeled control traffic)."""

    congested: bool
    #: sum of min(IPF, ipf_cap) over the active nodes
    ipf_sum: float
    active_nodes: int


class CentralController(Controller):
    """Implements Algorithm 1 on the per-epoch ``EpochView``."""

    def __init__(self, params: ControlParams = ControlParams()):
        self.params = params
        # Exposed for inspection/tests after each epoch.
        self.last_congested = False
        self.last_throttled = None

    def starvation_threshold(self, ipf: np.ndarray) -> np.ndarray:
        """Eq. (1): per-node congestion-detection threshold."""
        p = self.params
        return np.minimum(p.beta_starve + p.alpha_starve / ipf, p.gamma_starve)

    def throttle_rate(self, ipf: np.ndarray) -> np.ndarray:
        """Eq. (2): per-node throttling rate."""
        p = self.params
        return np.minimum(p.beta_throt + p.alpha_throt / ipf, p.gamma_throt)

    def summarize(self, view: EpochView) -> DomainSummary:
        """Measure the view's nodes: congestion flag + mean-IPF
        ingredients."""
        active = view.active
        if not active.any():
            return DomainSummary(False, 0.0, 0)
        ipf = np.minimum(view.ipf, self.params.ipf_cap)
        congested = bool(
            np.any(
                view.starvation_rate[active]
                > self.starvation_threshold(ipf[active])
            )
        )
        return DomainSummary(
            congested, float(ipf[active].sum()), int(active.sum())
        )

    def throttle(
        self, view: EpochView, congested: bool, mean_ipf
    ) -> np.ndarray:
        """Throttle the view's nodes below *mean_ipf* when *congested*
        (``mean_ipf is None``: nobody)."""
        rates = np.zeros(view.active.shape[0])
        active = view.active
        self.last_congested = congested
        throttled = np.zeros_like(active)
        if congested and mean_ipf is not None and active.any():
            ipf = np.minimum(view.ipf, self.params.ipf_cap)
            throttled = active & (ipf < mean_ipf)
            rates[throttled] = self.throttle_rate(ipf[throttled])
        self.last_throttled = throttled
        return rates

    def on_epoch(self, view: EpochView) -> np.ndarray:
        summary = self.summarize(view)
        mean_ipf = (
            summary.ipf_sum / summary.active_nodes
            if summary.congested else None
        )
        return self.throttle(view, summary.congested, mean_ipf)

    def describe(self) -> str:
        return f"CentralController({self.params})"
