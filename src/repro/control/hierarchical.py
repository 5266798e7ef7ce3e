"""Hierarchical congestion control: domain shards + a coordinator.

The paper's Algorithm 1 is centralized — one controller sees every
node's (IPF, sigma) each epoch.  At thousands of cores the 2n control
flits per epoch converge on one hub queue and overflow (pinned at
1024 nodes by ``tests/test_paper_claims.py``).  The hierarchical scheme
keeps the *decision rule* of §5 but distributes the *collection*:

- each control domain (see :mod:`repro.control.domains`) runs its own
  :class:`~repro.control.central.CentralController` shard —
  Algorithm 1 on the domain-local
  :class:`~repro.control.base.EpochView` slice;
- shards produce a :class:`~repro.control.central.DomainSummary`
  (congested?, sum of capped IPF over active members, active-member
  count) — the only state that crosses domain boundaries;
- the :class:`HierarchicalController` coordinator aggregates the
  summaries and reconciles throttling under one of two criteria:

  ``global``
      the paper's criterion computed exactly: throttling activates when
      *any* domain is congested, and node *i* throttles iff
      ``IPF_i < mean(IPF over all active nodes)``.  The global mean is
      reassembled from the shard sums with the division
      :meth:`CentralController.on_epoch` itself does, so one domain
      spanning the whole fabric is bit-identical to the central scheme.
  ``local``
      each domain decides independently with its own mean — no global
      state at all, the fully decentralized limit.

Coordinator fail-stop (chaos ``controller_down`` events) degrades
``global`` mode to independent domains: shards keep running on local
criteria while the summary exchange is suspended, and ``restore()``
resumes global reconciliation.  That domain-local mode replaces the
base class's freeze/decay/failover policy — only the coordinator
fails, the shards never do.
"""

from __future__ import annotations

import numpy as np

from repro.control.base import Controller, EpochView
from repro.control.central import CentralController, ControlParams

__all__ = ["COORDINATION_MODES", "HierarchicalController"]

#: How the coordinator reconciles shards: against the global mean IPF or
#: each domain's own (the registry recipe and ``--controller-mode`` read
#: their choices from here).
COORDINATION_MODES = ("global", "local")


class HierarchicalController(Controller):
    """Coordinator over per-domain Algorithm-1 shards."""

    #: Losing the coordinator is a failover to independent domains,
    #: whatever policy the campaign asks for.
    degraded_mode = "failover"

    def __init__(
        self,
        params: ControlParams = ControlParams(),
        num_domains: int = 0,
        mode: str = "global",
    ):
        if mode not in COORDINATION_MODES:
            raise ValueError(
                f"unknown coordination mode {mode!r}; "
                f"expected one of {COORDINATION_MODES}"
            )
        if num_domains < 0:
            raise ValueError(f"num_domains must be >= 0, got {num_domains}")
        self.params = params
        #: requested domain count (0 = let the topology choose)
        self.num_domains = num_domains
        self.mode = mode
        self.shards = ()
        self.epochs_run = 0
        self.domain_epochs = None
        # Exposed for inspection/tests after each epoch, like the
        # central controller.
        self.last_congested = False
        self.last_throttled = None

    # ------------------------------------------------------------------
    # Lifecycle and fail-stop
    # ------------------------------------------------------------------
    def attach(self, network, config) -> None:
        """Resolve the control-domain partition from the topology
        registry and build one shard per domain."""
        super().attach(network, config)
        # Looked up on the module at call time: the registry imports
        # repro.control.domains, and the perf ledger patches this name.
        from repro.topology import registry

        self.domain_map = registry.domain_map(
            config, network.topology, self.num_domains
        )
        self.shards = tuple(
            CentralController(self.params)
            for _ in range(self.domain_map.num_domains)
        )
        self.domain_epochs = np.zeros(
            self.domain_map.num_domains, dtype=np.int64
        )

    def set_degraded_policy(self, mode, decay, standby=None) -> None:
        """Coordinator loss has one degraded mode, independent domains;
        the campaign's policy and standby do not apply."""

    def degraded_epoch(self, view: EpochView) -> np.ndarray:
        return self.on_epoch(view)

    # ------------------------------------------------------------------
    # Controller interface
    # ------------------------------------------------------------------
    def on_epoch(self, view: EpochView) -> np.ndarray:
        if self.domain_map is None:
            raise RuntimeError(
                "HierarchicalController.on_epoch before attach(); "
                "Simulator.__init__ attaches the configured controller"
            )
        dm = self.domain_map
        n = view.active.shape[0]
        if n != dm.num_nodes:
            raise ValueError(
                f"EpochView covers {n} nodes; domain map covers "
                f"{dm.num_nodes}"
            )
        views = [self._slice(view, dm.members(d)) for d in range(dm.num_domains)]
        summaries = [
            shard.summarize(v) for shard, v in zip(self.shards, views)
        ]
        use_global = self.mode == "global" and not self.down
        mean_ipf = None
        congested_any = any(s.congested for s in summaries)
        if use_global and congested_any:
            total = sum(s.ipf_sum for s in summaries)
            count = sum(s.active_nodes for s in summaries)
            # mean(IPF[active]) reassembled from the shard sums; with one
            # domain this is CentralController.on_epoch's own division.
            mean_ipf = total / count if count else None
        rates = np.zeros(n)
        throttled = np.zeros(n, dtype=bool)
        for d, (shard, v, summary) in enumerate(
            zip(self.shards, views, summaries)
        ):
            if use_global:
                congested, mean_d = congested_any, mean_ipf
            else:
                congested = summary.congested
                mean_d = (
                    summary.ipf_sum / summary.active_nodes
                    if congested and summary.active_nodes
                    else None
                )
            members = dm.members(d)
            rates[members] = shard.throttle(v, congested, mean_d)
            throttled[members] = shard.last_throttled
        self.domain_epochs += 1
        self.epochs_run += 1
        self.last_congested = (
            congested_any if use_global
            else any(s.congested for s in summaries)
        )
        self.last_throttled = throttled
        return rates

    @staticmethod
    def _slice(view: EpochView, members: np.ndarray) -> EpochView:
        """A domain-local EpochView (fancy-indexed copies of the
        per-node arrays; scalars pass through)."""
        return EpochView(
            cycle=view.cycle,
            ipf=view.ipf[members],
            starvation_rate=view.starvation_rate[members],
            active=view.active[members],
            utilization=view.utilization,
            epoch_ipc=(
                view.epoch_ipc[members] if view.epoch_ipc is not None else None
            ),
        )

    def describe(self) -> str:
        domains = (
            self.domain_map.num_domains
            if self.domain_map is not None
            else self.num_domains or "auto"
        )
        return (
            f"HierarchicalController({domains} domains, mode={self.mode}, "
            f"{self.params})"
        )
