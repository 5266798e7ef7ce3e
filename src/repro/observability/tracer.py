"""Sampled flit-event tracing into a bounded structured ring buffer.

A packet is identified by ``(src, seq, kind)`` — the same tag the
networks carry in the packed flit meta word — and is either *sampled* or
not for the whole run: the decision is a pure hash of the identity plus
a seed-derived salt, so every event of a sampled packet (inject, each
hop, each deflection, eject) lands in the trace and a re-run with the
same seed produces the same trace.  Storage is a fixed-capacity ring of
parallel numpy arrays; when the ring wraps, the oldest events are
overwritten and counted in :attr:`FlitTracer.dropped` (bounded memory is
a hard requirement — a 4096-node run emits millions of events).

The networks call :meth:`FlitTracer.record` with whole arrays per cycle,
so tracing stays vectorized; with tracing disabled the networks skip the
calls entirely (``tracer is None``), making the disabled cost one branch
per step.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EV_INJECT",
    "EV_HOP",
    "EV_DEFLECT",
    "EV_EJECT",
    "EVENT_NAMES",
    "FlitTracer",
]

EV_INJECT = 0  # flit entered the network from its NI queue
EV_HOP = 1  # flit granted an output link this cycle
EV_DEFLECT = 2  # flit lost port arbitration and took a non-productive link
EV_EJECT = 3  # flit delivered to its destination NI

EVENT_NAMES = ("inject", "hop", "deflect", "eject")

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(h: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: avalanche a uint64 array."""
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
        h = (h ^ (h >> np.uint64(30))) * _MIX1
        h = (h ^ (h >> np.uint64(27))) * _MIX2
        return h ^ (h >> np.uint64(31))


class FlitTracer:
    """Bounded, seedable recorder of per-flit network events.

    Parameters
    ----------
    capacity:
        Maximum events held; older events are overwritten (and counted
        as dropped) once the ring wraps.
    sample:
        Fraction of packet identities traced, in [0, 1].  Sampling is
        quantized to 1/65536 steps.
    salt:
        Seed-derived value mixed into the sampling hash so different
        simulation seeds trace different (but per-seed reproducible)
        packet subsets.
    """

    def __init__(self, capacity: int = 65536, sample: float = 1 / 16,
                 salt: int = 0):
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        if not 0.0 <= sample <= 1.0:
            raise ValueError("trace sample rate must lie in [0, 1]")
        self.capacity = int(capacity)
        self.sample = float(sample)
        self.salt = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        # sample == 1.0 maps to 65536 > any 16-bit hash: everything traced.
        self._threshold = np.uint64(int(round(self.sample * 65536)))
        self.cycle = np.zeros(self.capacity, dtype=np.int64)
        self.event = np.zeros(self.capacity, dtype=np.int8)
        self.node = np.zeros(self.capacity, dtype=np.int32)
        self.src = np.zeros(self.capacity, dtype=np.int32)
        self.dest = np.zeros(self.capacity, dtype=np.int32)
        self.kind = np.zeros(self.capacity, dtype=np.int8)
        self.seq = np.zeros(self.capacity, dtype=np.int32)
        self.hops = np.zeros(self.capacity, dtype=np.int32)
        self._pos = 0
        self.recorded = 0  # events ever written (>= capacity once wrapped)

    # ------------------------------------------------------------------
    def sampled(self, src, seq, kind) -> np.ndarray:
        """Mask of packets (by identity) included in the trace."""
        h = (
            np.asarray(src).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            + np.asarray(seq).astype(np.uint64) * np.uint64(0xD1342543DE82EF95)
            + np.asarray(kind).astype(np.uint64) * np.uint64(0x2545F4914F6CDD1D)
            + self.salt
        )
        return (_splitmix(h) & np.uint64(0xFFFF)) < self._threshold

    def record(self, event: int, cycle: int, node, src, dest, kind,
               seq, hops) -> int:
        """Append events for the sampled subset; returns events written.

        All array arguments are parallel per-flit vectors; scalars
        broadcast.  Only flits whose identity passes :meth:`sampled` are
        stored.
        """
        src = np.asarray(src)
        seq = np.asarray(seq)
        kind = np.asarray(kind)
        keep = self.sampled(src, seq, kind)
        k = int(keep.sum())
        if k == 0:
            return 0
        slots = (self._pos + np.arange(k)) % self.capacity
        self.cycle[slots] = cycle
        self.event[slots] = event
        for field, value in (
            (self.node, node), (self.src, src), (self.dest, dest),
            (self.kind, kind), (self.seq, seq), (self.hops, hops),
        ):
            value = np.asarray(value)
            field[slots] = value if value.ndim == 0 else value[keep]
        self._pos = int((self._pos + k) % self.capacity)
        self.recorded += k
        return k

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events lost to ring wrap-around (oldest-first)."""
        return max(0, self.recorded - self.capacity)

    def __len__(self) -> int:
        return min(self.recorded, self.capacity)

    def events(self) -> dict:
        """Stored events in chronological order, as named arrays."""
        n = len(self)
        if self.recorded <= self.capacity:
            order = slice(0, n)
        else:
            order = (self._pos + np.arange(self.capacity)) % self.capacity
        return {
            "cycle": self.cycle[order].copy(),
            "event": self.event[order].copy(),
            "node": self.node[order].copy(),
            "src": self.src[order].copy(),
            "dest": self.dest[order].copy(),
            "kind": self.kind[order].copy(),
            "seq": self.seq[order].copy(),
            "hops": self.hops[order].copy(),
        }

    def event_counts(self) -> dict:
        """Stored-event tally per event type name."""
        ev = self.events()["event"]
        return {
            name: int((ev == code).sum())
            for code, name in enumerate(EVENT_NAMES)
        }

    def journeys(self, limit: int = 10) -> list:
        """Reassemble up to *limit* complete packet journeys.

        A journey spans one packet identity from its inject event to its
        eject event, summarizing hop and deflection counts and total
        latency — the "where did latency go" view.  Events lost to ring
        wrap-around can truncate journeys; only complete ones (inject
        and eject both present) are returned, in eject order.  ``seq``
        wraps mod 256, so a re-inject of an open identity discards the
        old, unfinished trip, and events whose inject is no longer held
        are ignored.
        """
        if limit <= 0:
            return []
        ev = self.events()
        open_trips: dict = {}
        done = []
        for i in range(ev["cycle"].size):
            ident = (int(ev["src"][i]), int(ev["seq"][i]), int(ev["kind"][i]))
            code = int(ev["event"][i])
            if code == EV_INJECT:
                open_trips[ident] = {
                    "src": ident[0], "seq": ident[1], "kind": ident[2],
                    "dest": int(ev["dest"][i]),
                    "inject_cycle": int(ev["cycle"][i]),
                    "hops": 0, "deflections": 0,
                }
            elif ident in open_trips:
                trip = open_trips[ident]
                if code == EV_HOP:
                    trip["hops"] += 1
                elif code == EV_DEFLECT:
                    trip["deflections"] += 1
                elif code == EV_EJECT:
                    trip["eject_cycle"] = int(ev["cycle"][i])
                    trip["latency"] = trip["eject_cycle"] - trip["inject_cycle"]
                    done.append(open_trips.pop(ident))
                    if len(done) >= limit:
                        break
        return done

    def summary(self) -> str:
        """One-paragraph digest for the CLI's ``--trace`` output."""
        counts = self.event_counts()
        parts = ", ".join(f"{counts[n]} {n}" for n in EVENT_NAMES)
        line = (
            f"trace: {len(self)} events held ({self.recorded} recorded, "
            f"{self.dropped} dropped), sample={self.sample:g}: {parts}"
        )
        trips = self.journeys(limit=5)
        for t in trips:
            line += (
                f"\n  packet src={t['src']} dest={t['dest']} seq={t['seq']}: "
                f"inject@{t['inject_cycle']} -> eject@{t['eject_cycle']} "
                f"({t['latency']} cycles, {t['hops']} hops, "
                f"{t['deflections']} deflections)"
            )
        return line
