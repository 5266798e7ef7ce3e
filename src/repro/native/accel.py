"""ctypes bridge between the simulator and the compiled kernels.

:class:`NativeAccel` gathers the simulator's numpy buffers into a
pointer table and drives the one compiled entry point, ``noc_span``:
:meth:`NativeAccel.run_span` runs whole cycles per call, and
:meth:`NativeAccel.phase` gives each pipeline phase as one bit of that
span for one cycle — what a hook, a timer or a replaced ``Phase.fn``
sees.  Either way every RNG draw is made in C on the simulator's own
generators; nothing here draws.  The kernels mutate the *same* arrays
Python owns, so every live view (queues, buffers, per-node stats arrays,
core state, ``network.cbit_seen``) stays coherent without copies; only
Python-scalar statistics need a mirror flush.

This module owns the Python<->C ABI.  The four tables below name every
pointer-table, ``cfg``, ``fcfg`` and ``ctr`` slot exactly once, and
their *insertion order is the slot order*: :func:`abi_defines` turns
each position into a ``-DPT_<name>=<index>`` (``CFG_``, ``FCFG_``,
``CTR_``) compile flag next to the flit layout and size constants read
from their Python owners, and ``kernels.c`` defines none of them itself.
Reordering, inserting or removing an entry therefore just rebuilds the
library (the object is tagged by source *and* flags); a name C uses that
is missing here fails the compile.

Configurations the kernels do not model raise
:class:`NativeUnsupported` at construction time — the backend is opt-in
and refuses loudly rather than silently diverging from the reference.
"""

from __future__ import annotations

import ctypes
from operator import attrgetter

import numpy as np

from repro.network import flit
from repro.network.base import NetworkStats
from repro.network.engine import _KEY_MAX
from repro.network.injection import InjectionThrottleGate
from repro.native.build import NativeBuildError, load_library
from repro.topology import mesh
from repro.traffic.locality import _DistanceLocality

__all__ = ["NativeAccel", "NativeUnsupported", "PHASES", "abi_defines"]

#: The per-cycle pipeline phases, in order; position is the phase's bit
#: in ``ctr[CTR_PHASES]`` (``PHASE_<NAME>`` in C).
PHASES = ("behavior", "cores", "memory", "network", "ejection")
_ALL_PHASES = (1 << len(PHASES)) - 1

#: C-side port-count cap: sizes the per-node stack arrays in the kernels
#: and keeps a router's ports within one 64-bit free-link mask.
_MAX_PORTS = 64

_ARB_CODES = {"oldest_first": 0, "youngest_first": 1, "random": 2}

#: Locality models (``repro.traffic.locality.LOCALITY_MODELS`` names)
#: whose destination draw the cores phase performs in C.
_LOC_CODES = {"uniform": 0, "exponential": 1, "powerlaw": 2}

#: ``ctr[CTR_ERROR]`` codes, 1-based in this order (0 means no error).
_ERRORS = {
    "MEM_RING_OVERFLOW": "memory service ring overflow",
    "PENDING_OVERFLOW": "pending-reply scratch overflow",
    "TOO_MANY_PORTS":
        f"too many router ports for the native backend (max {_MAX_PORTS})",
}

#: Pointer table: slot name -> where a :class:`NativeAccel` finds the
#: array (attribute path from the accel).  The kernels cast each slot to
#: the owner's dtype, so a slot may move but not change element type.
#: An ``RNG_`` slot holds a ``numpy.random.Generator``; C sees the
#: ``bitgen_t`` of its bit generator.
_PT = {
    "RING_META": "_net._ring_meta", "RING_BIRTH": "_net._ring_birth",
    "LAT_OUT": "_net._lat_out", "TARGET_FLAT": "_net._target_flat",
    "LINK_UP": "_link_up", "NEIGHBOR": "_neighbor", "REVERSE": "_reverse",
    "P0TAB": "_p0tab", "P1TAB": "_p1tab",
    "COORD_X": "_coord_x", "COORD_Y": "_coord_y",
    "CONGESTED": "_net.congested_nodes", "CBIT_SEEN": "_net.cbit_seen",
    "REQ_DEST": "_net.request_queue.dest",
    "REQ_KIND": "_net.request_queue.kind",
    "REQ_FLITS": "_net.request_queue.flits",
    "REQ_STAMP": "_net.request_queue.stamp",
    "REQ_SEQ": "_net.request_queue.seq",
    "REQ_HEAD": "_net.request_queue.head",
    "REQ_COUNT": "_net.request_queue.count",
    "RESP_DEST": "_net.response_queue.dest",
    "RESP_KIND": "_net.response_queue.kind",
    "RESP_FLITS": "_net.response_queue.flits",
    "RESP_STAMP": "_net.response_queue.stamp",
    "RESP_SEQ": "_net.response_queue.seq",
    "RESP_HEAD": "_net.response_queue.head",
    "RESP_COUNT": "_net.response_queue.count",
    "THR_COUNTER": "_net.throttle.counter", "THR_RATE": "_net.throttle.rate",
    "STARV_RING": "_net.starvation._ring",
    "STARV_SUM": "_net.starvation._sum",
    "INJ_PER_NODE": "_stats.injected_per_node",
    "STARVED_CYC": "_stats.starved_cycles",
    "PORT_STARVED_CYC": "_stats.port_starved_cycles",
    "LAT_HIST": "_stats.latency_hist",
    "G_META": "_g_meta", "G_BIRTH": "_g_birth", "G_KEY": "_g_key",
    "H_KEY": "_h_key", "H_OUT": "_h_out",
    "W_DOWN": "_w_down",
    "BUF_META": "_buf_meta", "BUF_BIRTH": "_buf_birth",
    "BUF_HEAD": "_buf_head", "BUF_COUNT": "_buf_count",
    "RESERVED": "_reserved",
    "EJ_NODE": "_ej_node", "EJ_SRC": "_ej_src", "EJ_KIND": "_ej_kind",
    "EJ_SEQ": "_ej_seq",
    "CO_ACTIVE": "_cores.active", "CO_RETIRED": "_cores.retired",
    "CO_ISSUE_POS": "_cores._issue_pos", "CO_RECV": "_cores._recv",
    "CO_COMPLETE": "_cores._complete", "CO_ISSUED": "_cores._issued",
    "CO_COMPLETED": "_cores._completed", "CO_HEAD": "_cores._head",
    "CO_GAP": "_cores._insns_until_miss",
    "CO_EPOCH_INSNS": "_cores.epoch_insns",
    "CO_STALL": "_cores.stall_cycles",
    "CO_WSTALL": "_cores.window_stall_cycles",
    "CO_MISSES": "_cores.misses_issued",
    "CO_EPOCH_FLITS": "_cores.epoch_flits",
    "MISS_OUT": "_miss_out", "ISSUE_DEST": "_issue_dest",
    "VISITED": "_visited",
    "MEM_SRV": "_mem_srv", "MEM_REQ": "_mem_req", "MEM_SEQ": "_mem_seq",
    "MEM_CNT": "_mem_cnt",
    "PEND_S": "_pend_s", "PEND_R": "_pend_r", "PEND_Q": "_pend_q",
    "SCR_S": "_scr_s", "SCR_R": "_scr_r", "SCR_Q": "_scr_q",
    "FCFG": "_fcfg",
    "RNG_PHASES": "_sim._rng_phase", "RNG_DEST": "_cores.rng",
    "RNG_ARB": "_net._rng",
    "BH_TIMER": "_cores.behavior._phase_timer",
    "BH_MULT": "_cores.behavior._phase_mult",
    "BH_MU": "_cores.behavior._mu", "BH_SIGMA": "_cores.behavior._sigma",
    "LOC_ORDER": "_loc_order",
    "LOC_BSTART": "_loc_bstart", "LOC_BCOUNT": "_loc_bcount",
    "LOC_ECC": "_loc_ecc",
    "LOC_D": "_loc_d", "LOC_A": "_loc_a", "LOC_SX": "_loc_sx",
    "LOC_SY": "_loc_sy",
}

#: ``cfg`` slots: name -> attribute path of the (immutable) value.
_CFG = {
    "N": "_net.num_nodes", "P": "_net.num_ports",
    "DEPTH": "_net._ring_depth", "EJECT_W": "_eject_width",
    "QCAP": "_net.request_queue.capacity", "SW": "_net.starvation.window",
    "ARB": "_arb", "ISSUE_W": "_cores.issue_width",
    "WINDOW": "_cores.window_size", "MSHR": "_cores.mshr_limit",
    "REQ_FLITS": "_cores.request_flits",
    "REPLY_FLITS": "_cores.reply_flits", "L2_LAT": "_memory.l2_latency",
    "EJ_CAP": "_ej_cap", "PEND_CAP": "_pend_cap", "BUF_CAP": "_buf_cap",
    "BUFFERED": "_buffered",
    "GRID2D": "_grid2d", "WIDTH": "_width", "HEIGHT": "_height",
    "WRAPS": "_wraps",
    "LOC_MODEL": "_loc_model", "LOC_MAXD": "_loc_maxd",
}

#: ``fcfg`` slots (the ``PT_FCFG`` array): the floating-point constants
#: of the draws the kernels make, name -> attribute path.
_FCFG = {
    "PHASE_SIGMA": "_cores.behavior.phase_sigma", "PHASE_MU": "_phase_mu",
    "PHASE_P": "_phase_p",
    "FLITS_PER_MISS": "_cores.behavior.flits_per_miss",
    "LOC_PARAM": "_sim.config.locality_param",
}

#: ``ctr`` slots: name -> attribute path of the Python scalar the slot
#: mirrors (seeded from it at construction, written back by
#: :meth:`NativeAccel.flush`), or ``None`` for kernel-internal counters.
_CTR = {
    "CURSOR": "_net._cursor", "SPOS": "_net.starvation._pos",
    "SSEEN": "_net.starvation._cycles_seen", "CYCLES": "_stats.cycles",
    "INJ": "_stats.injected_flits", "EJ_FLITS": "_stats.ejected_flits",
    "HOPS": "_stats.flit_hops", "DEFL": "_stats.deflections",
    "BWRITES": "_stats.buffer_writes", "BREADS": "_stats.buffer_reads",
    "OCC": "_stats.buffer_occupancy_sum", "LAT_SUM": "_stats.latency_sum",
    "LAT_CNT": "_stats.latency_count", "LAT_MAX": "_stats.latency_max",
    "HOPS_SUM": "_stats.hops_sum",
    "INJLAT_SUM": "_net.injection_latency_sum",
    "INJLAT_CNT": "_net.injection_latency_count",
    "HEAD_DIRTY": "_cores._head_dirty", "MEM_CURSOR": "_memory._cursor",
    "REQ_SERVICED": "_memory.requests_serviced",
    "REP_ISSUED": "_memory.replies_issued",
    "MISS_CNT": None, "ACCEPTED": None, "PEND_CNT": None,
    "EJ_COUNT": None, "ERROR": None, "SPAN": None, "PHASES": None,
}


def abi_defines() -> dict:
    """Every fact ``kernels.c`` takes from Python: macro name -> int."""
    defines = {
        "NODE_MASK": flit._NODE_MASK, "SRC_SHIFT": flit._SRC_SHIFT,
        "KIND_SHIFT": flit._KIND_SHIFT, "KIND_MASK": flit._KIND_MASK,
        "SEQ_SHIFT": flit._SEQ_SHIFT, "SEQ_MASK": flit._SEQ_MASK,
        "HOPS_SHIFT": flit._HOPS_SHIFT, "HOPS_MASK": flit._HOPS_MASK,
        "HOP_ONE": flit.HOP_ONE, "CBIT": flit.CBIT_MASK,
        "SEQ_RING": flit.SEQ_RING,
        "KIND_REQUEST": flit.FLIT_REQUEST, "KIND_REPLY": flit.FLIT_REPLY,
        "KEY_MAX": _KEY_MAX, "MAX_PORTS": _MAX_PORTS,
        "HIST_BUCKETS": NetworkStats.LATENCY_HIST_BUCKETS,
        "THROTTLE_MAX": InjectionThrottleGate.MAX_COUNT,
        "PORT_NORTH": mesh.NORTH, "PORT_EAST": mesh.EAST,
        "PORT_SOUTH": mesh.SOUTH, "PORT_WEST": mesh.WEST,
    }
    for name, code in _ARB_CODES.items():
        defines["ARB_" + name.upper()] = code
    for name, code in _LOC_CODES.items():
        defines["LOC_" + name.upper()] = code
    for code, name in enumerate(_ERRORS, start=1):
        defines["ERR_" + name] = code
    for bit, name in enumerate(PHASES):
        defines["PHASE_" + name.upper()] = 1 << bit
    for prefix, table in (
        ("PT_", _PT), ("CFG_", _CFG), ("FCFG_", _FCFG), ("CTR_", _CTR),
    ):
        for index, name in enumerate(table):
            defines[prefix + name] = index
    return {name: int(value) for name, value in defines.items()}


class NativeUnsupported(RuntimeError):
    """This configuration cannot run on the compiled backend."""


def _check(condition: bool, why: str) -> None:
    if not condition:
        raise NativeUnsupported(f"native backend: {why}")


class NativeAccel:
    """Compiled drop-in for the simulator's per-cycle phases."""

    def __init__(self, sim):
        config = sim.config
        net = sim.network
        cores = sim.cores
        memory = sim.memory
        _check(
            config.network in ("bless", "buffered"),
            f"network {config.network!r} is not implemented in C "
            "(only 'bless' and 'buffered' are)",
        )
        _check(sim.fault_model is None, "fault/chaos campaigns need the "
               "reference implementation's recovery paths")
        _check(sim.tracer is None, "flit tracing hooks only exist in the "
               "reference implementation")
        _check(sim.checker is None, "the invariant checker needs "
               "reference-side intermediate state")
        _check(
            config.locality in _LOC_CODES,
            f"locality {config.locality!r} is not drawn in C; name a model "
            "registered in repro.traffic.locality.LOCALITY_MODELS "
            f"({', '.join(_LOC_CODES)})",
        )
        # Closed-form grids route by coordinates in C and carry no
        # table; a graph topology needs the engine's (n, n) tables.
        topo = net.topology
        grid = self._grid2d = bool(getattr(topo, "grid2d", False))
        _check(grid or net._p0_flat is not None,
               "topology too large for precomputed route tables")
        n, p = net.num_nodes, net.num_ports
        _check(p + 1 <= _MAX_PORTS - 1, "router has too many ports")
        try:
            self._lib = load_library()
        except NativeBuildError as exc:
            raise NativeUnsupported(f"native backend: {exc}") from exc

        self._sim = sim
        self._net = net
        self._cores = cores
        self._memory = memory
        self._stats = net.stats
        self._buffered = config.network == "buffered"
        self._arb = _ARB_CODES[net.arbitration]

        self._eject_width = net.eject_width if not self._buffered else 1
        ej_cap = self._ej_cap = n * self._eject_width
        pend_cap = self._pend_cap = n * cores.mshr_limit + ej_cap + 8
        l2 = memory.l2_latency

        i64, u8 = np.int64, np.bool_

        def alloc(shape, dtype):
            return np.zeros(shape, dtype=dtype)

        # Contiguous int64 copies of topology tables the C side indexes
        # flat; the topology is immutable under the supported configs.
        self._neighbor = np.ascontiguousarray(
            net.topology.neighbor, dtype=i64
        )
        self._reverse = np.ascontiguousarray(
            net.topology.reverse_port, dtype=i64
        )
        self._link_up = np.ascontiguousarray(net.link_up, dtype=u8)

        # Working grids owned by the accel (the reference path's scratch
        # grids stay untouched so both paths can coexist in one process).
        self._g_meta = alloc((n, p), i64)
        self._g_birth = alloc((n, p), i64)
        self._g_key = alloc((n, p), i64)
        self._h_key = alloc((n, p + 1), i64)
        self._h_out = alloc((n, p + 1), i64)
        self._w_down = alloc(n, i64)

        # Ejection batch: network phase to ejection phase.
        self._ej_node = alloc(ej_cap, i64)
        self._ej_src = alloc(ej_cap, i64)
        self._ej_kind = alloc(ej_cap, i64)
        self._ej_seq = alloc(ej_cap, i64)

        # Core-phase miss output + (node, seq)-dedup scratch.
        self._miss_out = alloc(n, i64)
        self._issue_dest = alloc(n, i64)
        self._visited = alloc(max(n * flit.SEQ_RING, 1), np.uint8)

        # Memory system state lives entirely on the C side (the Python
        # MemorySystem ring holds object tuples, which C cannot share).
        self._mem_srv = alloc((l2, ej_cap), i64)
        self._mem_req = alloc((l2, ej_cap), i64)
        self._mem_seq = alloc((l2, ej_cap), i64)
        self._mem_cnt = alloc(l2, i64)
        self._pend_s = alloc(pend_cap, i64)
        self._pend_r = alloc(pend_cap, i64)
        self._pend_q = alloc(pend_cap, i64)
        self._scr_s = alloc(2 * pend_cap, i64)
        self._scr_r = alloc(2 * pend_cap, i64)
        self._scr_q = alloc(2 * pend_cap, i64)

        if self._buffered:
            buf = net.buffers
            self._buf_meta, self._buf_birth = buf.meta, buf.birth
            self._buf_head, self._buf_count = buf.head, buf.count
            self._reserved = net.reserved
            self._buf_cap = net.buffer_capacity
        else:
            self._buf_meta = self._buf_birth = alloc(1, i64)
            self._buf_head = self._buf_count = self._reserved = alloc(
                1, np.int32
            )
            self._buf_cap = 0

        # What C draws: the behaviour tick's phase constants (the
        # reference's own expressions, evaluated here so C receives the
        # very doubles numpy is handed) and the locality model's tables.
        behavior = cores.behavior
        self._phase_mu = -behavior.phase_sigma * behavior.phase_sigma / 2.0
        self._phase_p = 1.0 / behavior.phase_length
        self._loc_model = _LOC_CODES[config.locality]
        # Grid facts, shared by the route function and the grid locality
        # draw; graph topologies route through the engine's tables
        # instead (unused slots point at a dummy).
        none = alloc(1, i64)
        (self._width, self._height, self._wraps,
         self._coord_x, self._coord_y) = (
            (topo.width, topo.height, topo.wraps, topo.coord_x, topo.coord_y)
            if grid else (0, 0, False, none, none)
        )
        self._p0tab, self._p1tab = (
            (none, none) if grid else (net._p0_flat, net._p1_flat)
        )
        # Distance models sample on those coordinates or, on graph
        # topologies, from per-source distance buckets; uniform striping
        # needs neither.
        locality = cores.locality
        distance = isinstance(locality, _DistanceLocality)
        self._loc_maxd = locality._max_dist if distance else 0
        (self._loc_order, self._loc_bstart, self._loc_bcount,
         self._loc_ecc) = (
            (locality._order, locality._bucket_start,
             locality._bucket_count, locality._ecc)
            if distance and not grid else (none,) * 4
        )
        self._loc_d = alloc(n, i64)
        self._loc_a = alloc(n, i64)
        self._loc_sx = alloc(n, i64)
        self._loc_sy = alloc(n, i64)
        self._fcfg = np.array(
            attrgetter(*_FCFG.values())(self), dtype=np.float64
        )

        # Holding the arrays (and generators) keeps the memory alive
        # behind the pointers.
        self._arrays = dict(zip(_PT, attrgetter(*_PT.values())(self)))
        addresses = []
        for name, a in self._arrays.items():
            if isinstance(a, np.random.Generator):
                addresses.append(a.bit_generator.ctypes.bit_generator.value)
                continue
            if not a.flags["C_CONTIGUOUS"]:
                raise NativeUnsupported(
                    f"native backend: pointer-table slot PT_{name} "
                    f"({_PT[name]}) is not C-contiguous"
                )
            addresses.append(a.ctypes.data)
        self._pt = (ctypes.c_void_p * len(_PT))(*addresses)
        self._cfg = np.array(
            attrgetter(*_CFG.values())(self), dtype=np.int64
        )

        # ctr mirrors as (slot, owner, attribute, type), resolved once;
        # the same rows seed the counters here and drive flush().
        self._ctr = np.zeros(len(_CTR), dtype=np.int64)
        self._mirrors = []
        for index, path in enumerate(_CTR.values()):
            if path is None:
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = attrgetter(owner_path)(self)
            value = getattr(owner, attr)
            self._ctr[index] = value
            cast = bool if isinstance(value, bool) else int
            self._mirrors.append((index, owner, attr, cast))
        # Slot indices run_span touches, resolved once.
        slots = list(_CTR)
        self._ctr_error = slots.index("ERROR")
        self._ctr_span = slots.index("SPAN")
        self._ctr_phases = slots.index("PHASES")

        ll = ctypes.POINTER(ctypes.c_longlong)
        self._cfg_p = self._cfg.ctypes.data_as(ll)
        self._ctr_p = self._ctr.ctypes.data_as(ll)

    # ------------------------------------------------------------------
    def _check_error(self) -> None:
        code = int(self._ctr[self._ctr_error])
        if code:
            reasons = dict(enumerate(_ERRORS.values(), start=1))
            raise RuntimeError(
                f"native kernel error: {reasons.get(code, code)}"
            )

    def flush(self) -> None:
        """Mirror the C counters back onto the Python stat objects.

        Array state needs no flushing (the kernels mutate the arrays
        Python owns); this covers the Python *scalars* only.  Called by
        whoever is about to read them: the epoch phase, the watchdog
        hook, result().
        """
        values = self._ctr.tolist()
        for index, owner, attr, cast in self._mirrors:
            setattr(owner, attr, cast(values[index]))

    # ------------------------------------------------------------------
    def run_span(
        self, cycle: int, count: int, phases: int = _ALL_PHASES
    ) -> None:
        """Cycles ``cycle .. cycle + count - 1`` of *phases*, in one call.

        Behaviour tick, cores, memory, network, ejection and every RNG
        draw between them run in C on the simulator's own generators;
        *phases* is a mask over :data:`PHASES`, every phase by default.
        """
        self._ctr[self._ctr_span] = count
        self._ctr[self._ctr_phases] = phases
        self._lib.noc_span(self._pt, self._cfg_p, self._ctr_p, cycle)
        self._check_error()

    def phase(self, name: str):
        """Pipeline phase *name* as a per-cycle callable: its bit of the
        span, one cycle."""
        bit = 1 << PHASES.index(name)
        return lambda cycle: self.run_span(cycle, 1, bit)
