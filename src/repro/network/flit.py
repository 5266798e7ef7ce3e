"""Flit conventions shared by the router models.

A flit is the smallest independently routed unit of traffic (§2.1).  For
speed, every flit is represented by two 64-bit words:

- ``meta`` packs the routing/identity fields (layout below),
- ``birth`` is the injection cycle, with ``birth < 0`` meaning
  "no flit" in arrival/output buffers.

``meta`` bit layout::

    bits  0..13   dest   destination node (up to 16k nodes)
    bits 14..27   src    injecting node
    bits 28..29   kind   request / reply / control
    bit  30       cbit   congestion bit (distributed control, §6.6)
    bits 31..38   seq    packet sequence tag (miss index mod 256)
    bits 39..58   hops   link traversals completed

Oldest-First arbitration orders flits by ``(birth, src)``, which is a
total order because a node injects at most one flit per cycle — this
mirrors the paper's age field plus header tie-break (§2.2).

The ``seq`` tag lets the requesting core match reply flits to the
individual miss that produced them, which drives the in-order
instruction-window model: the *oldest* outstanding miss gates
retirement, so one straggling (deflected) reply stalls the core even
when later replies have arrived — the paper's "stall time criticality".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FLIT_REQUEST",
    "FLIT_REPLY",
    "FLIT_CONTROL",
    "KIND_NAMES",
    "SEQ_RING",
    "MAX_NODES",
    "pack_meta",
    "meta_dest",
    "meta_src",
    "meta_kind",
    "meta_seq",
    "meta_hops",
    "meta_cbit",
    "priority_key",
    "priority_key_into",
    "HOP_ONE",
    "CBIT_MASK",
]

FLIT_REQUEST = 0
FLIT_REPLY = 1
FLIT_CONTROL = 2
KIND_NAMES = ("request", "reply", "control")

_DEST_SHIFT = 0
_SRC_SHIFT = 14
_KIND_SHIFT = 28
_CBIT_SHIFT = 30
_SEQ_SHIFT = 31
_HOPS_SHIFT = 39

_NODE_MASK = (1 << 14) - 1
_KIND_MASK = 0x3
_SEQ_MASK = (1 << 8) - 1
_HOPS_MASK = (1 << 20) - 1

#: Per-node packet sequence space; must exceed any outstanding-miss limit.
SEQ_RING = 256
#: Largest network the packed format supports.
MAX_NODES = _NODE_MASK + 1

#: Add to ``meta`` to record one more traversed hop.
HOP_ONE = np.int64(1) << _HOPS_SHIFT
#: OR into ``meta`` to set the congestion bit.
CBIT_MASK = np.int64(1) << _CBIT_SHIFT


def pack_meta(dest, src, kind, seq=0) -> np.ndarray:
    """Pack flit identity fields into meta words (hops = 0, cbit clear)."""
    dest = np.asarray(dest, dtype=np.int64)
    src = np.asarray(src, dtype=np.int64)
    kind = np.asarray(kind, dtype=np.int64)
    seq = np.asarray(seq, dtype=np.int64)
    return (
        (dest << _DEST_SHIFT)
        | (src << _SRC_SHIFT)
        | (kind << _KIND_SHIFT)
        | (seq << _SEQ_SHIFT)
    )


def meta_dest(meta: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    if out is None:
        return meta & _NODE_MASK
    return np.bitwise_and(meta, _NODE_MASK, out=out)


def meta_src(meta: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    if out is None:
        return (meta >> _SRC_SHIFT) & _NODE_MASK
    np.right_shift(meta, _SRC_SHIFT, out=out)
    return np.bitwise_and(out, _NODE_MASK, out=out)


def meta_kind(meta: np.ndarray) -> np.ndarray:
    return (meta >> _KIND_SHIFT) & _KIND_MASK


def meta_seq(meta: np.ndarray) -> np.ndarray:
    return (meta >> _SEQ_SHIFT) & _SEQ_MASK


def meta_hops(meta: np.ndarray) -> np.ndarray:
    return (meta >> _HOPS_SHIFT) & _HOPS_MASK


def meta_cbit(meta: np.ndarray) -> np.ndarray:
    return (meta >> _CBIT_SHIFT) & 0x1


def priority_key(birth: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Total-order arbitration key; smaller key = older flit = wins.

    ``birth`` is the injection cycle and ``src`` the injecting node.  The
    pair is unique per in-flight flit (one injection per node per cycle),
    giving the total order the paper requires for livelock freedom.
    """
    return (np.asarray(birth, dtype=np.int64) << _SRC_SHIFT) | np.asarray(
        src, dtype=np.int64
    )


def priority_key_into(
    birth: np.ndarray, src: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Allocation-free :func:`priority_key` into a scratch buffer
    (*src* must already be an int64 array, e.g. a ``meta_src`` scratch)."""
    np.left_shift(birth, _SRC_SHIFT, out=out)
    return np.bitwise_or(out, src, out=out)
