"""Content-addressed on-disk result cache.

Layout mirrors git's loose-object store: ``<root>/<key[:2]>/<key>.json``
where the key is

    sha256( JobSpec.canonical() + result-schema version + code version )

so a cache entry is invalidated automatically when the experiment point
changes (different spec), when the serialized result layout changes
(``RESULT_SCHEMA_VERSION`` bump), or when the simulator or the entry
layout itself is declared changed (``CODE_VERSION``).

Entries are JSON rather than pickle: human-inspectable, diffable, and a
truncated or hand-edited file degrades to a cache *miss* instead of an
arbitrary-code-execution hazard.  Writes go through a temp file +
``os.replace`` so a crash mid-write can never leave a half-entry that a
resumed sweep would trust.

An entry is ``SimulationResult.to_dict()`` with one change: the latency
histogram is cut after its last non-zero bucket, and its full width is
stored beside it as ``latency_hist_buckets``.  The histogram has 1,024
buckets, but a small run's last non-zero bucket is near 50 and even a
congested 1,024-node run's stays below 300; the full list was over half
of every entry and most of a hit's time went to decoding it.
:meth:`ResultCache.get` pads the head back to its width with zeros
before :meth:`SimulationResult.from_dict`, so a hit is the computed
result exactly.  Changing this layout means bumping ``CODE_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional

import numpy as np

from repro.harness.jobs import JobSpec
from repro.network.base import NetworkStats
from repro.sim.results import RESULT_SCHEMA_VERSION, SimulationResult

__all__ = ["ResultCache", "CODE_VERSION"]

#: Version of the simulator code and of the entry layout, baked into
#: every cache key.  Bump it when simulation behavior or the on-disk
#: entry layout changes, so the cache starts cold instead of replaying
#: stale physics or handing an old layout to a new reader.
CODE_VERSION = "1.1.0"

_INT = frozenset((int,))
#: bytes asked of each read; a 16-node entry (≈ 2.6 KB) takes one
_READ_SIZE = 1 << 16


class ResultCache:
    """Maps :class:`JobSpec` -> stored :class:`SimulationResult`."""

    def __init__(
        self,
        root,
        code_version: str = CODE_VERSION,
        schema_version: int = RESULT_SCHEMA_VERSION,
    ):
        self.root = pathlib.Path(root).expanduser()
        self.code_version = code_version
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        # A sweep asks for the same specs' keys pass after pass: each is
        # hashed once per cache, and a lookup joins plain strings.
        self._keys: Dict[str, str] = {}
        self._prefix = os.path.join(self.root, "")
        self._suffix = f"|schema={schema_version}|code={code_version}"

    # ------------------------------------------------------------------
    def key(self, spec: JobSpec) -> str:
        """Content hash of (spec, schema version, code version)."""
        canonical = spec.canonical()
        key = self._keys.get(canonical)
        if key is None:
            preimage = canonical + self._suffix
            key = hashlib.sha256(preimage.encode("utf-8")).hexdigest()
            self._keys[canonical] = key
        return key

    def _file(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def path(self, spec: JobSpec) -> pathlib.Path:
        return pathlib.Path(self._file(self.key(spec)))

    # ------------------------------------------------------------------
    def get(self, spec: JobSpec) -> Optional[SimulationResult]:
        """The cached result, or ``None`` (counting a miss).

        Any defect in the stored entry — unreadable file, invalid JSON,
        missing fields, schema mismatch, a malformed histogram, an entry
        stored for another key — is treated as a miss so the sweep
        re-runs the point rather than crashing or trusting garbage.  A
        hit is one read, one decode and one construction.
        """
        key = self.key(spec)
        path = self._file(key)
        try:
            # Strict UTF-8: bytes that are not are a defect.
            payload = json.loads(_read(path).decode("utf-8"))
            if payload["key"] != key:
                raise ValueError("cache entry belongs to another key")
            data = payload["result"]
            data["latency_hist"] = _full_hist(
                data["latency_hist"], payload["latency_hist_buckets"]
            )
            result = SimulationResult.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (
            OSError, ValueError, KeyError, TypeError, AttributeError,
            OverflowError, RecursionError,
        ):
            # Corrupted or stale entry: drop it and re-run.  The decoded
            # document is untrusted: a value of the wrong JSON type fails
            # as a TypeError or AttributeError, a deeply nested one as a
            # RecursionError.
            try:
                os.unlink(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: JobSpec, result: SimulationResult) -> pathlib.Path:
        """Store *result* under the spec's key (atomic, crash-safe)."""
        path = self.path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = result.to_dict()
        hist = data["latency_hist"]
        width = None
        if hist is not None:
            width = len(hist)
            # The result's own array finds the cut in C; its list in
            # ``data`` is the same values.
            nonzero = np.flatnonzero(result.latency_hist)
            data["latency_hist"] = hist[: nonzero[-1] + 1 if nonzero.size else 0]
        payload = {
            "key": path.stem,  # the key, hashed once: <key>.json
            "spec": json.loads(spec.canonical()),
            "code_version": self.code_version,
            "latency_hist_buckets": width,
            "result": data,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # allow_nan=False: entries must be strict RFC-8259 JSON.
                # Python's json would otherwise emit Infinity/NaN (e.g.
                # ipf=inf for inactive nodes), which strict parsers and
                # cross-tool consumers reject; SimulationResult.to_dict
                # encodes non-finite floats as null instead, and this
                # flag guarantees the corruption class cannot silently
                # come back.  dumps, not dump: one call into the C
                # encoder instead of the pure-Python chunk iterator,
                # same bytes.
                handle.write(json.dumps(payload, allow_nan=False))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    def __contains__(self, spec: JobSpec) -> bool:
        return os.path.exists(self._file(self.key(spec)))

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}


def _read(path: str) -> bytes:
    """The file's bytes: one ``read`` for an entry under ``_READ_SIZE``,
    then the one that finds the end of the file."""
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_BINARY", 0))
    try:
        data = os.read(fd, _READ_SIZE)
        while chunk := os.read(fd, _READ_SIZE):
            data += chunk
    finally:
        os.close(fd)
    return data


def _full_hist(head, width) -> Optional[np.ndarray]:
    """The stored histogram *head* zero-padded to *width* buckets.

    Raises ``ValueError`` unless *head* is a list of non-negative ints
    no longer than the int *width*, itself at most the simulator's
    bucket count (or both are ``None``), so a malformed entry is a miss
    rather than a histogram of the wrong length, an allocation of any
    size, a truncated float count or a negative one.
    """
    if head is None and width is None:
        return None
    if (
        type(head) is not list
        or type(width) is not int
        or not len(head) <= width <= NetworkStats.LATENCY_HIST_BUCKETS
        or not set(map(type, head)) <= _INT
        or min(head, default=0) < 0
    ):
        raise ValueError("malformed latency histogram in cache entry")
    hist = np.zeros(width, dtype=np.int64)
    hist[: len(head)] = head
    return hist
