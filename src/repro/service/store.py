"""Content-addressed on-disk result store.

Simulations are deterministic, so a result is fully identified by *what*
was simulated: core config, memory config, workload profile (name +
trace seed), trace length, code revision and interpreter build.  The
store hashes exactly that identity (via the provenance manifest digest)
into a key and keeps one canonical JSON record per key on disk:

* **Atomic writes** — records land via unique temp file + ``os.replace``,
  so concurrent writers of the same key are idempotent (records are
  canonically serialised, hence byte-identical) and a reader never sees a
  half-written file.
* **Integrity** — every record envelope embeds a digest of its payload;
  a corrupt entry is detected on read, moved into ``quarantine/`` and
  reported as a miss so the caller recomputes it.
* **Bounded** — an optional LRU entry cap (by access time) evicts the
  coldest records; hits, misses, writes, evictions and quarantines are
  counted for the service ``/stats`` endpoint.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.common.params import MemoryConfig
from repro.engine.soatrace import (
    TraceArrays,
    TraceCodecError,
    encode_trace,
)
from repro.obs.provenance import (
    config_hash,
    git_rev,
    interpreter_tag,
    manifest_digest,
)

#: Version of the on-disk record envelope.  A reader finding any other
#: value treats the entry as a miss (never served across schema changes).
STORE_SCHEMA = 1

#: ``format`` tag of a codec-encoded trace wire record (see
#: :func:`trace_wire_record`).
TRACE_WIRE_FORMAT = "rtr"


def result_key(cfg, profile, n_instrs: int, warmup: int,
               mem_cfg: Optional[MemoryConfig] = None) -> str:
    """Content address of one simulation's result.

    Covers everything that can change the simulated counters: both config
    hashes, the app identity (name + trace seed), trace lengths, the code
    revision and the interpreter build.  Deliberately *excludes* read-only
    observers (sanitizer, accounting, samplers) — they never change
    timing, so results computed with or without them share an address.
    """
    identity = {
        "config_hash": config_hash(cfg),
        "mem_hash": config_hash(mem_cfg if mem_cfg is not None
                                else MemoryConfig()),
        "core": cfg.name,
        "app": profile.name,
        "trace_seed": profile.seed,
        "profile_hash": config_hash(profile),
        "n_instrs": n_instrs,
        "warmup": warmup,
        "git_rev": git_rev(),
        "platform": interpreter_tag(),
    }
    return manifest_digest(identity)


def encode_record(key: str, record: dict) -> bytes:
    """Canonical bytes for one store entry (deterministic: same record ->
    same bytes, so racing writers replace files with identical content)."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()
    envelope = {"schema": STORE_SCHEMA, "key": key, "digest": digest,
                "record": record}
    return (json.dumps(envelope, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def verify_envelope(key: str, envelope) -> Optional[dict]:
    """The validated record inside one store envelope, or None.

    Checks schema, key and the embedded sha256 against the canonical
    re-serialisation of the record — the same validation a local read
    performs, usable on envelopes that arrived over the wire (a replica
    fetching ``GET /results/<key>`` trusts nothing it did not hash)."""
    if not isinstance(envelope, dict):
        return None
    if envelope.get("schema") != STORE_SCHEMA or envelope.get("key") != key:
        return None
    record = envelope.get("record")
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(payload.encode()).hexdigest() != envelope.get("digest"):
        return None
    return record


def _decode_record(key: str, raw: bytes) -> Optional[dict]:
    """The validated record payload, or None when the entry is corrupt."""
    try:
        envelope = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return verify_envelope(key, envelope)


class ResultStore:
    """Content-addressed result store rooted at a directory.

    Entries are sharded two hex characters deep (``ab/abcdef....json``) so
    a big store never puts thousands of files in one directory.
    """

    def __init__(self, root: Union[str, Path],
                 max_entries: Optional[int] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "writes": 0,
            "evictions": 0, "quarantined": 0,
        }
        #: Report of the most recent :meth:`scrub` (surfaced in /stats).
        self.last_scrub: Optional[dict] = None

    # -- paths -----------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (never delete evidence)."""
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            pass
        self.stats["quarantined"] += 1

    # -- read ------------------------------------------------------------------

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Raw validated entry bytes (what ``GET /results/<key>`` serves)."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            self.stats["misses"] += 1
            return None
        if _decode_record(key, raw) is None:
            self._quarantine(path)
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        self._touch(path)
        return raw

    def get(self, key: str) -> Optional[dict]:
        """The validated record for ``key``, or None (miss / corrupt)."""
        raw = self.get_bytes(key)
        if raw is None:
            return None
        return _decode_record(key, raw)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    # -- write -----------------------------------------------------------------

    def put(self, key: str, record: dict) -> Path:
        """Atomically write ``record`` under ``key`` and return its path."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        data = encode_record(key, record)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        self.stats["writes"] += 1
        self._evict()
        return path

    # -- maintenance -----------------------------------------------------------

    def _touch(self, path: Path) -> None:
        """Refresh access time so LRU eviction tracks real usage."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _entries(self) -> Iterator[Path]:
        for shard in self.root.iterdir():
            # "traces" is the sibling TraceStore (binary traces, not
            # result records) when the pool shares traces under this root.
            if shard.name in ("quarantine", "traces") or not shard.is_dir():
                continue
            yield from shard.glob("*.json")

    def keys(self) -> list:
        return sorted(p.stem for p in self._entries())

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def _evict(self) -> None:
        if not self.max_entries:
            return
        entries = sorted(self._entries(),
                         key=lambda p: (p.stat().st_mtime, p.name))
        excess = len(entries) - self.max_entries
        for path in entries[:max(excess, 0)]:
            try:
                path.unlink()
                self.stats["evictions"] += 1
            except OSError:
                pass

    def quarantined_paths(self) -> List[Path]:
        """Every quarantined entry file, sorted (repair/inspection)."""
        qdir = self.root / "quarantine"
        return sorted(qdir.glob("*.json")) if qdir.is_dir() else []

    def scrub(self) -> dict:
        """Full integrity walk: re-hash every envelope in the result
        store (and the sibling trace store, when present), quarantining
        result mismatches and deleting corrupt traces.

        Returns (and remembers, for ``/stats``) a report with per-store
        counts and the keys quarantined by this walk.
        """
        report = {"results": {"checked": 0, "ok": 0, "quarantined": []}}
        for path in list(self._entries()):
            key = path.stem
            report["results"]["checked"] += 1
            try:
                raw = path.read_bytes()
            except OSError:
                continue  # raced with eviction: nothing to verify
            if _decode_record(key, raw) is None:
                self._quarantine(path)
                report["results"]["quarantined"].append(key)
            else:
                report["results"]["ok"] += 1
        traces_root = self.root / "traces"
        if traces_root.is_dir():
            report["traces"] = TraceStore(traces_root).scrub()
        report["quarantine_backlog"] = len(self.quarantined_paths())
        self.last_scrub = report
        return report

    def stats_snapshot(self) -> dict:
        snapshot = dict(self.stats, entries=len(self))
        if self.last_scrub is not None:
            snapshot["last_scrub"] = self.last_scrub
        return snapshot


# -- shared synthetic traces ---------------------------------------------------


def trace_key(profile, n_instrs: int) -> str:
    """Content address of one generated synthetic trace.

    Trace generation is deterministic in the profile fields and the
    requested length, but it is *code*: a generator change must never be
    served a stale trace, so the key also covers the revision and the
    interpreter build (mirroring :func:`result_key`).
    """
    identity = {
        "app": profile.name,
        "trace_seed": profile.seed,
        "profile_hash": config_hash(profile),
        "n_instrs": n_instrs,
        "git_rev": git_rev(),
        "platform": interpreter_tag(),
    }
    return manifest_digest(identity)


def trace_wire_record(key: str, trace: Union[List, bytes]) -> dict:
    """JSON-safe store record carrying one codec-encoded trace.

    Publishing this under ``key`` in a coordinator's :class:`ResultStore`
    makes the trace fetchable through the ordinary cluster replica path:
    :func:`verify_envelope` validates the wire envelope, and the embedded
    binary container re-verifies its own sha256 *and* key on decode — two
    independent integrity checks between the wire and the simulator.
    ``trace`` may be the object stream or pre-encoded container bytes.
    """
    raw = trace if isinstance(trace, bytes) else encode_trace(trace, key)
    return {"kind": "trace", "format": TRACE_WIRE_FORMAT,
            "data": base64.b64encode(raw).decode("ascii")}


def trace_container_from_wire(key: str, record) -> Optional[bytes]:
    """Validated container bytes from one wire trace record, or None.

    Rejects anything that is not a well-formed trace record whose
    embedded container decodes cleanly *for this key* — a record renamed
    onto the wrong key, a bit-flipped payload and a truncated base64
    string all return None rather than raising.
    """
    if (not isinstance(record, dict) or record.get("kind") != "trace"
            or record.get("format") != TRACE_WIRE_FORMAT):
        return None
    data = record.get("data")
    if not isinstance(data, str):
        return None
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError):
        return None
    try:
        TraceArrays.decode(raw, key)
    except TraceCodecError:
        return None
    return raw


class TraceStore:
    """Content-addressed on-disk cache of generated synthetic traces.

    Pool workers each used to regenerate the same (app, seed, n) trace —
    the single most expensive redundant step in a fleet, since every
    worker simulating a suite app pays full generation before its first
    cycle.  This store lets the first worker to generate a trace publish
    it for every other worker process.

    Entries are binary ``.rtr`` containers (the
    :mod:`~repro.engine.soatrace` codec: versioned header + typed columns
    + embedded sha256) — arrays on the wire and on disk, not object
    pickles, so reading an entry never unpickles a file.  The write idiom
    matches :class:`ResultStore` — unique temp file + ``os.replace`` — so
    concurrent writers of one key are idempotent and readers never see a
    torn entry.  A corrupt entry is moved to ``quarantine/`` (evidence,
    like result records) and counts as a ``corrupt`` miss.

    ``fetch`` (optional) turns the store into a pull-through replica of
    a coordinator, mirroring :class:`~repro.service.cluster.replica.\
ReplicaStore`: on a local miss it is called with the trace key and must
    return the coordinator's wire envelope (``GET /results/<key>``) or
    None; the envelope is validated with :func:`verify_envelope`, the
    embedded container re-verified by the codec, and only then cached
    locally — byte-identical to the authority's entry.
    """

    def __init__(self, root: Union[str, Path],
                 fetch: Optional[Callable[[str], Optional[dict]]] = None,
                 ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._fetch = fetch
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
            "fetched": 0, "quarantined": 0,
        }

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.rtr"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt binary entry aside (never delete evidence)."""
        qdir = self.root / "quarantine"
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists():
            n += 1
            target = qdir / f"{path.stem}.{n}{path.suffix}"
        try:
            os.replace(path, target)
        except OSError:
            pass
        self.stats["corrupt"] += 1
        self.stats["quarantined"] += 1

    # -- read ------------------------------------------------------------------

    def _read_binary(self, key: str) -> Optional[List]:
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            arrays = TraceArrays.decode(raw, key)
        except TraceCodecError:
            self._quarantine(path)
            return None
        return arrays.materialize()

    def _fetch_raw(self, key: str) -> Optional[bytes]:
        """Fetch, verify and locally cache one entry's container bytes."""
        envelope = self._fetch(key)
        if envelope is None:
            return None
        record = verify_envelope(key, envelope)
        if record is None:
            return None
        raw = trace_container_from_wire(key, record)
        if raw is None:
            return None
        # The codec is deterministic, so caching the fetched bytes
        # verbatim is exactly what a local re-encode would write.
        self._write_raw(key, raw)
        self.stats["fetched"] += 1
        return raw

    def _fetch_remote(self, key: str) -> Optional[List]:
        raw = self._fetch_raw(key)
        if raw is None:
            return None
        return TraceArrays.decode(raw, key).materialize()

    def get(self, profile, n_instrs: int) -> Optional[List]:
        """The cached trace for (profile, n_instrs), or None on a miss.

        Read order: local entry, then the ``fetch`` hook (when
        configured).  Corrupt entries never propagate — they are
        quarantined and treated as misses.
        """
        key = trace_key(profile, n_instrs)
        trace = self._read_binary(key)
        if trace is None and self._fetch is not None:
            trace = self._fetch_remote(key)
        if trace is None:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        return trace

    def prefetch(self, profile, n_instrs: int) -> bool:
        """Ensure the entry exists locally without materializing it.

        A cluster node calls this when it leases a job: if the
        coordinator has published the job's input trace, the verified
        container lands in the shared on-disk cache before any pool
        worker starts, so no worker pays generation.  Best-effort — a
        False just means the first worker generates locally as usual.
        """
        key = trace_key(profile, n_instrs)
        if self._path(key).exists():
            return True
        if self._fetch is None:
            return False
        return self._fetch_raw(key) is not None

    # -- write -----------------------------------------------------------------

    def _write_raw(self, key: str, data: bytes) -> Path:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        self.stats["writes"] += 1
        return path

    def put(self, profile, n_instrs: int, trace: List) -> Path:
        """Atomically publish a freshly generated trace (binary codec)."""
        key = trace_key(profile, n_instrs)
        return self._write_raw(key, encode_trace(trace, key))

    def wire_record(self, profile, n_instrs: int) -> Optional[dict]:
        """The stored entry as a wire record (what a coordinator would
        publish in its result store for replicas to fetch), or None."""
        key = trace_key(profile, n_instrs)
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        return trace_wire_record(key, raw)

    # -- maintenance -----------------------------------------------------------

    def scrub(self) -> dict:
        """Integrity walk: validate every trace entry.

        Every container is re-verified through the codec and quarantined
        on mismatch.
        """
        report = {"checked": 0, "ok": 0, "quarantined": 0}
        for shard in self.root.iterdir():
            if shard.name == "quarantine" or not shard.is_dir():
                continue
            for path in list(shard.glob("*.rtr")):
                report["checked"] += 1
                try:
                    TraceArrays.decode(path.read_bytes(), path.stem)
                except TraceCodecError:
                    self._quarantine(path)
                    report["quarantined"] += 1
                except OSError:
                    continue  # raced with eviction: nothing to verify
                else:
                    report["ok"] += 1
        return report

    def stats_snapshot(self) -> dict:
        return dict(self.stats)
