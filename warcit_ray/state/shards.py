"""The sharded crawl-state actors (north rule):

- :class:`SeenShard` — a cuckoo-filter shard of the URL-seen set keyed
  on SURT-form 64-bit hashes; batch ``add_if_absent`` API; records
  per-generation insert deltas for checkpoint lineage.
- :class:`HostShard` — per-host politeness token buckets, robots
  gating, and a deterministic priority min-heap frontier for every
  host whose hash lands on this shard.

Shard routing is ``hash % num_shards`` on the *host* for HostShard
(politeness must be local to one actor per host) and on the *URL hash*
for SeenShard (uniform load). Hot hosts are handled above this layer
by salting (pipelines/crawl.py): a salted host ``h#k`` still routes all
its salt buckets to the same HostShard so the token bucket stays
authoritative, but batch-level pre-dedup spreads.

Both actors are plain classes decorated at creation time so the module
imports without Ray (unit-testable serially — the serial oracle in the
equivalence test drives the same classes without actors).

The actors form a state plane that lives as long as the Ray session:
:func:`make_actors` leases them from a per-session idle pool, spawning
only the ones the pool lacks, and ``reset``s each to exactly the state a
fresh actor built from the same arguments would hold;
:func:`release_actors` drops that state and returns them to the pool.
Spawning a fleet per crawl cost more than the crawl's actor work (the
process start plus the first Arrow return's serializer imports). The
actors are not detached, so they die with the driver that leased them.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from .cuckoo import CuckooFilter
from .robots import allowed


# the one admitted-row format: what HostShardState.admit_table emits
# and what crawl() adds its generation column to
ADMIT_SCHEMA = pa.schema([
    pa.field("host", pa.string()),
    pa.field("url", pa.string()),
    pa.field("priority", pa.int64()),
    pa.field("seq", pa.int64()),
    pa.field("payload_key", pa.string()),
    pa.field("depth", pa.int64()),
])


class _Leasable:
    """Pool hooks: a leased actor is rebuilt in place by ``reset`` (the
    constructor re-run on this lease's arguments) and emptied by
    ``drop`` when it goes back to the idle pool."""

    def reset(self, *args) -> None:
        vars(self).clear()
        self.__init__(*args)

    def drop(self) -> None:
        vars(self).clear()


class SeenShardState(_Leasable):
    def __init__(self, shard_id: int, capacity: int = 1 << 20, fp_bits: int = 16):
        self.shard_id = shard_id
        self.filter = CuckooFilter(capacity, fp_bits=fp_bits)
        self._delta: list[np.ndarray] = []

    def add_if_absent(self, hashes: np.ndarray) -> np.ndarray:
        hashes = np.asarray(hashes, dtype=np.uint64)
        added = self.filter.add_if_absent_batch(hashes)
        if added.any():
            self._delta.append(hashes[added])
        return added

    def flush_delta(self) -> np.ndarray:
        """Hashes inserted since the last flush — the checkpoint's
        per-partition lineage record (replayed on resume)."""
        if not self._delta:
            return np.empty(0, dtype=np.uint64)
        out = np.concatenate(self._delta)
        self._delta = []
        return out

    def replay(self, hashes: np.ndarray) -> int:
        """Resume path: re-insert checkpointed hashes WITHOUT recording
        a new delta."""
        hashes = np.asarray(hashes, dtype=np.uint64)
        added = self.filter.add_if_absent_batch(hashes)
        return int(added.sum())

    def count(self) -> int:
        return self.filter.count

    def fill(self) -> tuple[int, float]:
        """(total slots, expected false-positive skips so far) of this
        shard's filter — the crawl stats' load factor and fp estimate."""
        return self.filter.nbuckets * 4, self.filter.expected_fp_skips()


class HostShardState(_Leasable):
    """Token-bucket politeness + robots + priority frontier for the
    hosts on this shard.

    Determinism contract (tested against the serial oracle): for a
    given (seed set, robots map, rate, capacity), every host emits the
    same visit sequence — the heap orders by (priority, seq, url) and
    ``admit`` walks hosts in sorted order."""

    def __init__(self, shard_id: int, rate: float = 1.0, capacity: float = 2.0,
                 robots_map: dict[str, list[str]] | None = None,
                 max_pending_per_host: int = 100_000):
        self.shard_id = shard_id
        self.rate = rate
        self.capacity = capacity
        self.robots = robots_map or {}
        self.hosts: dict[str, dict] = {}
        self.stats: Counter = Counter()
        # Skew guard: politeness bounds how fast any one host can ever be
        # crawled, so frontier entries beyond this cap can never be
        # visited before the crawl budget runs out — a hot host (one that
        # dominates the link graph) would otherwise blow up this shard's
        # heap memory. Eviction is deterministic: the WORST (priority,
        # seq, url) entry goes, so the kept set is order-independent.
        self.max_pending = max_pending_per_host

    def _host(self, host: str) -> dict:
        st = self.hosts.get(host)
        if st is None:
            st = {"tokens": self.capacity, "heap": []}
            self.hosts[host] = st
        return st

    def offer(self, hosts: list[str], urls: list[str], priorities: list[int],
              seqs: list[int], payload_keys: list[str], depths: list[int]) -> int:
        """Enqueue candidate URLs (already seen-filtered). Robots-gated
        here so a disallowed URL never occupies frontier memory."""
        accepted = 0
        # batch per host: collect entries, then one extend+heapify per
        # host (O(n) C heapify beats n pushes for large offers)
        pending: dict[str, list] = {}
        for host, url, pri, seq, key, depth in zip(
            hosts, urls, priorities, seqs, payload_keys, depths
        ):
            if not allowed(url, self.robots.get(host, ())):
                self.stats["robots_blocked"] += 1
                continue
            pending.setdefault(host, []).append((pri, seq, url, key, depth))
            accepted += 1
        for host, entries in pending.items():
            st = self._host(host)
            st["heap"].extend(entries)
            # exact trim on every overflow: the heap is always the best
            # max_pending entries seen so far, which makes the kept set
            # independent of batch arrival order (an amortized/slack
            # trim would let an early eviction outrank a late survivor)
            if len(st["heap"]) > self.max_pending:
                n_evict = len(st["heap"]) - self.max_pending
                st["heap"] = heapq.nsmallest(self.max_pending, st["heap"])
                self.stats["evicted"] += n_evict
            heapq.heapify(st["heap"])
        self.stats["offered"] += accepted
        return accepted

    def admit(self) -> dict[str, list]:
        """One politeness tick: refill each bucket by ``rate`` (capped),
        pop floor(tokens) URLs per host in priority order."""
        out: dict[str, list] = {"host": [], "url": [], "priority": [],
                                "seq": [], "payload_key": [], "depth": []}
        for host in sorted(self.hosts):
            st = self.hosts[host]
            if not st["heap"]:
                continue
            st["tokens"] = min(self.capacity, st["tokens"] + self.rate)
            k = int(st["tokens"])
            for _ in range(min(k, len(st["heap"]))):
                pri, seq, url, key, depth = heapq.heappop(st["heap"])
                out["host"].append(host)
                out["url"].append(url)
                out["priority"].append(pri)
                out["seq"].append(seq)
                out["payload_key"].append(key)
                out["depth"].append(depth)
                st["tokens"] -= 1.0
        self.stats["admitted"] += len(out["url"])
        return out

    def admit_table(self):
        """One politeness tick -> None (nothing admitted) or an
        ``ADMIT_SCHEMA`` Arrow table built ON the actor: the driver's
        ray.get maps a plasma-backed table instead of materializing
        hundreds of thousands of transient Python strings (the admit
        transfer was the largest driver-side allocation at 400k-URL
        scale)."""
        out = self.admit()
        if not out["url"]:
            return None
        return pa.table(out, schema=ADMIT_SCHEMA)

    def pending(self) -> int:
        return sum(len(st["heap"]) for st in self.hosts.values())

    def get_stats(self) -> dict:
        return dict(self.stats)

    # -- checkpoint lineage -------------------------------------------------

    def checkpoint_state(self) -> dict:
        return {
            "rate": self.rate,
            "capacity": self.capacity,
            # eviction policy is part of the crawl's identity: a resume
            # must evict exactly as the original would have, or the
            # continued run diverges from an uninterrupted one
            "max_pending": self.max_pending,
            "hosts": {
                h: {"tokens": st["tokens"], "heap": sorted(st["heap"])}
                for h, st in self.hosts.items()
            },
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        self.rate = state["rate"]
        self.capacity = state["capacity"]
        self.max_pending = state.get("max_pending", self.max_pending)
        self.hosts = {
            h: {"tokens": s["tokens"], "heap": [tuple(e) for e in s["heap"]]}
            for h, s in state["hosts"].items()
        }
        for st in self.hosts.values():
            heapq.heapify(st["heap"])
        self.stats = Counter(state["stats"])


class ShardLease(NamedTuple):
    """The actors one crawl holds, and how many came from the pool."""

    seen: list
    host: list
    reused: int
    spawned: int


# the idle actors of the current Ray session: (session key, {cls: [handle]});
# a handle from an earlier session is never handed out
_POOL_LOCK = threading.Lock()
_POOL: tuple = (None, {})


def _session_key() -> tuple:
    """A new local cluster has a new node id; a new driver on a running
    cluster has a new job id."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_job_id(), ctx.get_node_id()


def _idle(key: tuple) -> dict:
    global _POOL
    if _POOL[0] != key:
        _POOL = (key, {SeenShardState: [], HostShardState: []})
    return _POOL[1]


def _fill(cls, idle: list, args: list, fresh: list) -> list:
    """One fleet in shard order: each idle actor ``reset`` to its
    ``args`` entry (a fresh spawn in place of a dead one), then fresh
    spawns for the rest. Every spawn is also appended to ``fresh``."""
    import ray
    from ray.exceptions import RayActorError

    # decorated per lease, not once per process: ray.remote captures the
    # class's methods as they are now, so a method wrapped after the
    # first lease (a tracer) still reaches the actors spawned later
    remote_cls = ray.remote(num_cpus=0)(cls)

    def spawn(x):
        fresh.append(remote_cls.remote(*x))
        return fresh[-1]

    resets = [a.reset.remote(*x) for a, x in zip(idle, args)]
    actors = []
    for a, ref, x in zip(idle, resets, args):
        try:
            ray.get(ref)
            actors.append(a)
        except RayActorError:
            actors.append(spawn(x))
    return actors + [spawn(x) for x in args[len(idle):]]


def make_actors(num_seen: int, num_host: int, *, seen_capacity: int = 1 << 20,
                rate: float = 1.0, capacity: float = 2.0,
                robots_map: dict | None = None,
                max_pending_per_host: int = 100_000,
                seen_fp_bits: int = 16) -> ShardLease:
    """Lease the actor fleets from this Ray session's idle pool, spawning
    only what it lacks; every actor starts in the state a fresh one built
    from these arguments would have, and is ready when this returns.
    Hand them back with :func:`release_actors`, or :func:`kill_actors`
    them if the crawl failed.

    The actors reserve 0 CPUs: they are state servers that sit idle
    most of the time, and a fractional reservation only kept a CPU out
    of the probe/fetch tasks' reach, which made Ray start new task
    workers on every crawl."""
    import ray

    fleets = {
        SeenShardState: [(i, seen_capacity, seen_fp_bits) for i in range(num_seen)],
        HostShardState: [(i, rate, capacity, robots_map, max_pending_per_host)
                         for i in range(num_host)],
    }
    with _POOL_LOCK:
        idle = _idle(_session_key())
        taken = {cls: [idle[cls].pop() for _ in args[:len(idle[cls])]]
                 for cls, args in fleets.items()}
    fresh: list = []
    try:
        # spawns are waited for together, so both fleets start in parallel
        seen, host = [_fill(cls, taken[cls], args, fresh)
                      for cls, args in fleets.items()]
        ray.get([a.__ray_ready__.remote() for a in fresh])
    except BaseException:
        kill_actors(fresh + taken[SeenShardState] + taken[HostShardState])
        raise
    return ShardLease(seen, host, num_seen + num_host - len(fresh), len(fresh))


def kill_actors(actors: list) -> None:
    """``ray.kill`` the actors and return once each is dead (its
    ``__ray_ready__`` call fails) or 30 s have passed.
    ``ray.kill`` only requests the kill: a call sent right after it can
    still be served, so a caller that re-raises straight away would let
    its own caller reach a live actor."""
    import ray
    from ray.exceptions import GetTimeoutError, RayError

    for a in actors:
        ray.kill(a)
    deadline = time.monotonic() + 30.0
    alive = list(actors)
    while alive and time.monotonic() < deadline:
        pings = [(a, a.__ray_ready__.remote()) for a in alive]
        alive = []
        for a, ref in pings:
            try:
                ray.get(ref, timeout=max(0.0, deadline - time.monotonic()))
                alive.append(a)
            except GetTimeoutError:
                alive.append(a)
            except RayError:
                pass  # dead, or unreachable for good
        if alive:
            time.sleep(0.05)


def release_actors(lease: ShardLease) -> None:
    """Drop the actors' state and return them to the session's idle pool.
    Call only once nothing else can still reach them (no probe task in
    flight), or a later crawl's reset plane would take its writes."""
    for a in lease.seen + lease.host:
        a.drop.remote()
    with _POOL_LOCK:
        idle = _idle(_session_key())
        idle[SeenShardState].extend(lease.seen)
        idle[HostShardState].extend(lease.host)
