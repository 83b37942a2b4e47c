"""The sharded crawl-state actors (north rule):

- :class:`SeenShard` — a cuckoo-filter shard of the URL-seen set keyed
  on SURT-form 64-bit hashes; batch ``add_if_absent`` API; records
  per-generation insert deltas for checkpoint lineage.
- :class:`HostShard` — per-host politeness token buckets, robots
  gating (one path kernel per Disallow prefix), and a deterministic
  priority frontier for every host whose hash lands on this shard:
  one Arrow table sorted by (host, priority, seq, url, payload_key,
  depth), offered as Arrow columns and admitted by a per-host rank
  cut.

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

import functools
import threading
import time
from collections import Counter
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.shuffle import session_key
from .cuckoo import CuckooFilter
from .robots import url_path_batch


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


# the frontier's row order: by host, then the order admit takes a
# host's rows in
_FRONTIER_ORDER = [(c, "ascending") for c in
                   ("host", "priority", "seq", "url", "payload_key", "depth")]
# a checkpointed frontier entry, per host: [priority, seq, url, key, depth]
_ENTRY = ["priority", "seq", "url", "payload_key", "depth"]


def _pylist(col) -> list:
    """A column without nulls as Python values (``to_pylist`` builds each
    string through Arrow scalars, about 20x slower)."""
    return col.to_numpy(zero_copy_only=False).tolist()


def _runs(t: pa.Table) -> tuple[list, np.ndarray, np.ndarray]:
    """(hosts, start row, row count) of each host's run in a host-sorted
    frontier table."""
    n = t.num_rows
    if n == 0:
        return [], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    hosts = t.column("host").combine_chunks()
    change = pc.not_equal(hosts.slice(1), hosts.slice(0, n - 1))
    starts = np.concatenate(([0], np.flatnonzero(
        change.to_numpy(zero_copy_only=False)) + 1))
    return _pylist(hosts.take(pa.array(starts))), starts, np.diff(np.append(starts, n))


def _column(values, type_: pa.DataType):
    """An offer argument (Arrow array or a sequence) as an Arrow column."""
    if not isinstance(values, (pa.Array, pa.ChunkedArray)):
        return pa.array(values, type=type_)
    return values if values.type == type_ else values.cast(type_)


class HostShardState(_Leasable):
    """Token-bucket politeness + robots + priority frontier for the
    hosts on this shard.

    The pending rows are one Arrow table sorted by (host, priority, seq,
    url, payload_key, depth), plus the offered chunks not yet merged
    into it; tokens are one Python float per host. Determinism contract
    (tested against the serial oracle and against a heap frontier): for
    a given (seed set, robots map, rate, capacity), every host emits the
    same visit sequence, because ``admit_table`` takes each host's first
    floor(tokens) rows in that order, hosts in sorted order."""

    def __init__(self, shard_id: int, rate: float = 1.0, capacity: float = 2.0,
                 robots_map: dict[str, list[str]] | None = None,
                 max_pending_per_host: int = 100_000):
        self.shard_id = shard_id
        self.rate = rate
        self.capacity = capacity
        self.robots = robots_map or {}
        # each Disallow prefix once, with the hosts whose rules carry it
        # (None: every host that has rules)
        self._ruled = {h for h, ds in self.robots.items() if ds}
        by_prefix: dict[str, set] = {}
        for host, prefixes in self.robots.items():
            for d in prefixes:
                by_prefix.setdefault(d, set()).add(host)
        self._prefix_hosts = {d: None if hs == self._ruled else hs
                              for d, hs in by_prefix.items()}
        self.tokens: dict[str, float] = {}
        self._frontier = ADMIT_SCHEMA.empty_table()
        self._offers: list[pa.Table] = []
        self._offered_rows = 0
        self.stats: Counter = Counter()
        # Skew guard: politeness bounds how fast any one host can ever be
        # crawled, so frontier entries beyond this cap can never be
        # visited before the crawl budget runs out — a hot host (one that
        # dominates the link graph) would otherwise blow up this shard's
        # memory. Eviction is an exact per-host rank cut: the WORST
        # (priority, seq, url, ...) rows go, so the kept set is
        # independent of offer order and of when the cut runs.
        self.max_pending = max_pending_per_host

    def _blocked(self, urls, hosts: list[str], codes: np.ndarray) -> np.ndarray | None:
        """Robots gate -> a row mask of disallowed URLs, or None when no
        row's host has rules: one ``starts_with`` per distinct Disallow
        prefix on the path column of the ruled rows. ``hosts`` are the
        distinct hosts and ``codes`` each row's index into them."""
        def has(hs):
            return np.fromiter((h in hs for h in hosts), dtype=bool, count=len(hosts))

        ruled = has(self._ruled)
        if not ruled.any():
            return None
        rows = np.flatnonzero(ruled[codes])
        path = url_path_batch(urls.take(pa.array(rows)) if len(rows) < len(codes) else urls)
        hit = np.zeros(len(rows), dtype=bool)
        for prefix, hs in self._prefix_hosts.items():
            m = pc.starts_with(path, pattern=prefix).to_numpy(zero_copy_only=False)
            hit |= m if hs is None else m & has(hs)[codes[rows]]
        blocked = np.zeros(len(codes), dtype=bool)
        blocked[rows] = hit
        return blocked

    def offer(self, hosts, urls, priorities, seqs, payload_keys, depths) -> int:
        """Enqueue candidate URLs (already seen-filtered), six Arrow
        arrays (or sequences) of one length. Robots-gated here so a
        disallowed URL never occupies frontier memory. The rows join the
        sorted frontier at the next admit (or read), or once they
        outgrow it and ``max_pending``, which bounds this shard's
        memory."""
        rows = pa.table([_column(v, f.type) for v, f in zip(
            (hosts, urls, priorities, seqs, payload_keys, depths), ADMIT_SCHEMA)],
            schema=ADMIT_SCHEMA).combine_chunks()
        if rows.num_rows == 0:
            self.stats["offered"] += 0  # the stat exists once any offer came
            return 0
        # distinct hosts in order of first appearance, as Python strings
        dic = rows.column("host").chunk(0).dictionary_encode()
        distinct = _pylist(dic.dictionary)
        codes = dic.indices.to_numpy(zero_copy_only=False)
        blocked = self._blocked(rows.column("url"), distinct, codes)
        if blocked is not None and blocked.any():
            self.stats["robots_blocked"] += int(blocked.sum())
            rows = rows.filter(pa.array(~blocked))
            # the hosts of accepted rows, in order of their first one
            kept, first = np.unique(codes[~blocked], return_index=True)
            distinct = [distinct[c] for c in kept[np.argsort(first)].tolist()]
        accepted = rows.num_rows
        if accepted:
            for host in distinct:
                self.tokens.setdefault(host, self.capacity)
            self._offers.append(rows)
            self._offered_rows += accepted
            if self._offered_rows > max(self.max_pending, self._frontier.num_rows):
                self._settle()
        self.stats["offered"] += accepted
        return accepted

    def _settle(self) -> None:
        """Merge the offered chunks into the sorted frontier and cut each
        host to its best ``max_pending`` rows."""
        if not self._offers:
            return
        t = pa.concat_tables([self._frontier, *self._offers]).sort_by(_FRONTIER_ORDER)
        self._offers, self._offered_rows = [], 0
        if t.num_rows > self.max_pending:
            _, starts, counts = _runs(t)
            keep = np.arange(t.num_rows) - np.repeat(starts, counts) < self.max_pending
            if not keep.all():
                self.stats["evicted"] += int((~keep).sum())
                t = t.filter(pa.array(keep))
        self._frontier = t.combine_chunks()

    def admit_table(self):
        """One politeness tick -> None (nothing admitted) or an
        ``ADMIT_SCHEMA`` Arrow table: each host with pending rows refills
        its bucket by ``rate`` (capped) and gives its first floor(tokens)
        rows, hosts in sorted order. The table is built ON the actor: the
        driver's ray.get maps a plasma-backed table instead of
        materializing hundreds of thousands of transient Python strings
        (the admit transfer was the largest driver-side allocation at
        400k-URL scale)."""
        self._settle()
        t = self._frontier
        hosts, starts, counts = _runs(t)
        tokens = np.minimum(self.capacity,
                            np.array([self.tokens[h] for h in hosts], dtype=float) + self.rate)
        taken = np.minimum(tokens.astype(np.int64), counts)
        # t - k equals k subtractions of 1.0: each step is exact
        self.tokens.update(zip(hosts, (tokens - taken).tolist()))
        mask = np.arange(t.num_rows) - np.repeat(starts, counts) < np.repeat(taken, counts)
        out = t.filter(pa.array(mask))
        self._frontier = t.filter(pa.array(~mask))
        self.stats["admitted"] += out.num_rows
        return out if out.num_rows else None

    def admit(self) -> dict[str, list]:
        """:meth:`admit_table` as Python lists, one per column."""
        out = self.admit_table()
        return (ADMIT_SCHEMA.empty_table() if out is None else out).to_pydict()

    def pending(self) -> int:
        self._settle()
        return self._frontier.num_rows

    def get_stats(self) -> dict:
        self._settle()
        return dict(self.stats)

    # -- checkpoint lineage -------------------------------------------------

    def checkpoint_state(self) -> dict:
        self._settle()
        t = self._frontier
        hosts, starts, counts = _runs(t)
        entries = list(zip(*(_pylist(t.column(c)) for c in _ENTRY)))
        pending = {h: entries[s:s + c] for h, s, c in zip(hosts, starts.tolist(),
                                                         counts.tolist())}
        return {
            "rate": self.rate,
            "capacity": self.capacity,
            # eviction policy is part of the crawl's identity: a resume
            # must evict exactly as the original would have, or the
            # continued run diverges from an uninterrupted one
            "max_pending": self.max_pending,
            # "heap": a host's pending rows in admit order (the key is
            # the host_state.json format's, kept from the heap frontier)
            "hosts": {
                h: {"tokens": tok, "heap": pending.get(h, [])}
                for h, tok in self.tokens.items()
            },
            "stats": dict(self.stats),
        }

    def restore_state(self, state: dict) -> None:
        self.rate = state["rate"]
        self.capacity = state["capacity"]
        self.max_pending = state.get("max_pending", self.max_pending)
        self.tokens = {h: s["tokens"] for h, s in state["hosts"].items()}
        rows = [(h, *e) for h, s in state["hosts"].items() for e in s["heap"]]
        cols = list(zip(*rows)) or [[]] * 6
        self._frontier = pa.table(
            dict(zip(["host"] + _ENTRY, map(list, cols))), schema=ADMIT_SCHEMA
        ).sort_by(_FRONTIER_ORDER).combine_chunks()
        self._offers, self._offered_rows = [], 0
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

    # decorated per lease that spawns, not once per process: ray.remote
    # captures the class's methods as they are now, so a method wrapped
    # after the first lease (a tracer) still reaches the actors spawned later
    remote_cls = functools.cache(lambda: ray.remote(num_cpus=0)(cls))

    def spawn(x):
        fresh.append(remote_cls().remote(*x))
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
        idle = _idle(session_key())
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
        idle = _idle(session_key())
        idle[SeenShardState].extend(lease.seen)
        idle[HostShardState].extend(lease.host)
