"""Crawl/convert benchmark for the warcit_ray engine.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. One driver process is the only
client: each workload is a batch job run as a closed loop, the next job
starting when the previous one has finished and been checked. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
standard error.

``--trace 0`` reports the end-to-end metrics: ``items_per_s`` (median
over the timed jobs), ``setup_s`` (median Ray session start over several
fresh sessions, plus the first job of the measuring session) and
``driver_peak_rss_mb``. Times are net of hypervisor steal (see
``Stopwatch``); the summary on standard error gives wall times too. ``--trace 1`` first measures untraced jobs, then
repeats them in a second session with the span wrappers of ``trace.py``
installed in the driver and in every Ray worker, and reports the
per-layer metrics of ``layers.py``.

``--smoke`` runs every workload once at a tiny size with every check on.
See README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".pbw")   # short: Ray's sockets live under it

NUM_CPUS_CAP = 4
SHARD_ACTOR_CPUS = 0.25   # state.shards.make_actors reserves this per actor
MIN_TASK_CPUS = 2.0
SETUPS = 2                # Ray sessions started per run, for setup_s
SETTLE_S = 1.0            # think time before each timed job
OBJECT_STORE_BYTES = 512 << 20
RAY_TMP_MAX_LEN = 40      # longer session dirs overflow AF_UNIX socket paths
RAY_START_ATTEMPTS = 2    # a raylet that does not come up in 30 s is retried once
JOB_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0    # no job may run past this many seconds after start
SMOKE_DEADLINE_S = 900.0

_T_START = time.monotonic()


class Refused(Exception):
    """The run cannot be made on this machine or checkout."""


class JobTimeout(Exception):
    pass


def shard_shape(num_cpus: int) -> tuple[int, int]:
    """(seen, host) shard-actor counts: the actors reserve at most half
    the CPUs, and at least MIN_TASK_CPUS stay free for probe/fetch tasks
    (8+8 actors on 4 CPUs reserve all of them and the crawl hangs)."""
    actors = min(4, int(num_cpus / 2 / SHARD_ACTOR_CPUS))
    if actors < 2 or num_cpus - actors * SHARD_ACTOR_CPUS < MIN_TASK_CPUS:
        raise Refused("%d CPUs leave no room for shard actors plus %.0f task CPUs"
                      % (num_cpus, MIN_TASK_CPUS))
    return actors // 2, actors - actors // 2


def _on_alarm(signum, frame):
    raise JobTimeout()


def guarded(fn, deadline: float):
    """Run ``fn`` under the watchdog: a job that outlives its timeout (or
    the run deadline) raises JobTimeout instead of blocking the run."""
    timeout = min(JOB_TIMEOUT_S, deadline - (time.monotonic() - _T_START))
    if timeout <= 1.0:
        raise JobTimeout()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class RssSampler:
    """Driver peak resident set size while ``on``, sampled every 10 ms."""

    def __init__(self):
        self.peak = 0
        self.on = False
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.wait(0.01):
            if self.on:
                with open("/proc/self/statm") as fh:
                    rss = int(fh.read().split()[1]) * self._page
                self.peak = max(self.peak, rss)

    def close(self):
        self._stop.set()
        self._thread.join()


_RAY_TMP = []   # the run's Ray temp dir, made on first use


def _ray_temp_dir() -> str:
    """Ray's session files go inside the checkout when the path is short
    enough for Ray's Unix sockets; otherwise into a private directory of
    the system's temp dir, so no other Ray user's files are touched. It
    is removed at exit either way."""
    if not _RAY_TMP:
        path = os.path.join(WORK, "r")
        if len(path) <= RAY_TMP_MAX_LEN:
            os.makedirs(path, exist_ok=True)
        else:
            path = tempfile.mkdtemp(prefix="pb-")
        _RAY_TMP.append(path)
    return _RAY_TMP[0]


def _descendants() -> list:
    """Pids of every live process below this one, from /proc."""
    parent, state = {}, {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parent[int(name)], state[int(name)] = int(fields[1]), fields[0]
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        kids = [c for c, p in parent.items() if p == pid]
        out += [c for c in kids if state[c] != "Z"]
        todo += kids
    return out


def stop_children(timeout: float = 20.0) -> None:
    """Kill every process this run started that is still alive (Ray's
    daemons and workers after ``ray.shutdown()``, or what a failed
    ``ray.init`` left behind) and wait until each has ended."""
    end = time.monotonic() + timeout
    while True:
        pids = _descendants()
        if not pids or time.monotonic() > end:
            break
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
    while True:  # reap our own children
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break


def start_ray(num_cpus: int, traced: bool) -> None:
    import logging

    import ray

    kw = {}
    if traced:
        from perfbench import trace

        kw["runtime_env"] = {"worker_process_setup_hook": trace.worker_setup}
    for attempt in range(RAY_START_ATTEMPTS):
        try:
            ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                     logging_level="ERROR", log_to_driver=False,
                     object_store_memory=OBJECT_STORE_BYTES,
                     _temp_dir=_ray_temp_dir(), **kw)
            break
        except Exception:
            if attempt + 1 == RAY_START_ATTEMPTS:
                raise
            print("Ray session failed to start; starting another:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            ray.shutdown()
            stop_children()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.CRITICAL)

    # worker warm-up: start one worker process per CPU
    @ray.remote(num_cpus=1)
    def _ping(i):
        return i

    ray.get([_ping.remote(i) for i in range(num_cpus)])


def _steal_s() -> float:
    """Seconds of CPU time the hypervisor has taken from this machine,
    per CPU (steal, from /proc/stat)."""
    with open("/proc/stat") as fh:
        steal_ticks = int(fh.readline().split()[8])
    return steal_ticks / os.sysconf("SC_CLK_TCK") / os.cpu_count()


class Stopwatch:
    """Times a block: ``wall`` seconds, and ``net`` seconds, which leave
    out the share of the block the hypervisor stole from this machine's
    CPUs. On a shared virtual machine steal of 10-30% made whole runs
    1.5-2x slower than quiet ones; the benchmark reports net seconds so
    that a run measures the engine rather than its neighbours."""

    def __enter__(self):
        self._t0, self._s0 = time.perf_counter(), _steal_s()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._t0
        self.net = self.wall - (_steal_s() - self._s0)


class Runner:
    """Closed-loop job runner for one workload. Counts items attempted
    and failed over every job it runs, in any session; a job that raises
    or hits the watchdog fails all its items and stops the run."""

    def __init__(self, wl, deadline: float):
        self.wl = wl
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.broken = False
        self.jobs = 0

    def job(self):
        """Run, check and clean up one job -> (Stopwatch, JobResult), or
        None when it failed to complete."""
        j = self.jobs
        self.jobs += 1
        expected = self.wl.expected_items()
        try:
            with Stopwatch() as sw:
                raw = guarded(lambda: self.wl.run_job(j), self.deadline)
            res = self.wl.check(raw)
        except Exception:  # JobTimeout included: the item count is lost
            print("%s job %d failed:" % (type(self.wl).__name__, j), file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.attempted += expected
            self.failed += expected
            self.broken = True
            return None
        finally:
            self.wl.cleanup(j)
        self.attempted += max(res.items, expected)
        self.failed += res.failed
        return sw, res

    def timed_loop(self, seconds: float, min_jobs: int, on_job=None) -> list:
        """Jobs one after another for about ``seconds``: the job count
        comes from the workload's nominal job length, not from the clock,
        so every run of a workload times the same number of jobs. Each
        job is preceded by SETTLE_S of think time, in which the worker
        processes that the previous job's actors and tasks leave behind
        finish exiting and restarting, instead of competing with the
        next job."""
        out = []
        for _ in range(max(min_jobs, round(seconds / self.wl.job_s))):
            time.sleep(SETTLE_S)
            t0 = time.monotonic()
            got = self.job()
            if got is None:
                break
            if on_job is not None:
                on_job(t0, t0 + got[0].wall, got[1])
            out.append(got)
        return out


def _fmt(values) -> str:
    return "[%s]" % ", ".join("%.2f" % v for v in values)


def _items_per_s(results) -> float:
    return statistics.median(r.items / sw.net for sw, r in results) if results else 0.0


def run_untraced(args, wl, num_cpus: int) -> dict:
    """SETUPS fresh sessions are started and timed; the last one runs the
    warm-up job and then the timed loop. The warm-up job varies too much
    to stand alone, so setup_s includes it: what a one-shot run pays
    before it reaches the steady rate."""
    import ray

    setups, warmups, results = [], [], []
    runner = Runner(wl, RUN_DEADLINE_S)
    rss = RssSampler()
    try:
        for k in range(SETUPS):
            with Stopwatch() as sw:
                start_ray(num_cpus, traced=False)
                wl.setup(k)
            setups.append(sw)
            if k < SETUPS - 1:
                ray.shutdown()
        got = runner.job()
        if got is not None:
            warmups.append(got[0])
            rss.on = True
            results = runner.timed_loop(args.seconds, min_jobs=2)
            rss.on = False
        ray.shutdown()
    finally:
        rss.close()
    items_per_s = _items_per_s(results)
    failed_ratio = runner.failed / max(1, runner.attempted)
    jobs = [sw for sw, _r in results]
    print("%s, wall (net of steal) seconds: session starts %s (%s), warm-up %s (%s), "
          "timed jobs %s (%s); run wall %.1f s\n"
          "  %s_per_s %.6g 1/s, warmup_s %s s, failed_ratio %.4g (%d of %d items)"
          % (args.workload, _fmt(sw.wall for sw in setups), _fmt(sw.net for sw in setups),
             _fmt(sw.wall for sw in warmups), _fmt(sw.net for sw in warmups),
             _fmt(sw.wall for sw in jobs), _fmt(sw.net for sw in jobs),
             time.monotonic() - _T_START, wl.item, items_per_s,
             _fmt(sw.net for sw in warmups), failed_ratio, runner.failed, runner.attempted),
          file=sys.stderr)
    return {"attempted": runner.attempted, "failed": runner.failed, "metrics": {
        "items_per_s": (items_per_s, "1/s"),
        "setup_s": (statistics.median(sw.net for sw in setups)
                    + sum(sw.net for sw in warmups), "s"),
        "driver_peak_rss_mb": (rss.peak / (1 << 20), "MB"),
    }}


def run_traced(args, wl, num_cpus: int) -> dict:
    """Untraced reference loop, then the same loop in a fresh session
    with every span wrapper installed; per-layer metrics come from the
    second. Each loop gets half of ``--seconds``; the ratio of their
    items_per_s is the tracing overhead."""
    import ray

    from perfbench import layers, trace

    runner = Runner(wl, RUN_DEADLINE_S)
    start_ray(num_cpus, traced=False)
    wl.setup(0)
    runner.job()
    untraced = [] if runner.broken else runner.timed_loop(args.seconds / 2, 1)
    ray.shutdown()

    trace_dir = os.path.join(wl.workdir, "trace")
    os.makedirs(trace_dir)
    run_id = "%s-%d" % (args.workload, args.seed)
    os.environ[trace.TRACE_DIR_ENV] = trace_dir
    os.environ[trace.RUN_ID_ENV] = run_id
    tracer = trace.install(trace_dir, run_id)
    windows, infos, traced = [], [], []
    if not runner.broken:
        start_ray(num_cpus, traced=True)
        ingest_s = wl.setup(1).get("ingest_s", 0.0)
        runner.job()

        def on_job(t0, t1, res):
            windows.append((t0, t1))
            infos.append(dict(res.info, ingest_s=ingest_s))

        if not runner.broken:
            traced = runner.timed_loop(args.seconds / 2, 1, on_job)
        ray.shutdown()
    tracer.flush()
    values = layers.per_layer(trace.read_spans(trace_dir), windows, infos)
    t_ips, u_ips = _items_per_s(traced), _items_per_s(untraced)
    values["trace.items_per_s"] = t_ips
    values["trace.untraced_items_per_s"] = u_ips
    values["trace.overhead_ratio"] = u_ips / t_ips if t_ips else 0.0
    units = {n: spec[0] for n, spec in layers.METRICS.items()}
    units.update((n, spec[0]) for n, spec in layers.RUN_METRICS.items())
    print("%s traced: %d items attempted, %d failed; untraced jobs %s s, "
          "traced jobs %s s (net of steal); run wall %.1f s"
          % (args.workload, runner.attempted, runner.failed,
             _fmt(sw.net for sw, _r in untraced), _fmt(sw.net for sw, _r in traced),
             time.monotonic() - _T_START), file=sys.stderr)
    return {"attempted": runner.attempted, "failed": runner.failed,
            "metrics": {n: (values[n], units[n]) for n in units}}


def _prepare() -> int:
    """Check the checkout, make the engine importable here and in Ray
    workers, and return the CPU count for the Ray session."""
    if not os.path.isfile(os.path.join(ROOT, "warcit_ray", "__init__.py")):
        raise Refused("no warcit_ray package at the checkout root %s" % ROOT)
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"   # Ray reports nothing anywhere
    return min(NUM_CPUS_CAP, len(os.sched_getaffinity(0)))


def _workdir(name: str) -> str:
    path = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cleanup(workdir: str) -> None:
    """Stop what the run started, then remove its files."""
    if "ray" in sys.modules:
        sys.modules["ray"].shutdown()   # no-op unless a job raised mid-session
    stop_children()
    shutil.rmtree(workdir, ignore_errors=True)
    if _RAY_TMP:
        shutil.rmtree(_RAY_TMP.pop(), ignore_errors=True)
    try:
        os.rmdir(WORK)
    except OSError:
        pass  # another run's files are still there


def _emit(out: dict) -> None:
    metrics = {n: {"value": float(v), "unit": u} for n, (v, u) in out["metrics"].items()}
    for n, m in metrics.items():
        print("  %-44s %14.6g %s" % (n, m["value"], m["unit"]), file=sys.stderr)
    print(json.dumps({"correct": out["failed"] == 0, "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]), "metrics": metrics}))
    sys.stdout.flush()


def run_smoke(num_cpus: int, shards: tuple) -> int:
    """Every workload once at the smoke size, every check on; one JSON
    line per workload, exit code 1 if any item failed."""
    import ray

    from perfbench import workloads

    total_failed = 0
    for name in workloads.WORKLOADS:
        workdir = _workdir(name)
        try:
            wl = workloads.make(name, 0, "smoke", workdir, shards)
            start_ray(num_cpus, traced=False)
            wl.setup(0)
            runner = Runner(wl, SMOKE_DEADLINE_S)
            got = runner.job()
            ray.shutdown()
        finally:
            _cleanup(workdir)
        print(json.dumps({"workload": name, "correct": runner.failed == 0,
                          "attempted": runner.attempted, "failed": runner.failed,
                          "seconds": got[0].wall if got else None}))
        total_failed += runner.failed
    return 1 if total_failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        num_cpus = _prepare()
        shards = shard_shape(num_cpus)
    except Refused as e:
        print("refused: %s" % e, file=sys.stderr)
        return 2
    print("Ray session: %d CPUs; %d seen + %d host shard actors reserve %.2f CPUs"
          % (num_cpus, shards[0], shards[1], SHARD_ACTOR_CPUS * sum(shards)),
          file=sys.stderr)
    signal.signal(signal.SIGALRM, _on_alarm)
    import ray  # noqa: F401  (imported once, outside every timed set-up)

    if args.smoke:
        return run_smoke(num_cpus, shards)

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error("--workload must be one of %s" % ", ".join(workloads.WORKLOADS))
    workdir = _workdir(args.workload)
    try:
        wl = workloads.make(args.workload, args.seed, "full", workdir, shards)
        out = (run_traced if args.trace else run_untraced)(args, wl, num_cpus)
    finally:
        _cleanup(workdir)
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
