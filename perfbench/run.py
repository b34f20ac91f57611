#!/usr/bin/env python3
"""The repository benchmark: map, serve and churn workloads.

    python3 perfbench/run.py --workload map|serve|churn|all --seed N --seconds S --trace 0|1

Run from the repository root.  It builds the shipped tools and the harness
(perfbench_tool) under .bench_build/, generates the workload's inputs from the
seed under .bench_work/, runs the tools with their default flags, checks every
output, prints each metric by name with its unit and then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones (see perfbench/README.md).  "all" runs
the three workloads in turn, each ending with its own JSON line.
"""

import argparse
import collections
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
TOOLS = ["pathalias", "mapgen", "routedb", "routedbd", "perfbench_tool"]

MAP_HOSTS = 1_000_000
MAP_SETUPS = 3
SERVE_HOSTS = 100_000
# Fixed offered rates for serve.  The headline is the lower one: on a shared
# virtual machine 80k req/s sat close enough to the knee that stolen CPU time
# backlogged the daemon in some runs.
SERVE_RATES = (20_000, 50_000)
LADDER = tuple(range(20_000, 200_001, 20_000))
CHURN_RATE = 5_000
CHURN_SETUPS = 3
TRACED_EDITS = 5

# The per-layer metrics each workload's traced run must produce.  Every other
# per-layer metric in BENCHMARK.json belongs to a layer the workload does not
# run, and reports 0 there.
TRACE_TOTALS = ("trace.coverage", "trace.overhead_ratio")
TRACED = {
    "map": ("io.read_ms", "parser.lex_ms", "parser.tokens", "parser.lex_mtokens_per_s",
            "parser.parse_ms", "parser.declarations", "graph.nodes", "graph.links",
            "graph.teardown_ms", "core.mapper.run_ms", "core.mapper.heap_pops",
            "core.mapper.relaxations", "core.mapper.back_link_passes",
            "core.mapper.invented_links", "core.route_printer.build_ms",
            "core.route_printer.render_ms", "core.route_printer.routes",
            "core.route_printer.bytes", "io.write_ms") + TRACE_TOTALS,
    "serve": ("net.daemon.turn_us.p50", "net.daemon.turn_us.p99",
              "net.daemon.datagrams_per_turn", "net.daemon.queries_per_batch",
              "net.daemon.send_drops", "net.daemon.overload_replies",
              "net.daemon.duplicate_requests", "net.wire.encode_request_ns",
              "net.wire.decode_request_ns", "net.wire.encode_reply_ns",
              "net.wire.decode_reply_ns", "exec.resolve_ns_per_query", "exec.cache_hit_rate",
              "route_db.resolved_ratio", "route_db.suffix_ratio", "image.open_ms")
             + TRACE_TOTALS,
    "churn": ("io.read_maps_ms", "incr.update_ms", "incr.patched_ratio", "incr.dirty_nodes",
              "incr.routes_changed", "image.refreeze_ms", "incr.state_save_ms", "image.open_ms",
              "exec.adopt_ms", "exec.cache_hit_rate") + TRACE_TOTALS,
}

# With four or more CPUs the daemon, the load generator's sender and its
# receiver each get one to themselves (the last three); the rest run elsewhere.
_CPUS = sorted(os.sched_getaffinity(0))
DAEMON_CPU, SENDER_CPU, RECEIVER_CPU = _CPUS[-3:] if len(_CPUS) >= 4 else (None,) * 3


class BenchError(Exception):
    pass


def log(message):
    print(message, flush=True)


def metric_line(name, value, unit, note=""):
    log("metric %-32s %14.6g %-6s %s" % (name, value, unit, note))


# --- build ---------------------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        raise BenchError("no repository sources in %s" % ROOT)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    build_log = BUILD_DIR.parent / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)] + generator,
                           stdout=out, stderr=subprocess.STDOUT)
        done = subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                               "--target"] + TOOLS, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = build_log.read_text(errors="replace").splitlines()[-20:]
        raise BenchError("build failed:\n" + "\n".join(tail))
    return {tool: str(find_binary(tool)) for tool in TOOLS}


def find_binary(name):
    for candidate in (BUILD_DIR / name, BUILD_DIR / "repo" / name):
        if candidate.exists():
            return candidate
    raise BenchError("built tree has no %s" % name)


# --- environment record ----------------------------------------------------------


def read_first(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def environment():
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = read_first(index + "/level")
        kind = read_first(index + "/type")
        if kind in ("Unified", "Data"):
            caches["L%s" % level] = read_first(index + "/size")
    fs = "unknown"
    work = str(ROOT)
    best = ""
    for line in read_first("/proc/mounts", "").splitlines():
        parts = line.split()
        if len(parts) >= 3 and work.startswith(parts[1]) and len(parts[1]) > len(best):
            best, fs = parts[1], parts[2]
    cache_vars = read_first(BUILD_DIR / "CMakeCache.txt", "")
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache_vars, re.M)
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache_vars, re.M)
    commands = json.loads(read_first(BUILD_DIR / "compile_commands.json", "[]"))

    def flags_of(source):
        for entry in commands:
            if entry.get("file", "").endswith(source):
                return " ".join(f for f in entry.get("command", "").split()
                                if f.startswith(("-O", "-g", "-march", "-DNDEBUG")))
        return "unknown"
    compiler_version = "unknown"
    if compiler:
        done = subprocess.run([compiler.group(1), "--version"], capture_output=True, text=True)
        compiler_version = done.stdout.splitlines()[0] if done.stdout else compiler.group(1)
    digest = hashlib.sha256()
    for path in sorted(glob.glob(str(ROOT / "src" / "**" / "*"), recursive=True)):
        if os.path.isfile(path):
            digest.update(path[len(str(ROOT)):].encode())
            digest.update(Path(path).read_bytes())
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=ROOT).stdout.strip() if (ROOT / ".git").exists() else ""
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "kernel": platform.release(),
        "work_fs": fs,
        "net.unix.max_dgram_qlen": read_first("/proc/sys/net/unix/max_dgram_qlen"),
        "net.core.rmem_default": read_first("/proc/sys/net/core/rmem_default"),
        "compiler": compiler_version,
        "build_type": build_type.group(1) if build_type else "unknown",
        "build_flags": flags_of("pathalias_main.cc"),
        "harness_flags": flags_of("perfbench/loadgen.cc"),
        "commit": commit or "not a git checkout",
        "src_sha256": digest.hexdigest()[:16],
        "pinned_cpus": "daemon %s, sender %s, receiver %s" % (DAEMON_CPU, SENDER_CPU,
                                                              RECEIVER_CPU),
    }


# --- shared steps ----------------------------------------------------------------


def run_mapgen(bins, hosts, seed, directory):
    """Writes the seed's site files into `directory`; returns the suggested local
    host and the files in order."""
    done = subprocess.run([bins["mapgen"], "--profile", "usenet-scale", "--hosts", str(hosts),
                           "--seed", str(seed), "--dir", str(directory)],
                          capture_output=True, text=True)
    match = re.search(r"suggested local host: (\S+)", done.stderr + done.stdout)
    if done.returncode != 0 or not match:
        raise BenchError("mapgen failed: " + done.stderr[-500:])
    files = [str(directory / name) for name in benchlib.sorted_keys(os.listdir(directory))]
    return match.group(1), files


Timed = collections.namedtuple("Timed", "wall_s cpu_s rss_mib status")


def timed_run(argv):
    """Runs argv to completion; returns its wall and CPU (user + system) seconds,
    peak RSS in MiB and exit status."""
    start = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Timed(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 child.returncode)


def run_pathalias(bins, local, files, out):
    return timed_run([bins["pathalias"], "-l", local, "-o", str(out)] + files)


def check_route_text(text, local):
    """Structural check of pathalias output: name<TAB>route lines, one %s each,
    the local host routed as plain %s."""
    count = 0
    for line in text.splitlines():
        name, tab, route = line.partition("\t")
        if not name or not tab or route.count("%s") != 1:
            return False, count
        count += 1
    return ("%s\t%%s" % local) in text, count


def sorted_samples(path):
    samples = array("d")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return sorted(samples)


class Daemon:
    """A routedbd process launched with its default flags; launch -> ready line."""

    def __init__(self, bins, image, maps=()):
        read_fd, write_fd = os.pipe()
        argv = [bins["routedbd"], "--image", str(image), "--udp", "0",
                "--ready-fd", str(write_fd)]
        for path in maps:
            argv += ["--map", path]
        self.stderr = open(str(image) + ".daemon.log", "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=self.stderr,
                                     pass_fds=(write_fd,))
        if DAEMON_CPU is not None:
            os.sched_setaffinity(self.proc.pid, {DAEMON_CPU})
        os.close(write_fd)
        with os.fdopen(read_fd) as ready:
            line = ready.readline()
        self.ready_s = time.perf_counter() - start
        match = re.match(r"ready (\d+)", line)
        if not match:
            self.stop()
            raise BenchError("routedbd did not become ready")
        self.port = int(match.group(1))
        self.log_path = str(image) + ".daemon.log"

    def peak_rss_mib(self):
        for line in read_first("/proc/%d/status" % self.proc.pid, "").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("cannot read the daemon's peak RSS")

    def stop(self):
        """SIGTERM and wait; returns the exit stats line's counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()
        stats = {}
        for line in read_first(self.log_path, "").splitlines():
            if "exiting;" in line:
                stats = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", line)}
        return stats


def client_cpus():
    if SENDER_CPU is None:
        return []
    return ["--sender-cpu", str(SENDER_CPU), "--receiver-cpu", str(RECEIVER_CPU)]


def loadgen(bins, work, name, port, rate, seconds, requests, extra=()):
    prefix = work / name
    argv = [bins["perfbench_tool"], "loadgen", "--port", str(port), "--requests", str(requests),
            "--rate", str(rate), "--seconds", str(seconds), "--out", str(prefix),
            "--id-base", str((zlib.crc32(name.encode()) << 24) | 1)] + client_cpus() + list(extra)
    done = subprocess.run(argv, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise BenchError("loadgen %s failed: %s" % (name, done.stderr[-500:]))
    summary = json.loads((work / (name + ".json")).read_text())
    summary["latency"] = sorted_samples(str(prefix) + ".lat")
    summary["late"] = sorted_samples(str(prefix) + ".late")
    summary["replies_path"] = str(prefix) + ".replies"
    summary["seconds"] = seconds
    return summary


def check_replies(path, oracles):
    """Checks every recorded reply against the oracle of some generation its
    window allows.  Returns how many queries got a wrong answer."""
    wrong = 0
    with open(path) as f:
        for line in f:
            dest, lo, hi, status, via, route, count = line.rstrip("\n").split("\t")
            got = (int(status), via, route)
            if not any(benchlib.lookup(oracles[g], dest) == got
                       for g in range(int(lo), int(hi) + 1)):
                wrong += int(count)
    return wrong


def phase_failures(summary):
    """A load phase's failed requests by cause."""
    return collections.Counter({cause: summary[cause]
                                for cause in ("timed_out", "overloaded", "bad_replies")})


def report_failures(causes):
    """Logs the failures by cause and returns their total."""
    log("failures " + json.dumps({k: v for k, v in sorted(causes.items()) if v}))
    return sum(causes.values())


def latency_report(workload, rate, summary):
    """Prints <workload>_p50_us.r<rate> and _p99_us, each only when publishable."""
    lat = summary["latency"]
    for p in (50, 99):
        name = "%s_p%d_us.r%dk" % (workload, p, rate // 1000)
        value = benchlib.publishable(lat, p)
        note = "(n=%d, beyond=%d)" % (len(lat), benchlib.beyond(lat, p) if lat else 0)
        if value is None:
            log("metric %-32s %14s %-6s %s" % (name, "unpublished", "us", note))
        else:
            metric_line(name, value, "us", note)


def late_ok(summary):
    late = summary["late"]
    return bool(late) and benchlib.percentile(late, 99) <= benchlib.MAX_LATE_P99_US


# --- workloads -------------------------------------------------------------------


def map_workload(bins, work, seed, seconds, trace):
    # Set-up is writing the seed's site files, timed over MAP_SETUPS generations.
    setups = []
    for _ in range(1 if trace else MAP_SETUPS):
        shutil.rmtree(work / "maps", ignore_errors=True)
        start = time.perf_counter()
        local, files = run_mapgen(bins, MAP_HOSTS, seed, work / "maps")
        setups.append(time.perf_counter() - start)
    routes = work / "routes.txt"
    failed = attempted = 0
    pins = json.loads((BENCH_DIR / "pins.json").read_text()).get("map", {})

    def check(path):
        text = Path(path).read_text()
        ok, count = check_route_text(text, local)
        digest = hashlib.sha256(text.encode()).hexdigest()
        pin = pins.get(str(seed))
        if pin is not None:
            ok = ok and pin == {"routes": count, "sha256": digest}
        return ok, count, digest

    if trace:
        walls, traced = [], []
        traced_routes = work / "traced_routes.txt"

        def untraced_run():
            nonlocal attempted, failed
            run = run_pathalias(bins, local, files, routes)
            attempted += 1
            failed += run.status != 0 or not check(routes)[0]
            walls.append(run.wall_s)

        def traced_run():
            nonlocal attempted, failed
            figures_path = work / "trace.json"
            done = subprocess.run([bins["perfbench_tool"], "trace-map", "--local", local,
                                   "--routes", str(traced_routes), "--json", str(figures_path)]
                                  + files, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            attempted += 1
            failed += done.returncode != 0 or not check(traced_routes)[0]
            traced.append(json.loads(figures_path.read_text()))

        # Pairs in alternating order (untraced first, then traced first, ...), so
        # neither side always runs on the page cache and writeback the other left.
        for i in range(5):
            for step in ((untraced_run, traced_run) if i % 2 == 0 else
                         (traced_run, untraced_run)):
                step()
        if traced_routes.read_bytes() != routes.read_bytes():
            failed += 1
        figures = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        spans = ("io.read_ms", "parser.parse_ms", "core.mapper.run_ms",
                 "core.route_printer.build_ms", "core.route_printer.render_ms", "io.write_ms",
                 "graph.teardown_ms")
        # Each traced replay is compared with the untraced run beside it, so the
        # machine's speed drifting during the run cancels out.
        figures["trace.coverage"] = statistics.median(
            sum(t[k] for k in spans) / (wall * 1e3) for t, wall in zip(traced, walls))
        figures["trace.overhead_ratio"] = statistics.median(
            t["traced_ms"] / (wall * 1e3) - 1 for t, wall in zip(traced, walls))
        log("untraced pathalias walls %s ms; traced spans %s ms" % (
            ", ".join("%.1f" % (w * 1e3) for w in walls),
            ", ".join("%.1f" % sum(t[k] for k in spans) for t in traced)))
        return attempted, failed, figures

    runs, outputs = [], set()
    start = time.perf_counter()
    while len(runs) < 3 or time.perf_counter() - start < seconds:
        run = run_pathalias(bins, local, files, routes)
        attempted += 1
        ok, count, digest = check(routes)
        failed += run.status != 0 or not ok
        outputs.add((count, digest))
        runs.append(run)
    failed += len(outputs) - 1  # every run must give the same routes
    for count, digest in sorted(outputs):
        log("map: %d hosts, local %s, %d routes, sha256 %s" % (MAP_HOSTS, local, count, digest))
    log("map: set-up (mapgen) %s s" % ", ".join("%.2f" % t for t in setups))
    map_wall = statistics.median(r.wall_s for r in runs)
    rss = statistics.median(r.rss_mib for r in runs)
    metric_line("map_wall_s", map_wall, "s", "(median of %d runs: %s)" % (
        len(runs), ", ".join("%.2f" % r.wall_s for r in runs)))
    # CPU time beside wall time: on a shared virtual machine the wall also holds
    # time the CPU was taken away, which the process's CPU time does not.
    metric_line("map_cpu_s", statistics.median(r.cpu_s for r in runs), "s",
                "(user + system, median)")
    metric_line("map_peak_rss_mib", rss, "MiB")
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": map_wall * 1e3,
        "peak_rss_mib": rss,
    }


def build_serving_inputs(bins, work, seed):
    local, files = run_mapgen(bins, SERVE_HOSTS, seed, work / "maps")
    routes_path = work / "routes.txt"
    if run_pathalias(bins, local, files, routes_path).status != 0:
        raise BenchError("pathalias failed on the %d-host map" % SERVE_HOSTS)
    text = routes_path.read_text()
    ok, _ = check_route_text(text, local)
    if not ok:
        raise BenchError("pathalias output is malformed")
    return local, files, benchlib.parse_routes(text)


def write_requests(path, requests):
    with open(path, "w") as f:
        for request in requests:
            f.write("\t".join(request) + "\n")


def serve_workload(bins, work, seed, seconds, trace):
    _, _, routes = build_serving_inputs(bins, work, seed)
    image = work / "routes.pari"
    done = subprocess.run([bins["routedb"], "freeze", str(work / "routes.txt"), str(image)],
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("routedb freeze failed: " + done.stderr[-500:])
    requests_path = work / "requests.txt"
    write_requests(requests_path, benchlib.serve_requests(routes, seed, 100_000))
    oracles = [routes]
    attempted = 0

    causes = collections.Counter()

    def account(summary, probe=False):
        """Checks a phase's replies; returns its failed requests by cause.  On a
        ladder step (`probe`) only wrong answers count against the run: the
        ladder climbs past the daemon's knee on purpose, and its timeouts and
        sheds are what stop the climb."""
        nonlocal attempted
        phase = phase_failures(summary)
        phase["wrong_answer"] = check_replies(summary["replies_path"], oracles)
        attempted += summary["attempted"]
        causes.update({"wrong_answer": phase["wrong_answer"]} if probe else phase)
        return phase

    if trace:
        rate, window = SERVE_RATES[0], 3
        daemon = Daemon(bins, image)
        try:
            account(loadgen(bins, work, "warm", daemon.port, SERVE_RATES[0], 1, requests_path))
            untraced = loadgen(bins, work, "untraced", daemon.port, rate, window, requests_path)
        finally:
            causes["reload_errors"] += daemon.stop().get("reload_errors", 0)
        account(untraced)
        figures_path = work / "trace.json"
        done = subprocess.run([bins["perfbench_tool"], "trace-serve", "--image", str(image),
                               "--requests", str(requests_path), "--rate", str(rate),
                               "--seconds", str(window), "--json", str(figures_path),
                               "--out", str(work / "traced")]
                              + client_cpus() + ([] if DAEMON_CPU is None else
                                                 ["--daemon-cpu", str(DAEMON_CPU)]),
                              capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise BenchError("trace-serve failed: " + done.stderr[-500:])
        figures = json.loads(figures_path.read_text())
        if figures["net.daemon.turns"] / 100 < benchlib.MIN_BEYOND:
            raise BenchError("too few daemon turns to publish a turn-time p99")
        traced = json.loads((work / "traced.json").read_text())
        traced["replies_path"] = str(work / "traced.replies")
        traced["latency"] = sorted_samples(str(work / "traced.lat"))
        account(traced)
        untraced_p50 = benchlib.percentile(untraced["latency"], 50)
        figures["trace.coverage"] = figures["net.daemon.turn_us.p50"] / untraced_p50
        figures["trace.overhead_ratio"] = (
            benchlib.percentile(traced["latency"], 50) / untraced_p50 - 1)
        return attempted, report_failures(causes), figures

    # Set-up: launch -> ready, several times; the last daemon serves.
    setups = []
    for _ in range(4):
        daemon = Daemon(bins, image)
        setups.append(daemon.ready_s)
        daemon.stop()
    daemon = Daemon(bins, image)
    setups.append(daemon.ready_s)
    phase_s = max(1.0, seconds / 4)
    try:
        account(loadgen(bins, work, "warm", daemon.port, SERVE_RATES[0], 1, requests_path))
        fixed = {}
        for rate in SERVE_RATES:
            # A phase whose generator ran late is rejected and run again, twice at most.
            for attempt in range(3):
                summary = loadgen(bins, work, "r%dk-%d" % (rate // 1000, attempt), daemon.port,
                                  rate, phase_s, requests_path)
                account(summary)
                if late_ok(summary):
                    break
                log("phase r%dk rejected: generator p99 lateness %.0f us" %
                    (rate // 1000, benchlib.percentile(summary["late"], 99)))
            fixed[rate] = summary
        steps = []
        ladder_start = time.perf_counter()
        for rate in LADDER:
            summary = loadgen(bins, work, "ladder%d" % rate, daemon.port, rate, 1,
                              requests_path)
            step = {
                "p99_us": benchlib.publishable(summary["latency"], 99),
                "failed_ratio": (sum(account(summary, probe=True).values())
                                 / summary["attempted"]),
                "backlog_s": summary["elapsed_s"] - summary["seconds"],
                "late_ok": late_ok(summary),
            }
            steps.append((rate, step))
            if not benchlib.step_passes(step) or time.perf_counter() - ladder_start > seconds:
                break
        rss = daemon.peak_rss_mib()
    finally:
        stats = daemon.stop()
    causes["reload_errors"] += stats.get("reload_errors", 0)
    for rate, summary in fixed.items():
        if not late_ok(summary):
            raise BenchError("load generator ran late at %d req/s, three times" % rate)
        latency_report("serve", rate, summary)
    max_rate = benchlib.max_passing_rate(steps)
    metric_line("serve_max_kqps", max_rate / 1000, "kq/s", "(ladder: %s)" % ", ".join(
        "%dk %s" % (r // 1000, "ok" if benchlib.step_passes(s) else
                    "stop: p99 %s us, failed %.4f%%" % (s["p99_us"], 100 * s["failed_ratio"]))
        for r, s in steps))
    metric_line("serve_rss_mib", rss, "MiB")
    late = fixed[SERVE_RATES[0]]["late"]
    metric_line("gen.late_p99_us", benchlib.percentile(late, 99), "us")
    headline = fixed[SERVE_RATES[0]]["latency"]
    return attempted, report_failures(causes), {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": benchlib.percentile(headline, 50) / 1e3,
        "peak_rss_mib": rss,
    }


class ChurnMaps:
    """The churn map files and every generation of them.  Edit k (1-based) yields
    generation k; generation 0 is the mapgen output."""

    def __init__(self, work, files, routes, seed):
        self.work = work
        self.files = files
        self.live = {path: Path(path).read_text() for path in files}
        self.versions = [{}]  # generation -> {path: saved copy} changed up to then
        self.sentinels = []
        self.seed = seed
        self.routes0 = routes
        (work / "versions").mkdir()

    def plan(self, count, name):
        """Prepares the next `count` edits; returns the plan file path."""
        first = len(self.sentinels)
        edits = benchlib.plan_edits(self.live, self.routes0, self.seed * 1000 + first, count,
                                    "%dg%d" % (self.seed % 1000, first))
        plan_path = self.work / (name + ".plan")
        with open(plan_path, "w") as plan:
            for offset, (path, text, sentinel) in enumerate(edits):
                generation = first + offset + 1
                saved = self.work / "versions" / ("%d.map" % generation)
                saved.write_text(text)
                staged = self.work / "versions" / ("%d.staged" % generation)
                staged.write_text(text)
                changed = dict(self.versions[-1])
                changed[path] = str(saved)
                self.versions.append(changed)
                self.sentinels.append(sentinel)
                plan.write("%s\t%s\t%s\n" % (path, staged, sentinel))
        return plan_path

    def oracles(self, bins, local):
        """Route dicts for every generation, from fresh pathalias runs."""
        def one(generation):
            changed = self.versions[generation]
            files = [changed.get(path, self.original(path)) for path in self.files]
            out = self.work / ("oracle%d.txt" % generation)
            if run_pathalias(bins, local, files, out).status != 0:
                raise BenchError("pathalias failed on generation %d" % generation)
            return benchlib.parse_routes(out.read_text())
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(one, range(len(self.versions))))

    def truncate(self, generations):
        """Forgets the edits planned beyond `generations`."""
        del self.versions[generations + 1:]
        del self.sentinels[generations:]

    def original(self, path):
        return str(self.work / "originals" / Path(path).name)


def churn_workload(bins, work, seed, seconds, trace):
    local, files, routes = build_serving_inputs(bins, work, seed)
    shutil.copytree(work / "maps", work / "originals")
    image = work / "routes.pari"
    done = subprocess.run([bins["routedb"], "update", "--init", "--local", local, str(image)]
                          + files, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError("routedb update --init failed: " + done.stderr[-500:])
    maps = ChurnMaps(work, files, routes, seed)
    requests_path = work / "requests.txt"
    write_requests(requests_path, benchlib.uniform_requests(routes, seed, 50_000))
    attempted = failed = 0
    visible = []  # (generation, visible_ms, reply)

    def edit(daemon, name):
        plan = maps.plan(1, name)
        out = work / (name + ".visible")
        done = subprocess.run([bins["perfbench_tool"], "edit", "--port", str(daemon.port),
                               "--pid", str(daemon.proc.pid), "--plan", str(plan),
                               "--out", str(out)], capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError("edit failed: " + done.stderr[-500:])
        ms, reply = out.read_text().rstrip("\n").split("\t", 1)
        visible.append((len(maps.sentinels), float(ms), reply.replace("\t", " ")))
        return float(ms)

    def check_visible(oracles):
        wrong = 0
        for generation, _, reply in visible:
            status, via, route = reply.split(" ")
            sentinel = maps.sentinels[generation - 1]
            wrong += benchlib.lookup(oracles[generation], sentinel) != (int(status), via, route)
        return wrong

    if trace:
        daemon = Daemon(bins, image, files)
        try:
            edit(daemon, "warmup")
            untraced = [edit(daemon, "untraced%d" % i) for i in range(3)]
        finally:
            stats = daemon.stop()
        failed += stats.get("reload_errors", 0)
        plan = maps.plan(TRACED_EDITS, "traced")
        list_path = work / "maps.list"
        list_path.write_text("\n".join(files) + "\n")
        figures_path = work / "trace.json"
        done = subprocess.run([bins["perfbench_tool"], "trace-churn", "--image", str(image),
                               "--maps", str(list_path), "--plan", str(plan),
                               "--requests", str(requests_path), "--json", str(figures_path)],
                              capture_output=True, text=True, timeout=150)
        attempted += len(visible) + TRACED_EDITS
        failed += done.returncode != 0
        if done.returncode != 0:
            raise BenchError("trace-churn failed: " + done.stderr[-500:])
        failed += check_visible(maps.oracles(bins, local))
        figures = json.loads(figures_path.read_text())
        spans = ("io.read_maps_ms", "incr.update_ms", "image.refreeze_ms", "incr.state_save_ms",
                 "image.open_ms", "exec.adopt_ms")
        untraced_ms = statistics.median(untraced)
        figures["trace.coverage"] = sum(figures[k] for k in spans) / untraced_ms
        figures["trace.overhead_ratio"] = figures["step_ms"] / untraced_ms - 1
        return attempted, failed, figures

    setups = []
    daemon = None
    try:
        for i in range(CHURN_SETUPS):
            if daemon is not None:
                failed += daemon.stop().get("reload_errors", 0)
            daemon = Daemon(bins, image, files)
            setups.append(daemon.ready_s + edit(daemon, "setup%d" % i) / 1e3)
        # More edits than the editor can apply: it waits over a second (loadgen.h's
        # kEditGapNs) after each edit became visible before it starts the next.
        plan = maps.plan(int(seconds) + 1, "measured")
        summary = loadgen(bins, work, "churn", daemon.port, CHURN_RATE, seconds, requests_path,
                          ["--pid", str(daemon.proc.pid), "--plan", str(plan),
                           "--epoch-base", str(CHURN_SETUPS)])
        maps.truncate(CHURN_SETUPS + len(summary["edits"]))  # edits left unapplied
        # Sampled final answers: every sentinel plus random keys, after the churn.
        final_path = work / "final_requests.txt"
        sample = [[s] for s in maps.sentinels] + benchlib.uniform_requests(routes, seed + 1, 2000)
        write_requests(final_path, sample)
        final = loadgen(bins, work, "final", daemon.port, 2000, len(sample) / 2000,
                        final_path, ["--epoch-base", str(len(maps.sentinels))])
        rss = daemon.peak_rss_mib()
    finally:
        stats = daemon.stop() if daemon is not None else {}
    causes = collections.Counter(reload_errors=stats.get("reload_errors", 0))
    for k, outcome in enumerate(summary["edits"]):
        generation = CHURN_SETUPS + k + 1
        if outcome["visible_ms"] < 0:
            causes["edit_never_visible"] += 1
            continue
        visible.append((generation, outcome["visible_ms"], outcome["reply"]))
    oracles = maps.oracles(bins, local)
    for phase in (summary, final):
        attempted += phase["attempted"]
        causes.update(phase_failures(phase))
        causes["wrong_answer"] += check_replies(phase["replies_path"], oracles)
    attempted += len(visible)
    causes["wrong_sentinel_route"] += check_visible(oracles)
    failed += report_failures(causes)
    if not late_ok(summary):
        raise BenchError("load generator ran late: p99 %.0f us" %
                         benchlib.percentile(summary["late"], 99))
    measured = [ms for generation, ms, _ in visible if generation > CHURN_SETUPS]
    visible_p50 = statistics.median(measured)
    metric_line("churn_visible_p50_ms", visible_p50, "ms", "(%d edits)" % len(measured))
    latency_report("churn", CHURN_RATE, summary)
    metric_line("gen.late_p99_us", benchlib.percentile(summary["late"], 99), "us")
    return attempted, failed, {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": visible_p50,
        "peak_rss_mib": rss,
    }


WORKLOADS = {"map": map_workload, "serve": serve_workload, "churn": churn_workload}


def run_workload(name, args, bins, wanted):
    """Runs one workload; prints its metric lines and its JSON result line.
    Returns whether every output check passed, or None when the run failed
    before producing a result."""
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (name, args.seed, os.getpid()))
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        attempted, failed, figures = WORKLOADS[name](bins, work, args.seed, args.seconds,
                                                     args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        print("perfbench: %s: %s" % (name, error), file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A metric the workload should have measured and did not is an error, never a 0.
    names = [m["name"] for m in wanted]
    produced = TRACED[name] if args.trace else names
    missing = sorted(set(produced) - set(figures)) + sorted(set(produced) - set(names))
    if missing:
        print("perfbench: %s: metrics not produced or not in BENCHMARK.json: %s"
              % (name, ", ".join(missing)), file=sys.stderr)
        return None
    metrics = {}
    for spec_metric in wanted:
        value = float(figures[spec_metric["name"]]) if spec_metric["name"] in produced else 0.0
        metrics[spec_metric["name"]] = {"value": value, "unit": spec_metric["unit"]}
        metric_line(spec_metric["name"], value, spec_metric["unit"])
    failed = int(failed)
    metric_line("failed_ratio", failed / max(1, attempted), "ratio",
                "(%d of %d)" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": int(attempted), "failed": failed,
                      "metrics": metrics}), flush=True)
    return failed == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        bins = build()
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    log("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        log("workload %s" % name)
        outcomes.append(run_workload(name, args, bins, wanted))
    # A single workload exits 0 once it printed a result, correct or not; "all"
    # also fails when any workload's output check did not pass.
    if None in outcomes or (args.workload == "all" and not all(outcomes)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
