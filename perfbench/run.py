#!/usr/bin/env python3
"""End-to-end benchmark of the PKA tool chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a PKA source checkout. The first run builds the real
`pka` CLI and the benchmark's tracer (`perfbench/trace.cc`) in Release
under `.bench_build/perfbench`; later runs reuse that build.

Workloads (the reason for each is in BENCHMARK.json):

  mlperf_analyze  `pka analyze gnmt_training --mlperf-scale 0.3`, then
                  `pka analyze ssd_training --mlperf-scale 0.1`.
  suite_sim       `pka simulate APP`, and `pka analyze APP` with a fresh
                  --cache-dir, for srad_v2, gramschmidt, sgemm and b+tree,
                  otherwise at default flags. simulate runs without a
                  store: its thousands of parallel record publishes
                  contend on the filesystem's cross-directory rename lock,
                  which makes its wall time bimodal (kernel time 0.3 s or
                  7 s for gramschmidt on ext4) and the figures unsteady.
  serve_replay    three closed-loop client connections (serve::Client, in
                  one process) replaying seeded campaign draws against a
                  `pka serve --cache-dir` daemon whose store the batch
                  CLI filled first.

A run starts with two untimed warm-up commands, then repeats passes of
its workload until --seconds are spent (at least three) and reports
medians of each command over the passes. Samples during which the
hypervisor stole guest CPU time are left out of the medians (see
calm()). With --trace 0 it prints the end-to-end metrics, taken from
the real `pka` binary. With --trace 1 it runs one untraced pass,
then the same work composed in-process from the library's public calls
with a span around each layer call, and prints the per-layer split. The
traced outputs must equal the untraced ones. Each command's or
campaign's outputs are checked against perfbench/expected.json and,
for serve, against the batch CLI. A mismatch counts as a failed
operation.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Lines before it are a readable report that also carries the
workload-specific figures (failed_frac, sample counts, host CPU count,
build type, seed, per-pass walls and stolen CPU share). The same report,
and a traced run's spans, are written to .bench_build/results/.
`--record` rewrites expected.json from the current build instead of
checking against it.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PKA = BUILD_DIR / "pka" / "tools" / "pka"
TRACER = BUILD_DIR / "pka_trace"
EXPECTED = BENCH_DIR / "expected.json"
RESULTS = ROOT / ".bench_build" / "results"
BUILD_TYPE = "Release"

MLPERF_CMDS = [("gnmt_training", "0.3"), ("ssd_training", "0.1")]
SUITE_APPS = ["srad_v2", "gramschmidt", "sgemm", "b+tree"]
SERVE_APPS = ["srad_v2", "gramschmidt", "lud_i", "nw", "gauss_208",
              "stencil", "fdtd2d", "scluster"]
SERVE_CLIENTS = 3
SERVE_PASS = 24          # campaigns per serve pass
SETUP_REPEATS = {"mlperf_analyze": 3, "suite_sim": 5, "serve_replay": 15}
CMD_TIMEOUT_S = 120
MIN_PASSES = 3
# On a shared host the hypervisor steals guest CPU time, and barrier-
# synchronised (SM-sharded) kernels then run several times slower. A
# sample during which more than this share of the guest's CPU time was
# stolen is disturbed; medians skip disturbed samples (see calm()).
STEAL_LIMIT = 0.05

END_TO_END_UNITS = {
    "wall_s": "s", "campaign_p50_s": "s", "campaign_p90_s": "s",
    "campaigns_per_s": "1/s", "sim_insts_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s", "pks_err_pct": "%",
    "pka_err_pct": "%", "pka_sim_speedup": "x",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class RunDir:
    """Scratch space for one run, inside the checkout."""

    def __init__(self, workload, seed, trace):
        self.path = (ROOT / ".bench_build" / "runs" /
                     f"{workload}-{seed}-{trace}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._n = 0

    def fresh(self, name):
        self._n += 1
        d = self.path / f"{self._n}-{name}"
        d.mkdir()
        return d

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: not inside a PKA source checkout "
            "(no CMakeLists.txt/src next to perfbench/)")
        return False
    jobs = str(min(4, cpu_count()))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "pka",
                  "pka_trace", "-j", jobs])
    for argv in steps:
        r = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT)
        if r.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(argv)}")
            return False
    return PKA.is_file() and TRACER.is_file()


def cpu_count():
    return len(os.sched_getaffinity(0))


def cpu_ticks():
    """(all, stolen) CPU ticks from /proc/stat. The stolen share over a
    run says how much of the host the hypervisor gave to other guests;
    wall-time figures from a run with a large share are noise."""
    try:
        with open("/proc/stat") as f:
            t = [int(x) for x in f.readline().split()[1:]]
        return sum(t), (t[7] if len(t) > 7 else 0)
    except OSError:
        return 0, 0


def steal_share(t0, t1):
    return (t1[1] - t0[1]) / (t1[0] - t0[0]) if t1[0] > t0[0] else 0.0


# ---------------------------------------------------------- subprocesses

class Result:
    def __init__(self, rc, wall, rss_mb, steal, out, err):
        self.rc, self.wall, self.rss_mb, self.steal = rc, wall, rss_mb, steal
        self.out, self.err = out, err


def run(argv, run_dir, stdin_text=None, timeout=CMD_TIMEOUT_S):
    """Run to completion; wall time includes exec and teardown, and the
    child's peak RSS comes from wait4."""
    err_path = run_dir.path / "stderr.txt"
    with open(err_path, "w+b") as err:
        ticks0 = cpu_ticks()
        t0 = time.perf_counter()
        p = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                             stdin=subprocess.PIPE if stdin_text else
                             subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, p.kill)
        timer.start()
        try:
            if stdin_text:
                p.stdin.write(stdin_text.encode())
                p.stdin.close()
            out = p.stdout.read()
        finally:
            _, status, ru = os.wait4(p.pid, 0)
            timer.cancel()
        wall = time.perf_counter() - t0
        ticks1 = cpu_ticks()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        err.seek(0)
        err_text = err.read().decode(errors="replace")
    return Result(p.returncode, wall, ru.ru_maxrss / 1024.0,
                  steal_share(ticks0, ticks1),
                  out.decode(errors="replace"), err_text)


class Daemon:
    """A `pka serve` process; start() times spawn-to-readiness."""

    def __init__(self, store):
        self.store = store
        self.proc, self.addr, self.setup_s = None, None, None

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(PKA), "serve", "--listen", "127.0.0.1:0", "--cache-dir",
             str(self.store)], cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        line = self.proc.stdout.readline().decode()
        timer.cancel()
        self.setup_s = time.perf_counter() - t0
        m = re.match(r"pka serve: listening on (\S+)", line)
        if not m:
            self.stop()
            return False
        self.addr = m.group(1)
        return True

    def stop(self):
        """SIGTERM (graceful drain) and reap; returns peak RSS in MB."""
        if self.proc is None:
            return 0.0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(30, self.proc.kill)
        timer.start()
        _, status, ru = os.wait4(self.proc.pid, 0)
        timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.proc = None
        return ru.ru_maxrss / 1024.0


# ---------------------------------------------------------- output parse

ANALYZE_RE = {
    "launches": r"^workload: \S+ on .* \((\d+) launches\)",
    "groups": r"^selection: (\d+) groups",
    "profiling": r"^selection: \d+ groups, (\S+) profiling",
    "silicon": r"^silicon:\s+(\S+) cycles",
    "pks": r"^PKS:\s+(\S+) projected",
    "pks_sim": r"^PKS:.*, (\S+) simulated",
    "pka": r"^PKA:\s+(\S+) projected",
    "pka_sim": r"^PKA:.*, (\S+) simulated",
}
FULL_RE = (r"^(full simulation: (\S+) cycles, IPC (\S+), DRAM util \S+% "
           r"\((\d+) launches)")


def parse_analyze(out):
    obs = {}
    for key, pat in ANALYZE_RE.items():
        m = re.search(pat, out, re.M)
        if not m:
            return None
        obs[key] = m.group(1)
    return obs


def parse_simulate(out):
    m = re.search(FULL_RE, out, re.M)
    if not m:
        return None
    return {"full": m.group(1), "cycles": m.group(2), "ipc": m.group(3)}


def full_prefix(cycles, ipc, dram, launches):
    """The deterministic prefix of `pka simulate`'s result line."""
    return ("full simulation: %.4e cycles, IPC %.1f, DRAM util %.1f%% "
            "(%d launches" % (cycles, ipc, dram, launches))


def serve_prefix(c):
    """A serve RESULT rendered as the batch CLI's prefix."""
    return full_prefix(float.fromhex(c["cycles"]), float.fromhex(c["ipc"]),
                       float.fromhex(c["dram"]), int(c["launches"]))


def err_pct(projected, reference):
    return 100.0 * abs(float(projected) - reference) / reference


# --------------------------------------------------------------- checks

class Ledger:
    """Operations attempted and failed, with why."""

    def __init__(self, expected, record):
        self.expected, self.record = expected, record
        self.attempted, self.failed, self.problems = 0, 0, []
        self.observed = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def check(self, section, key, obs, what):
        """Compare an observation with expected.json (or record it)."""
        if obs is None:
            return self.op(False, f"{what}: unparsable output")
        if self.record:
            self.observed.setdefault(section, {})[key] = obs
            return self.op(True, what)
        want = self.expected.get(section, {}).get(key)
        return self.op(want == obs,
                       f"{what}: got {obs}, expected {want}")


def command(ledger, run_dir, argv, parse, section, key, what):
    r = run(argv, run_dir)
    obs = parse(r.out) if r.rc == 0 else None
    if r.rc != 0:
        ledger.op(False, f"{what}: exit {r.rc}: {r.err.strip()[-300:]}")
    else:
        ledger.check(section, key, obs, what)
    return r, obs


# ------------------------------------------------------------ workloads

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Inclusive linear-interpolation quantile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def repeat_passes(seconds, one_pass):
    """Run whole passes while the next one still fits in `seconds`, and
    at least MIN_PASSES. While some command has no undisturbed sample
    yet, keep going for up to twice `seconds`."""
    t0 = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(len(passes)))
        spent = time.perf_counter() - t0
        if len(passes) < MIN_PASSES or spent + spent / len(passes) <= seconds:
            continue
        settled = all(min(s) <= STEAL_LIMIT
                      for s in zip(*[p["steals"] for p in passes]))
        if settled or spent + spent / len(passes) > 2 * seconds:
            return passes


def warm_up(ledger, run_dir):
    """Two untimed multi-threaded commands first: on a host whose idle
    vCPUs are slow to be rescheduled, the first parallel command after a
    pause runs on about one CPU."""
    for _ in range(2):
        command(ledger, run_dir,
                [PKA, "simulate", "srad_v2", "--cache-dir",
                 run_dir.fresh("warmup")],
                parse_simulate, "suite_sim/simulate", "srad_v2",
                "warm-up simulate srad_v2")


def batch_setup(ledger, run_dir, argv, repeats):
    """Start-up of the batch CLI: `pka list` materialises the workload
    registry every command starts from."""
    times = []
    for _ in range(repeats):
        r = run(argv, run_dir)
        ledger.op(r.rc == 0, f"{' '.join(map(str, argv[1:]))}: exit {r.rc}")
        times.append(r.wall)
    return median(times)


def latency_metrics(m, latencies, total_wall):
    m["campaign_p50_s"] = median(latencies)
    m["campaign_p90_s"] = quantile(latencies, 0.9)
    m["campaigns_per_s"] = len(latencies) / total_wall if total_wall else 0
    m["_samples"] = len(latencies)


def mlperf_pass(ledger, run_dir):
    walls, steals, rss, obs = [], [], [], {}
    for app, scale in MLPERF_CMDS:
        r, o = command(ledger, run_dir,
                       [PKA, "analyze", app, "--mlperf-scale", scale],
                       parse_analyze, "mlperf_analyze", app,
                       f"analyze {app} --mlperf-scale {scale}")
        walls.append(r.wall)
        steals.append(r.steal)
        rss.append(r.rss_mb)
        obs[app] = o
    return {"walls": walls, "steals": steals, "rss": max(rss), "obs": obs}


def mlperf_reference(ledger, run_dir, record):
    """Content-seeded full simulation of each MLPerf stream: the
    reference the PKS/PKA projections are scored against. Recorded in
    expected.json; --record recomputes it."""
    if not record:
        return ledger.expected["mlperf_reference"]
    ref = {}
    for app, scale in MLPERF_CMDS:
        r = run([PKA, "simulate", app, "--mlperf-scale", scale, "--force",
                 "--content-seed"], run_dir)
        o = parse_simulate(r.out) if r.rc == 0 else None
        ledger.op(o is not None, f"reference simulate {app}")
        if o:
            ref[app] = {"cycles": float(o["cycles"]), "ipc": float(o["ipc"])}
    ledger.observed["mlperf_reference"] = ref
    return ref


def accuracy(m, apps, analyses, full_cycles):
    """Mean |projection - full sim| / full sim over apps, and the PKA
    simulation speedup (full-sim cycles over PKA simulated cycles)."""
    ok = [a for a in apps if analyses.get(a) and full_cycles.get(a)]
    if not ok:
        return
    m["pks_err_pct"] = statistics.fmean(
        err_pct(analyses[a]["pks"], full_cycles[a]) for a in ok)
    m["pka_err_pct"] = statistics.fmean(
        err_pct(analyses[a]["pka"], full_cycles[a]) for a in ok)
    m["pka_sim_speedup"] = (sum(full_cycles[a] for a in ok) /
                            sum(float(analyses[a]["pka_sim"]) for a in ok))


def calm(samples, steals):
    """The undisturbed samples, or the less disturbed half when every
    sample was disturbed. Chosen by stolen time, never by the measured
    value."""
    limit = STEAL_LIMIT if min(steals) <= STEAL_LIMIT else median(steals)
    return [x for x, s in zip(samples, steals) if s <= limit]


def batch_metrics(m, passes):
    """Each command's wall is its median over the calm passes, so a pass
    in which one command was descheduled moves nothing; wall_s sums them
    and the latency percentiles run over them. Returns the per-command
    medians."""
    walls = list(zip(*[p["walls"] for p in passes]))
    steals = list(zip(*[p["steals"] for p in passes]))
    medians = [median(calm(w, s)) for w, s in zip(walls, steals)]
    m["wall_s"] = sum(medians)
    latency_metrics(m, medians, sum(medians))
    m["_samples"] = sum(len(calm(w, s)) for w, s in zip(walls, steals))
    m["peak_rss_mb"] = max(p["rss"] for p in passes)
    m["_pass_walls"] = [sum(p["walls"]) for p in passes]
    m["_command_walls"] = [p["walls"] for p in passes]
    m["_command_steals"] = [p["steals"] for p in passes]
    return medians


def run_mlperf(ledger, run_dir, seconds):
    m = {"setup_s": batch_setup(ledger, run_dir,
                                [PKA, "list", "--mlperf-scale", "0.3"],
                                SETUP_REPEATS["mlperf_analyze"])}
    ref = mlperf_reference(ledger, run_dir, ledger.record)
    passes = repeat_passes(seconds, lambda i: mlperf_pass(ledger, run_dir))
    batch_metrics(m, passes)
    insts = sum(ref[a]["cycles"] * ref[a]["ipc"] for a, _ in MLPERF_CMDS
                if a in ref)
    m["sim_insts_per_s"] = insts / m["wall_s"]
    accuracy(m, [a for a, _ in MLPERF_CMDS], passes[-1]["obs"],
             {a: ref[a]["cycles"] for a in ref})
    return m, passes


def suite_pass(ledger, run_dir):
    walls, steals, insts, rss = [], [], 0.0, []
    sims, analyses = {}, {}
    for app in SUITE_APPS:
        r, o = command(ledger, run_dir, [PKA, "simulate", app],
                       parse_simulate, "suite_sim/simulate", app,
                       f"simulate {app}")
        walls.append(r.wall)
        steals.append(r.steal)
        rss.append(r.rss_mb)
        if o:
            sims[app] = o
            insts += float(o["cycles"]) * float(o["ipc"])
        r, o = command(ledger, run_dir,
                       [PKA, "analyze", app, "--cache-dir",
                        run_dir.fresh("analyze")],
                       parse_analyze, "suite_sim/analyze", app,
                       f"analyze {app}")
        walls.append(r.wall)
        steals.append(r.steal)
        rss.append(r.rss_mb)
        analyses[app] = o
    return {"walls": walls, "steals": steals, "rss": max(rss), "sims": sims,
            "analyses": analyses, "insts": insts}


def run_suite(ledger, run_dir, seconds):
    m = {"setup_s": batch_setup(ledger, run_dir, [PKA, "list"],
                                SETUP_REPEATS["suite_sim"])}
    passes = repeat_passes(seconds, lambda i: suite_pass(ledger, run_dir))
    medians = batch_metrics(m, passes)
    last = passes[-1]
    # Commands alternate simulate, analyze per app.
    m["sim_insts_per_s"] = last["insts"] / sum(medians[0::2])
    accuracy(m, SUITE_APPS, last["analyses"],
             {a: float(s["cycles"]) for a, s in last["sims"].items()})
    return m, passes


def serve_prepare(ledger, run_dir, with_analyze=True):
    """Fill a store with the batch CLI and keep its `full simulation:`
    lines (the bit-for-bit reference for every RESULT) and its analyze
    projections (scored against the daemon's full simulations)."""
    store = run_dir.fresh("store")
    batch, analyses = {}, {}
    for app in SERVE_APPS:
        _, o = command(ledger, run_dir,
                       [PKA, "simulate", app, "--cache-dir", store],
                       parse_simulate, "serve_replay/simulate", app,
                       f"populate {app}")
        batch[app] = o
        if not with_analyze:
            continue
        _, o = command(ledger, run_dir, [PKA, "analyze", app],
                       parse_analyze, "serve_replay/analyze", app,
                       f"analyze {app}")
        analyses[app] = o
    return store, batch, analyses


def serve_setup(ledger, run_dir, store, repeats):
    """Spawn-to-readiness of the daemon, `repeats` times; the last
    daemon stays up for the load."""
    times = []
    for i in range(repeats):
        d = Daemon(store)
        if not ledger.op(d.start(), "pka serve did not become ready"):
            return None, median(times)
        times.append(d.setup_s)
        if i + 1 < repeats:
            d.stop()
    return d, median(times)


def serve_load(ledger, run_dir, daemon, names, clients, seconds, batch):
    r = run([TRACER, "serve-load", daemon.addr, clients, SERVE_PASS,
             seconds], run_dir, stdin_text="\n".join(names) + "\n",
            timeout=seconds + 90)
    if not ledger.op(r.rc == 0, f"serve-load: exit {r.rc}: {r.err[-300:]}"):
        return None
    lines = [json.loads(x) for x in r.out.splitlines() if x.startswith("{")]
    camps = [x for x in lines if x["type"] == "campaign"]
    for c in camps:
        what = f"serve RUN {c['app']}"
        if c["verb"] != "RESULT":
            ledger.op(False, f"{what}: {c['verb'] or 'no reply'} "
                             f"{c['error']}")
            continue
        if c["failed"] != "0" or c["quorum"] != "1":
            ledger.op(False, f"{what}: failed={c['failed']} "
                             f"quorum={c['quorum']}")
            continue
        obs = {"prefix": serve_prefix(c), "cycles": c["cycles"],
               "insts": c["insts"]}
        ref = batch.get(c["app"])
        if ref and obs["prefix"] != ref["full"]:
            ledger.op(False, f"{what}: '{obs['prefix']}' differs from "
                             f"batch '{ref['full']}'")
            continue
        if ledger.record and c["app"] in ledger.observed.get(
                "serve_replay/result", {}):
            continue  # record each app once
        ledger.check("serve_replay/result", c["app"], obs, what)
    stats = {x["when"]: x for x in lines if x["type"] == "stats"}
    return {"campaigns": camps,
            "passes": [x for x in lines if x["type"] == "pass"],
            "stats": stats}


def campaign_draw(seed, n):
    rng = random.Random(seed)
    return [rng.choice(SERVE_APPS) for _ in range(n)]


def run_serve(ledger, run_dir, seconds, seed):
    store, batch, analyses = serve_prepare(ledger, run_dir)
    daemon, setup = serve_setup(ledger, run_dir, store,
                                SETUP_REPEATS["serve_replay"])
    m = {"setup_s": setup}
    if daemon is None:
        return m, None
    # Enough draws that the time limit, not the list, ends the run.
    load = serve_load(ledger, run_dir, daemon, campaign_draw(seed, 4000),
                      SERVE_CLIENTS, seconds, batch)
    m["peak_rss_mb"] = daemon.stop()
    if load is None or not load["passes"]:
        return m, load
    passes = load["passes"]
    kept = calm(passes, [p["steal"] for p in passes])
    walls = [p["wall"] for p in kept]
    m["wall_s"] = median(walls)
    ids = {p["pass"] for p in kept}
    ok = [c for c in load["campaigns"]
          if c["verb"] == "RESULT" and c["pass"] in ids]
    latency_metrics(m, [c["result"] - c["send"] for c in ok], sum(walls))
    m["sim_insts_per_s"] = (sum(float.fromhex(c["insts"]) for c in ok) /
                            sum(walls))
    accuracy(m, SERVE_APPS, analyses,
             {a: float(b["cycles"]) for a, b in batch.items() if b})
    m["_pass_walls"] = [p["wall"] for p in passes]
    m["_pass_steals"] = [p["steal"] for p in passes]
    return m, load


# -------------------------------------------------------------- tracing

def load_spans(path):
    with open(path) as f:
        return json.load(f)


def span_totals(spans):
    """Seconds per span name, and the time covered by layer spans (the
    direct children of each command or campaign root, minus the
    benchmark's own key counting)."""
    totals, covered = {}, 0.0
    roots = {s["id"] for s in spans if s["name"] in ("command", "campaign")}
    for s in spans:
        d = s["end"] - s["start"]
        totals[s["name"]] = totals.get(s["name"], 0.0) + d
        if s["parent"] in roots and not s["name"].startswith("trace."):
            covered += d
    return totals, covered


def traced_batch(ledger, run_dir, cmds, cache_root, spans_path):
    r = run([TRACER, "batch", spans_path, cache_root] + cmds, run_dir,
            timeout=150)
    if not ledger.op(r.rc == 0, f"traced run: exit {r.rc}: {r.err[-300:]}"):
        return None, None, None
    lines = [json.loads(x) for x in r.out.splitlines() if x.startswith("{")]
    commands = [x for x in lines if x["type"] == "command"]
    counters = next(x for x in lines if x["type"] == "counters")
    return commands, counters, load_spans(spans_path)


def traced_analyze_obs(c):
    return {"launches": str(c["launches"]), "groups": str(c["groups"]),
            "profiling": "two-level" if c["two_level"] else "detailed",
            "silicon": "%.4e" % c["silicon_cycles"],
            "pks": "%.4e" % c["pks_projected"],
            "pks_sim": "%.3e" % c["pks_simulated"],
            "pka": "%.4e" % c["pka_projected"],
            "pka_sim": "%.3e" % c["pka_simulated"]}


def traced_simulate_obs(c):
    return full_prefix(c["cycles"], c["ipc"], c["dram"], c["launches"])


def compare_traced(ledger, commands, untraced):
    """The composed calls must reproduce the untraced commands."""
    for c, (kind, app, obs) in zip(commands, untraced):
        if obs is None:
            continue
        got = (traced_analyze_obs(c) if kind == "analyze"
               else traced_simulate_obs(c))
        want = obs if kind == "analyze" else obs["full"]
        ledger.op(got == want, f"traced {kind} {app}: {got} != {want}")


def layer_metrics(counters, totals, covered, untraced_wall):
    c = counters
    launches = c["launches"]
    insts = c["sim_warp_insts"]
    hits, elaunch = c["engine_hits"], c["engine_launches"]
    return {
        "workload.build_s": totals.get("workload.build", 0.0),
        "workload.free_s": totals.get("workload.free", 0.0),
        "workload.launches": launches,
        "workload.distinct_key_frac":
            c["distinct_keys"] / launches if launches else 0.0,
        "silicon.run_s": totals.get("silicon.run", 0.0),
        "silicon.cost_s": totals.get("silicon.cost", 0.0),
        "silicon.detailed_profile_s":
            totals.get("silicon.detailed_profile", 0.0),
        "silicon.light_profile_s": totals.get("silicon.light_profile", 0.0),
        "silicon.profiled_launches": c["profiled_launches"],
        "core.pks_s": totals.get("core.pks", 0.0),
        "core.pks_groups": c["pks_groups"],
        "core.two_level_s": totals.get("core.two_level", 0.0),
        "core.two_level.classified": c["classified"],
        "core.two_level.abstentions": c["abstentions"],
        "core.two_level.fallback_mapped": c["fallback_mapped"],
        "core.pkp.sim_cycle_ratio":
            c["pka_sim_cycles"] / c["pks_sim_cycles"]
            if c["pks_sim_cycles"] else 0.0,
        "sim.engine.start_s": totals.get("sim.engine.start", 0.0),
        "sim.engine.wall_s": c["engine_wall_s"],
        "sim.engine.busy_s": c["engine_busy_s"],
        "sim.engine.busy_frac": c["engine_busy_frac"],
        "sim.engine.hit_ratio": hits / elaunch if elaunch else 0.0,
        "sim.engine.misses": c["engine_misses"],
        "sim.engine.sharded_launches": c["sharded_launches"],
        "sim.engine.shard_busy_frac": c["shard_busy_frac"],
        "sim.cycles": c["sim_cycles"],
        "sim.warp_insts": insts,
        "sim.host_ns_per_warp_inst":
            1e9 * c["engine_busy_s"] / insts if insts else 0.0,
        "store.open_s": totals.get("store.open", 0.0),
        "store.hits": c["store_hits"],
        "store.misses": c["store_misses"],
        "store.puts": c["store_puts"],
        "store.bytes_read": c["store_bytes_read"],
        "store.bytes_written": c["store_bytes_written"],
        "store.io_retries": c["store_io_retries"],
        "store.put_failures": c["store_put_failures"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.covered_s": covered,
        "trace.coverage": covered / untraced_wall if untraced_wall else 0.0,
    }


SERVE_LAYER_KEYS = ["serve.first_event_s", "serve.result_s",
                    "serve.cache_hits", "serve.store_hits",
                    "serve.cache_misses", "serve.peak", "serve.rejected"]


def trace_batch_workload(ledger, run_dir, workload, spans_path):
    if workload == "mlperf_analyze":
        p = mlperf_pass(ledger, run_dir)
        untraced = [("analyze", a, p["obs"][a]) for a, _ in MLPERF_CMDS]
        cmds = [f"analyze:{a}:{s}" for a, s in MLPERF_CMDS]
        cache_root = ""
    else:
        p = suite_pass(ledger, run_dir)
        untraced = []
        cmds = []
        for app in SUITE_APPS:
            untraced += [("simulate", app, p["sims"].get(app)),
                         ("analyze", app, p["analyses"].get(app))]
            cmds += [f"simulate:{app}:0.02", f"analyze:{app}:0.02:cache"]
        cache_root = str(run_dir.fresh("traced"))
    commands, counters, spans = traced_batch(ledger, run_dir, cmds,
                                             cache_root, spans_path)
    if commands is None:
        return {}
    compare_traced(ledger, commands, untraced)
    totals, covered = span_totals(spans)
    m = layer_metrics(counters, totals, covered, sum(p["walls"]))
    m.update({k: 0.0 for k in SERVE_LAYER_KEYS})
    return m


def trace_serve(ledger, run_dir, seed, spans_path):
    store, batch, _ = serve_prepare(ledger, run_dir, with_analyze=False)
    names = campaign_draw(seed, SERVE_PASS)
    # Each pass gets a fresh daemon, so both start on disk hits and turn
    # to memory hits. Three clients give the protocol's split under
    # contention; one client is the untraced, serial twin of the
    # composed replay below.
    runs = {}
    for clients in (SERVE_CLIENTS, 1):
        daemon, _ = serve_setup(ledger, run_dir, store, 1)
        if daemon is None:
            return {}
        runs[clients] = serve_load(ledger, run_dir, daemon, names, clients,
                                   0, batch)
        daemon.stop()
    loaded, serial = runs[SERVE_CLIENTS], runs[1]
    if serial is None or loaded is None:
        return {}
    r = run([TRACER, "serve-compose", spans_path, store,
             run_dir.fresh("journals")], run_dir,
            stdin_text="\n".join(names) + "\n", timeout=150)
    if not ledger.op(r.rc == 0, f"serve-compose: exit {r.rc}"):
        return {}
    lines = [json.loads(x) for x in r.out.splitlines() if x.startswith("{")]
    counters = next(x for x in lines if x["type"] == "counters")
    for c, name in zip([x for x in lines if x["type"] == "command"], names):
        got = traced_simulate_obs(c)
        ref = batch.get(name)
        ledger.op(ref is not None and got == ref["full"],
                  f"composed campaign {name}: {got}")
    totals, covered = span_totals(load_spans(spans_path))
    untraced = sum(c["result"] - c["send"] for c in serial["campaigns"])
    m = layer_metrics(counters, totals, covered, untraced)
    ok = [c for c in loaded["campaigns"] if c["verb"] == "RESULT"]
    before, after = loaded["stats"]["before"], loaded["stats"]["after"]
    m.update({
        "serve.first_event_s":
            median([c["first_event"] - c["send"] for c in ok
                    if c["first_event"] >= 0]),
        "serve.result_s":
            median([c["result"] - c["first_event"] for c in ok
                    if c["first_event"] >= 0]),
        "serve.cache_hits": after["cache_hits"] - before["cache_hits"],
        "serve.store_hits": after["store_hits"] - before["store_hits"],
        "serve.cache_misses": after["cache_misses"] - before["cache_misses"],
        "serve.peak": after["peak"],
        "serve.rejected": after["rejected"] - before["rejected"],
    })
    return m


# ---------------------------------------------------------------- main

def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", ".coverage")):
        return "ratio"
    if name.endswith(".cycles"):
        return "cycles"
    if "bytes" in name:
        return "bytes"
    if "_ns_" in name:
        return "ns"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["mlperf_analyze", "suite_sim", "serve_replay"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from this build")
    args = ap.parse_args()

    if not build():
        return 2
    expected = {}
    if not args.record:
        if not EXPECTED.is_file():
            log(f"perfbench: missing {EXPECTED}")
            return 2
        expected = json.loads(EXPECTED.read_text())
    ledger = Ledger(expected, args.record)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS / f"{stem}.spans.json"
    run_dir = RunDir(args.workload, args.seed, args.trace)
    ticks0 = cpu_ticks()
    try:
        warm_up(ledger, run_dir)
        if args.trace:
            if args.workload == "serve_replay":
                metrics = trace_serve(ledger, run_dir, args.seed, spans)
            else:
                metrics = trace_batch_workload(ledger, run_dir,
                                               args.workload, spans)
            units = {k: layer_unit(k) for k in metrics}
        else:
            runner = {"mlperf_analyze": lambda: run_mlperf(
                          ledger, run_dir, args.seconds),
                      "suite_sim": lambda: run_suite(
                          ledger, run_dir, args.seconds),
                      "serve_replay": lambda: run_serve(
                          ledger, run_dir, args.seconds, args.seed)}
            metrics, _ = runner[args.workload]()
            units = dict(END_TO_END_UNITS)
    finally:
        run_dir.remove()
    steal = steal_share(ticks0, cpu_ticks())

    extras = {k: v for k, v in metrics.items() if k.startswith("_")}
    metrics = {k: v for k, v in metrics.items() if not k.startswith("_")}
    for k in units:
        metrics.setdefault(k, 0.0)
    if args.record:
        merged = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() \
            else {}
        merged.update(ledger.observed)
        EXPECTED.write_text(json.dumps(merged, indent=1, sort_keys=True) +
                            "\n")
        log(f"perfbench: recorded {EXPECTED}")

    attempted = max(ledger.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host_cpus": cpu_count(), "build_type": BUILD_TYPE,
        "host_steal_frac": steal,
        "pass_walls_s": extras.get("_pass_walls", []),
        "command_walls_s": extras.get("_command_walls", []),
        "command_steal_frac": extras.get("_command_steals", []),
        "pass_steal_frac": extras.get("_pass_steals", []),
        "campaign_samples": extras.get("_samples", 0),
        "failed_frac": ledger.failed / attempted,
        "problems": ledger.problems,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1) +
                                         "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host_cpus={report['host_cpus']} build={BUILD_TYPE} "
          f"steal={steal:.3f} "
          f"passes={len(report['pass_walls_s'])} "
          f"campaign_samples={report['campaign_samples']}")
    for k, v in report["metrics"].items():
        print(f"{k:32s} {v['value']:.6g} {v['unit']}")
    print(f"{'failed_frac':32s} {report['failed_frac']:.6g} ratio")
    for p in ledger.problems:
        print(f"FAILED: {p}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
