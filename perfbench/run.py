"""Run one lcdual benchmark workload, as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/` of
that checkout.  Each request's output is checked against an independent
oracle and against its fingerprint recorded at the seed commit.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With --trace 0 the loop measures whole blocks of requests until --seconds
have passed and reports the end-to-end metrics.  Times are reported at
reference speed (see `Speed`); the plain wall-clock figures are in the
`info` line before the result.  With --trace 1 it runs
one pass over the run's requests untraced, then the same pass traced, and
reports the per-layer metrics plus the tracing overhead; the spans are
written to `.perfbench/trace-<workload>-<seed>.json`.

    python3 perfbench/run.py --record [--workload NAME]

runs every request of the workloads' universes once, checks it, and
writes the fingerprints to `perfbench/fingerprints.json`.
"""

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from oracle import fingerprint, matrix_doc  # noqa: E402
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 15     # set-ups per run; setup_s is their median
REF_ITERS = 5000    # iterations of the reference loop
REF_S = 0.0019      # its median time on an idle 2-vCPU x86-64 VM, Python 3.11
REF_EVERY_S = 0.05  # the reference loop runs again once this much time has passed
REF_WINDOW = 7      # the speed is the median of this many latest reference times
COLD_STARTS = 20    # fresh `python -m lcdual.cli` processes per traced run; the best is reported
COLD_START_DOC = matrix_doc("kcategory", "int", ("v", "w", "x", "y"),
                            [[0, 2, 3, 1], [1, 0, 1, 2], [2, 2, 0, 3], [2, 1, 2, 0]])
MODULES = ("scalars", "lattices", "categories", "lconvex", "duality", "classify", "docfiles", "cli")


class BudgetExceeded(BaseException):
    """Raised by SIGALRM when a request runs over its budget.

    Not an Exception, so the program's own catch-all handlers let it pass.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def reference_loop():
    """Fixed pure-Python work (dicts, tuples, ints, strings) that does not
    touch lcdual, so its time follows the machine and not the program."""
    table, total = {}, 0
    for i in range(REF_ITERS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) * (i & 7)
    return total + len(table)


class Speed:
    """How fast the machine runs fixed work right now.

    Other tenants of a shared host slow every process on it by half or
    more for minutes at a time, and a run cannot wait that out.  The
    reference loop runs between requests, at least every REF_EVERY_S;
    a request's time is scaled by REF_S over the median of the latest
    reference times, which gives its time at reference speed.  The
    reference loop never calls the program, so a slower program still
    reads slower by the same share.
    """

    def __init__(self):
        self.times = deque(maxlen=REF_WINDOW)
        self.last = 0.0
        for _ in range(REF_WINDOW):
            self.sample()

    def sample(self):
        t0 = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def factor(self):
        """Multiplier from wall time now to time at reference speed."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.sample()
        return REF_S / statistics.median(self.times)


def import_program(names):
    """Import lcdual afresh from this checkout's src/; returns the modules."""
    for name in [m for m in sys.modules if m == "lcdual" or m.startswith("lcdual.")]:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)
    package = sys.modules["lcdual"]
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "lcdual"):
        raise SystemExit("lcdual was not imported from %s" % SRC)
    return SimpleNamespace(**{m: sys.modules["lcdual." + m] for m in MODULES
                              if "lcdual." + m in sys.modules})


def setup_once(wl, blocks, speed):
    """(wall seconds, seconds at reference speed, context) of one set-up."""
    for _ in range(REF_WINDOW):
        speed.sample()
    factor = speed.factor()
    t0 = time.perf_counter()
    lib = import_program(wl.imports)
    ctx = wl.setup(lib, blocks)
    seconds = time.perf_counter() - t0
    return seconds, seconds * factor, ctx


class Tally:
    """Latencies and outcomes of the requests run, in order."""

    def __init__(self, speed):
        self.speed = speed
        self.latencies = []   # at reference speed
        self.wall = []        # plain wall-clock latencies
        self.classes = []     # request class of each latency
        self.passed = []      # whether each request passed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0        # failures other than budget overruns
        self.failures = {}    # reason -> count
        self.examples = []
        self.fingerprinted = 0

    def fail(self, key, reason, wrong=True):
        self.failed += 1
        self.wrong += wrong
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if len(self.examples) < 5:
            self.examples.append("%s: %s" % (key, reason))


def run_request(wl, ctx, req, tally, expected, recorded=None):
    tally.attempted += 1
    factor = tally.speed.factor()
    t0 = time.perf_counter()
    out, reason, wrong = None, None, True
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.budget_s)
        try:
            out = wl.execute(ctx, req)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        reason, wrong = "over the %g s budget" % wl.budget_s, False
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - any raise is a failed request
        reason = "raised %s: %s" % (type(exc).__name__, str(exc)[:200])
    wall = time.perf_counter() - t0
    tally.wall.append(wall)
    tally.latencies.append(wall * factor)
    tally.classes.append(req.cls)
    if reason is None:
        try:
            reason, material = wl.check(ctx, req, out)
        except Exception as exc:  # noqa: BLE001 - a malformed output fails its check
            reason = "output not checkable: %s: %s" % (type(exc).__name__, exc)
        else:
            fp = fingerprint(material)
            if reason is None and req.key in expected:
                tally.fingerprinted += 1
                if fp != expected[req.key]:
                    reason = "output differs from the recorded fingerprint"
            if reason is None and recorded is not None:
                recorded[req.key] = fp
    tally.passed.append(reason is None)
    if reason is not None:
        tally.fail(req.key, reason, wrong)


def run_blocks(wl, ctx, blocks, tally, expected, seconds=None, tracer=None):
    """Whole blocks until `seconds` have passed, or one pass if None."""
    start = time.perf_counter()
    i = 0
    while True:
        for req in blocks[i % len(blocks)]:
            if tracer is not None:
                tracer.request = req.key
            run_request(wl, ctx, req, tally, expected)
        i += 1
        if seconds is None and i == len(blocks):
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return i


def tail(latencies, percentile):
    """(value, samples beyond it) at a percentile, by nearest rank."""
    lat = sorted(latencies)
    idx = min(max(math.ceil(percentile / 100 * len(lat)) - 1, 0), len(lat) - 1)
    return lat[idx], len(lat) - 1 - idx


def cold_start_ms(tally):
    """Best wall time of fresh `python -m lcdual.cli validate` processes on
    one fixed file, run one at a time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "cold-%d.txt" % os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(COLD_START_DOC)
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(COLD_STARTS):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "lcdual.cli", "validate", path],
                                  cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            tally.fail("cold_start", "cold start over 60 s", wrong=False)
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout != "valid\n":
            tally.fail("cold_start", "cold start exit %d" % proc.returncode)
    os.remove(path)
    return 1000 * min(times) if times else 60_000.0


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def load_fingerprints(name):
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


def benchmark(args):
    wl = workloads.make_workload(args.workload, ROOT)
    try:
        t0 = time.perf_counter()
        blocks = wl.blocks(random.Random(args.seed))
        gen_s = time.perf_counter() - t0
        expected = load_fingerprints(wl.name)
        speed = Speed()
        walls, setups = [], []
        for _ in range(SETUP_RUNS):
            wall, seconds, ctx = setup_once(wl, blocks, speed)
            walls.append(wall)
            setups.append(seconds)
        tally = Tally(speed)
        info = {"workload": wl.name, "seed": args.seed, "python": platform.python_version(),
                "nproc": os.cpu_count(), "src_lines": src_lines(), "input_gen_s": gen_s,
                "setup_runs_s": setups, "plain_setup_runs_s": walls,
                "requests_per_block": len(blocks[0])}
        if args.trace:
            metrics = traced_metrics(wl, ctx, blocks, tally, expected, info)
        else:
            metrics = end_to_end_metrics(wl, ctx, blocks, tally, expected, args.seconds, info)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        wl.close()
    info.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
                fingerprints_checked=tally.fingerprinted)
    for line in tally.examples:
        print("failed request %s" % line, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def end_to_end_metrics(wl, ctx, blocks, tally, expected, seconds, info):
    """Throughput and latency percentiles over every request of the run, at
    reference speed; the plain wall-clock figures go to `info`."""
    info["blocks_run"] = run_blocks(wl, ctx, blocks, tally, expected, seconds=seconds)
    lat, wall = tally.latencies, tally.wall
    tail_s, beyond = tail(lat, wl.TAIL_PERCENTILE)
    by_class = {}
    for cls, x in zip(tally.classes, lat):
        by_class.setdefault(cls, []).append(x)
    info.update(latency_samples=len(lat), tail_percentile=wl.TAIL_PERCENTILE,
                tail_samples_beyond=beyond,
                class_p50_ms={cls: 1000 * statistics.median(xs) for cls, xs in sorted(by_class.items())},
                speed_factor_p50=statistics.median(x / w for x, w in zip(lat, wall) if w),
                plain_throughput_ops_s=sum(tally.passed) / sum(wall),
                plain_latency_p50_ms=1000 * statistics.median(wall),
                plain_latency_tail_ms=1000 * tail(wall, wl.TAIL_PERCENTILE)[0])
    return {
        "throughput_ops_s": (sum(tally.passed) / sum(lat), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * tail_s, "ms"),
        "success_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_metrics(wl, ctx, blocks, tally, expected, info):
    run_blocks(wl, ctx, blocks, tally, expected)
    untraced_s = sum(tally.latencies)
    n = len(tally.latencies)
    tracer = Tracer()
    tracer.install([sys.modules[m] for m in sys.modules if m == "lcdual" or m.startswith("lcdual.")])
    try:
        run_blocks(wl, ctx, blocks, tally, expected, tracer=tracer)
    finally:
        tracer.uninstall()
    traced_s = sum(tally.latencies[n:])
    metrics = tracer.metrics()
    untraced, traced = n / untraced_s, (len(tally.latencies) - n) / traced_s
    metrics["trace.untraced_throughput_ops_s"] = (untraced, "1/s")
    metrics["trace.traced_throughput_ops_s"] = (traced, "1/s")
    metrics["trace.overhead_pct"] = (100 * (untraced / traced - 1), "%")
    metrics["cli.cold_start_ms"] = (cold_start_ms(tally), "ms")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-%d.json" % (wl.name, info["seed"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(info, requests=n, **tracer.report()), fh)
    info["trace_file"] = os.path.relpath(path, ROOT)
    return metrics


def record(names):
    """Run each workload's whole request universe once and store fingerprints."""
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name in names:
        wl = workloads.make_workload(name, ROOT)
        try:
            blocks = wl.all_blocks()
            speed = Speed()
            _, _, ctx = setup_once(wl, blocks, speed)
            tally, recorded = Tally(speed), {}
            for block in blocks:
                for req in block:
                    run_request(wl, ctx, req, tally, {}, recorded)
        finally:
            wl.close()
        if tally.failed:
            raise SystemExit("%s: %d requests failed, nothing recorded: %s"
                             % (name, tally.failed, "; ".join(tally.examples)))
        table[name] = dict(sorted(recorded.items()))
        print("%s: %d fingerprints" % (name, len(recorded)))
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record the fingerprints of the workloads' universes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcdual", "__init__.py")):
        print("error: no lcdual package under %s" % SRC, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.record:
        record([args.workload] if args.workload else workloads.NAMES)
    elif args.workload is None:
        parser.error("--workload is required")
    else:
        benchmark(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
