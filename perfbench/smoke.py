"""Smoke test of the benchmark's own checks.

    python3 perfbench/smoke.py

Runs a few requests with the program patched in memory and shows that
  - unpatched, every request passes its oracle and fingerprint checks;
  - a corrupted output is caught, by the oracle or by the fingerprint;
  - a real-kind closure that switches int payloads to floats of the same
    value is not reported as a wrong answer;
  - a wrong exit code is caught;
  - a request over its budget is counted as failed, not as wrong.
Exits non-zero if any of these does not hold.  Takes a few seconds.
"""

import os
import re
import signal
import sys

import run
import workloads


def requests(wl, classes, limit):
    reqs = [r for block in wl.all_blocks() for r in block if r.cls in classes]
    return reqs[:limit]


def outcome(wl, ctx, reqs, expected):
    tally = run.Tally(run.Speed())
    for req in reqs:
        run.run_request(wl, ctx, req, tally, expected)
    return tally


def expect(ok, message):
    print("%s: %s" % ("ok" if ok else "FAILED", message))
    if not ok:
        raise SystemExit(1)


def corrupt(text):
    """Add one to the value of the last matrix entry."""
    def bump(mo):
        value = mo.group(2)
        return mo.group(1) + ("0" if value in ("inf", "-inf") else str(int(float(value)) + 1))
    head, sep, last = text.rstrip("\n").rpartition("\n")
    return head + sep + re.sub(r"^((?:d|hom): \S+ \S+ )(\S+)$", bump, last) + "\n"


def main():
    if not os.path.isfile(os.path.join(run.SRC, "lcdual", "__init__.py")):
        raise SystemExit("no lcdual package under %s" % run.SRC)
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    signal.signal(signal.SIGALRM, run._on_alarm)

    cli = workloads.make_workload("cli_small", run.ROOT)
    build = workloads.make_workload("dbm_build", run.ROOT)
    try:
        cli_reqs = requests(cli, {"dual", "closure", "hull", "malformed", "validate_bad"}, 200)
        cli_fp = run.load_fingerprints("cli_small")
        _, _, ctx = run.setup_once(cli, [cli_reqs], run.Speed())
        lib = ctx["lib"]

        tally = outcome(cli, ctx, cli_reqs, cli_fp)
        expect(tally.failed == 0 and tally.fingerprinted == len(cli_reqs),
               "unpatched: %d requests pass, all fingerprinted" % len(cli_reqs))

        emit = lib.docfiles.emit_document
        lib.docfiles.emit_document = lambda doc: corrupt(emit(doc))
        try:
            tally = outcome(cli, ctx, requests(cli, {"dual"}, 20), cli_fp)
        finally:
            lib.docfiles.emit_document = emit
        expect(tally.wrong == 20 and set(tally.failures) == {"output differs from the recorded fingerprint"},
               "corrupted dual output: 20 of 20 caught by the fingerprint")

        real_closures = [r for r in requests(cli, {"closure"}, 200)
                         if "scalar: real" in open(r.data["argv"][1], encoding="utf-8").read()]
        closure = lib.lconvex.closure

        def float_payloads(c):
            D = closure(c)
            rows = tuple(tuple(lib.scalars.fin(float(x.value)) if x.is_fin else x for x in row)
                         for row in D.dbm)
            return lib.lconvex.LConvexSet(D.scalar_kind, D.index, rows)

        lib.cli.closure = float_payloads
        try:
            switched = [cli.execute(ctx, r)[1] for r in real_closures]
            tally = outcome(cli, ctx, real_closures, cli_fp)
        finally:
            lib.cli.closure = closure
        plain = [cli.execute(ctx, r)[1] for r in real_closures]
        expect(real_closures and switched != plain and tally.failed == 0,
               "int-to-float payload switch on %d real closures: output text changes, "
               "no failure" % len(real_closures))

        main_ = lib.cli.main
        lib.cli.main = lambda argv: 0
        try:
            bad = requests(cli, {"malformed", "validate_bad"}, 20)
            tally = outcome(cli, ctx, bad, cli_fp)
        finally:
            lib.cli.main = main_
        expect(tally.wrong == len(bad), "wrong exit codes: %d of %d caught" % (tally.wrong, len(bad)))

        reqs = requests(build, {"n32"}, 1)
        build_fp = run.load_fingerprints("dbm_build")
        _, _, bctx = run.setup_once(build, [reqs], run.Speed())
        blib = bctx["lib"]
        emit = blib.docfiles.emit_document
        blib.docfiles.emit_document = lambda doc: corrupt(emit(doc))
        try:
            tally = outcome(build, bctx, reqs, build_fp)
        finally:
            blib.docfiles.emit_document = emit
        expect(tally.wrong == 1 and not tally.fingerprinted,
               "corrupted dbm_build output: caught by the oracle (%s)" % ", ".join(tally.failures))

        build.budget_s = 0.05
        tally = outcome(build, bctx, reqs, build_fp)
        expect(tally.failed == 1 and tally.wrong == 0, "budget overrun: failed, not wrong")
    finally:
        cli.close()
        build.close()


if __name__ == "__main__":
    main()
