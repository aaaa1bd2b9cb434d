"""Checks of the benchmark itself, at tiny sizes (about ten seconds):

    python3 perfbench/selftest.py

1. Self times on a synthetic nested call: each span's self time is its
   inclusive time minus its traced children's, and the self times sum to
   the root span's inclusive time.
2. Output checks: a tiny real job passes against the true reference and
   is counted as a failure against a deliberately wrong one; a job that
   exits nonzero is a failure too.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import Recorder  # noqa: E402
import run  # noqa: E402


def check_self_time_arithmetic() -> None:
    now = [0.0]
    rec = Recorder(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    def leaf():
        tick(2.0)

    def middle():
        tick(1.0)
        leaf()
        leaf()
        tick(0.5)

    def root():
        tick(0.25)
        middle()
        leaf()

    leaf = rec.wrap("leaf", leaf)
    middle = rec.wrap("middle", middle)
    root = rec.wrap("root", root)
    root()
    spans = rec.spans
    assert spans["leaf"] == {"calls": 3, "s": 6.0, "self_s": 6.0}, spans
    assert spans["middle"] == {"calls": 1, "s": 5.5, "self_s": 1.5}, spans
    assert spans["root"] == {"calls": 1, "s": 7.75, "self_s": 0.25}, spans
    assert sum(v["self_s"] for v in spans.values()) == spans["root"]["s"]
    print("ok   self-time arithmetic on a synthetic nested call")


def check_output_checks() -> None:
    with run.scratch_dir("selftest-") as workdir:
        wl = run.WORKLOADS["diag-moment"]
        system = workdir / "system.json"
        system.write_text(json.dumps(wl.descriptor(random.Random(0))))
        argv = [sys.executable, "-m", "mdseries.cli"] + wl.argv(system, N=20000)
        done = run.run_process(argv, workdir)
        good = run.output_problems(wl, done.rc, done.stdout, wl.reference)
        assert good == [], (good, done.stderr)
        bad = run.output_problems(wl, done.rc, done.stdout, wl.reference + 1e-3)
        assert bad, "a wrong reference passed the check"
        print(f"ok   {wl.name} at N=20000 passes, and fails with a wrong reference: {bad[0]}")
        missing = run.run_process([sys.executable, "-m", "mdseries.cli", "moment",
                                   "--system", str(workdir / "absent.json"), "--q", "11"],
                                  workdir)
        assert run.output_problems(wl, missing.rc, missing.stdout,
                                   wl.reference) == ["exit code 1"]
        print("ok   a job exiting nonzero counts as a failure")


if __name__ == "__main__":
    check_self_time_arithmetic()
    check_output_checks()
