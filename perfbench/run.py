"""mdseries benchmark: closed-loop `mds` CLI jobs, one client, per workload.

    python3 perfbench/run.py --workload diag-moment --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

--trace 0 starts `python3 -m mdseries.cli` jobs one after another for
--seconds and reports job_s, setup_s, peak_rss_mb and ok_frac.  --trace 1
replays the same job in fresh processes through `mdseries.cli.main` with
--deterministic, alternately untraced and traced (see layertrace.py), and
reports the per-layer metrics.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable summary and the run's environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

JOB_TIMEOUT_S = 100.0      # a job still running after this is killed and failed
ZETA4 = math.pi ** 4 / 90


# ---------------------------------------------------------------------------
# workloads: descriptors from the seed, job arguments, output checks

def _primes(limit: int) -> list[int]:
    # the inputs are made without importing the package under test
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def _diag_descriptor(rng: random.Random) -> dict:
    return {"t": 2, "m": 1, "A": [[1, -1]], "omega": ["1"], "omega_prime": ["1"],
            "coefficients": [{"type": "trivial"}] * 2, "s": [[2, 0]] * 2}


def _twisted_hecke_descriptor(rng: random.Random) -> dict:
    lam = {str(p): rng.uniform(-2.0, 2.0) for p in _primes(10_000)}
    return {"t": 4, "m": 2, "A": [[1, 1, -1, 0], [0, 1, 1, -1]],
            "omega": ["6", "5"], "omega_prime": ["1", "3"],
            "coefficients": [{"type": "trivial"},
                             {"type": "character", "q": 7, "k": 2},
                             {"type": "hecke_gl2", "lambda": lam},
                             {"type": "tau"}],
            "s": [[2, 0]] * 4}


def check_twisted(doc: dict, reference: Optional[float]) -> list[str]:
    """No closed form: the two evaluators agree within ten summed tails."""
    tails = doc["direct_tail"] + doc["euler_tail"]
    if not doc["abs_diff"] <= max(10 * tails, 1e-12):   # NaN fails too
        return [f"abs_diff = {doc['abs_diff']:.3e} exceeds 10 * tails = {10 * tails:.3e}"]
    return []


def check_moment(doc: dict, reference: float) -> list[str]:
    """LHS equals zeta(4); errors fall strictly in q; fitted decay > 0.5."""
    problems = []
    err = abs(complex(*doc["lhs"]) - reference)
    if not err <= 1e-12:
        problems.append(f"|lhs - reference| = {err:.3e} exceeds 1e-12")
    errors = [doc["errors"][str(q)] for q in doc["q"]]
    if not all(a > b for a, b in zip(errors, errors[1:])):
        problems.append(f"errors do not decrease strictly in q: {errors}")
    if not (doc["eta_hat"] is not None and doc["eta_hat"] > 0.5):
        problems.append(f"eta_hat = {doc['eta_hat']} is not above 0.5")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    descriptor: Callable[[random.Random], dict]
    args: tuple            # mds arguments; the descriptor path follows --system
    check: Callable[[dict, Optional[float]], list[str]]
    reference: Optional[float]

    def argv(self, system: Path, **sizes) -> list[str]:
        """CLI arguments, with --N/--P/--q replaced by `sizes` if given."""
        argv = [self.args[0], "--system", str(system)]
        rest = list(self.args[1:])
        for i in range(0, len(rest), 2):
            key = rest[i].lstrip("-")
            argv += [rest[i], str(sizes.get(key, rest[i + 1]))]
        return argv


WORKLOADS = {w.name: w for w in [
    Workload("twisted-hecke-compare", _twisted_hecke_descriptor,
             ("compare", "--N", "1000", "--P", "10000"), check_twisted, None),
    Workload("diag-moment", _diag_descriptor,
             ("moment", "--q", "11,31,101", "--N", "100000"), check_moment, ZETA4),
]}


def output_problems(wl: Workload, rc: int, stdout: str,
                    reference: Optional[float]) -> list[str]:
    """Every reason the job's result is wrong; empty when it passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        doc = json.loads(stdout)
        problems = [] if doc["warnings"] == [] else [f"warnings: {doc['warnings']}"]
        return problems + wl.check(doc, reference)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# subprocesses

def job_env() -> dict:
    """The package comes from this checkout's src; no work-cap override."""
    env = dict(os.environ)
    env.pop("MDS_WORK_CAP", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    return env


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


@dataclass
class Finished:
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_process(argv: list[str], workdir: Path, timeout: float = JOB_TIMEOUT_S) -> Finished:
    """Run argv to completion; wall from spawn to exit, peak RSS of its
    process tree (the largest of the process and its waited-for children)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        # its own process group, so a kill reaches pool workers too
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir,
                                env=job_env(), start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall, usage.ru_maxrss / 1024,
                    out_path.read_text(), err_path.read_text())


SETUP_CODE = """\
import json, os, platform, sys
import numpy
import mdseries
from mdseries.descriptor import load_descriptor
load_descriptor(sys.argv[1])
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "nproc": os.cpu_count()}))
"""


def measure_setup(system: Path, workdir: Path) -> tuple[float, dict]:
    """Wall time of one import-and-load subprocess, and what it reports."""
    done = run_process([sys.executable, "-c", SETUP_CODE, str(system)], workdir)
    if done.rc != 0:
        raise RuntimeError(f"set-up subprocess failed ({done.rc}):\n{done.stderr}")
    return done.wall_s, json.loads(done.stdout)


# ---------------------------------------------------------------------------
# the two runs

def rounds(seconds: float):
    """Yield round numbers while a round of the median length so far still
    ends within `seconds` of the start; there is always at least one."""
    deadline = time.perf_counter() + seconds
    durations = []
    for n in itertools.count():
        t0 = time.perf_counter()
        yield n
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    info: dict


def untraced_run(wl: Workload, system: Path, workdir: Path, seconds: float) -> RunResult:
    argv = [sys.executable, "-m", "mdseries.cli"] + wl.argv(system)
    setup, walls, rss, failures = [], [], [], []
    for _ in rounds(seconds):
        # set-up is timed once before each job, so both sample the same stretch
        setup.append(measure_setup(system, workdir)[0])
        done = run_process(argv, workdir)
        walls.append(done.wall_s)
        rss.append(done.maxrss_mb)
        problems = output_problems(wl, done.rc, done.stdout, wl.reference)
        if problems:
            failures.append({"job": len(walls), "problems": problems,
                             "stderr": done.stderr[-2000:]})
    n = len(walls)
    # On a shared host jobs fall into a fast and a slow mode as other load
    # comes and goes; a run's median jumps between the modes, its mean moves
    # with the share of each, so job_s is the mean.
    metrics = {
        "job_s": (statistics.mean(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": ((n - len(failures)) / n, "ratio"),
    }
    info = dict(jobs=n, job_argv=argv[1:], job_s_all=walls,
                setup_s_all=setup, failed_frac=len(failures) / n, failures=failures)
    return RunResult(n, len(failures), metrics, info)


# (span, stat, unit) reported by the traced run, besides the two derived ones
LAYER_STATS = [
    ("variety.enumerate_box", "calls", "count"),
    ("variety.enumerate_box", "self_s", "s"),
    ("variety.enumerate_box", "points", "count"),
    ("variety.on_monomial_variety", "calls", "count"),
    ("variety.on_monomial_variety", "s", "s"),
    ("series.direct_sum", "calls", "count"),
    ("series.direct_sum", "self_s", "s"),
    ("series.euler_product", "calls", "count"),
    ("series.euler_product", "self_s", "s"),
    ("series.local_factor", "calls", "count"),
    ("series.local_factor", "s", "s"),
    ("variety.local_solutions", "calls", "count"),
    ("variety.local_solutions", "s", "s"),
    ("variety.local_solutions", "solutions", "count"),
    ("coefficients.prime_power", "calls", "count"),
    ("coefficients.prime_power", "s", "s"),
    ("coefficients.eval_product_coefficient", "calls", "count"),
    ("coefficients.eval_product_coefficient", "s", "s"),
    ("coefficients.value", "calls", "count"),
    ("coefficients.value", "s", "s"),
    ("coefficients.ramanujan_tau_table", "s", "s"),
    ("descriptor.load_descriptor", "s", "s"),
    ("momentlab.moment_rhs", "calls", "count"),
    ("momentlab.moment_rhs", "self_s", "s"),
    ("momentlab.decay_experiment", "self_s", "s"),
    ("arith.primes_up_to", "calls", "count"),
    ("arith.primes_up_to", "s", "s"),
    ("series.compare", "self_s", "s"),
    ("cli.main", "s", "s"),
    ("cli.main", "self_s", "s"),
]


def replay(wl: Workload, system: Path, workdir: Path, traced: bool) -> tuple[dict, list[str]]:
    out = workdir / "replay.json"
    argv = [sys.executable, str(HERE / "layertrace.py"), "--trace", str(int(traced)),
            "--out", str(out), "--"] + wl.argv(system) + ["--deterministic"]
    done = run_process(argv, workdir)
    if done.rc != 0:
        return {}, [f"replay exit code {done.rc}: {done.stderr[-2000:]}"]
    doc = json.loads(out.read_text())
    return doc, output_problems(wl, doc["rc"], doc["stdout"], wl.reference)


def traced_run(wl: Workload, system: Path, workdir: Path, seconds: float) -> RunResult:
    plain, traced, failures = [], [], []
    for pairs in rounds(seconds):
        # alternate which side of the pair runs first
        for is_traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            doc, problems = replay(wl, system, workdir, is_traced)
            if problems:
                failures.append({"traced": is_traced, "problems": problems})
            elif is_traced:
                traced.append(doc)
            else:
                plain.append(doc)
    attempted = len(plain) + len(traced) + len(failures)
    if not traced or not plain:
        return RunResult(attempted, len(failures), {}, {"failures": failures})

    def med(span: str, stat: str) -> float:
        return statistics.median(d["spans"].get(span, {}).get(stat, 0) for d in traced)

    metrics = {f"{span}.{stat}": (med(span, stat), unit) for span, stat, unit in LAYER_STATS}
    leaf_calls = metrics["variety.on_monomial_variety.calls"][0]
    metrics["variety.kept_per_leaf"] = (
        metrics["variety.enumerate_box.points"][0] / leaf_calls if leaf_calls else 0.0,
        "ratio")
    plain_wall = statistics.median(d["wall_s"] for d in plain)
    traced_wall = statistics.median(d["wall_s"] for d in traced)
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    last = traced[-1]["spans"]
    info = {"deterministic": True, "replays_traced": len(traced),
            "replays_untraced": len(plain), "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "self_s_sum_minus_root_s": sum(v["self_s"] for v in last.values())
            - last["cli.main"]["s"],
            "spans": last, "failures": failures}
    return RunResult(attempted, len(failures), metrics, info)


# ---------------------------------------------------------------------------

@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under WORK, removed with WORK (if then empty) on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    with scratch_dir(f"{wl.name}-") as workdir:
        system = workdir / "system.json"
        system.write_text(json.dumps(wl.descriptor(random.Random(seed))))
        _, env_info = measure_setup(system, workdir)   # untimed: fills the bytecode cache
        run = (traced_run if trace else untraced_run)(wl, system, workdir, seconds)
    run.info.update(env_info, workload=wl.name, seed=seed, trace=trace)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so run_process kills the job it waits for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mdseries" / "__init__.py").is_file():
        print(f"perfbench: no mdseries package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        print(json.dumps({"run": run.info}))
        for metric, (value, unit) in run.metrics.items():
            print(f"{name:24s} {metric:44s} {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{name:24s} {'failed_frac':44s} {run.info['failed_frac']:.6g} ratio")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
