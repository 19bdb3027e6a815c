"""Benchmark of the trifourier command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.  Every
CLI invocation runs in a fresh interpreter, one at a time (a closed loop
with one client), and its output is checked by perfbench/checks.py, which
does not import the program.

--trace 0 repeats whole rounds of the workload's invocations (set-up among
them) while another round should end within S seconds, and prints the
end-to-end metrics: medians per invocation, summed by kind.  The machine's
speed drifts by a quarter and more within seconds, so the verify and export
times are reported relative to a reference computation (perfbench/reference.py)
that runs before the first invocation and after each one: each invocation's
time is divided by the mean of the two reference times around it.  --trace 1
runs one untraced round and then the traced pass (perfbench/traced.py) and
prints the per-layer metrics.  The last line of standard output is the result
as JSON.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, for steady timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import IDENTITY_BASIS, WORKLOADS, Op, Workload

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_out"
TIMEOUT_S = 150  # a hung invocation is killed and counted as failed


@dataclass
class Outcome:
    rc: int
    out: str
    err: str
    seconds: float
    maxrss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def count(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_python(args: list[str]) -> Outcome:
    """Run the interpreter on args; wall time and peak RSS of that one child."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        reaped = threading.Event()

        def kill() -> None:
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            reaped.set()
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        proc.returncode,
        out_path.read_text("utf-8"),
        err_path.read_text("utf-8", errors="replace"),
        seconds,
        usage.ru_maxrss / 1024,  # KiB on Linux
    )


def run_op(op: Op, rng: random.Random, tally: Tally) -> Outcome:
    res = run_python(list(op.argv))
    try:
        op.check(res.rc, res.out, rng)
        problem = None
    except Exception as exc:  # any exception while checking means the output is wrong
        problem = f"{type(exc).__name__}: {exc}" + (f"\n{res.err[-500:]}" if res.err else "")
    tally.count(op.label, problem)
    return res


def run_reference() -> float:
    """Wall time of one run of the reference computation."""
    res = run_python([str(ROOT / "perfbench" / "reference.py")])
    if res.rc != 0:
        raise RuntimeError(f"reference computation failed with exit {res.rc}\n{res.err[-1000:]}")
    return res.seconds


@dataclass
class Samples:
    seconds: list[float]  # wall time of each run of the invocation
    relative: list[float]  # the same, each divided by the mean of the reference runs around it


def run_rounds(wl: Workload, seconds: float, rng: random.Random, tally: Tally) -> tuple[dict[Op, Samples], list[float], float, int]:
    """Whole rounds of the workload while one more round should end within `seconds`.

    At least one round runs.  The reference runs before the first invocation
    and after each one.  Returns the samples of each distinct invocation, the
    reference times, the peak RSS and the number of rounds.
    """
    distinct = {op.label: op for op in wl.ops}
    samples = {op: Samples([], []) for op in distinct.values()}
    refs = [run_reference()]
    peak = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        for op in wl.ops:
            res = run_op(op, rng, tally)
            refs.append(run_reference())
            sample = samples[distinct[op.label]]
            sample.seconds.append(res.seconds)
            sample.relative.append(res.seconds / ((refs[-2] + refs[-1]) / 2))
            if op.kind != "setup":
                peak = max(peak, res.maxrss_mb)
        rounds += 1
    return samples, refs, peak, rounds


def median_by_kind(samples: dict[Op, Samples], kind: str, relative: bool = False) -> float:
    """Sum over the distinct invocations of one kind of their median times."""
    return sum(
        statistics.median(s.relative if relative else s.seconds) for op, s in samples.items() if op.kind == kind
    )


def measure(wl: Workload, seconds: float, rng: random.Random, tally: Tally) -> dict[str, tuple[float, str]]:
    samples, refs, peak, rounds = run_rounds(wl, seconds, rng, tally)
    print(f"{rounds} round(s); reference median {statistics.median(refs):.3f} s ({len(refs)} runs)", file=sys.stderr)
    for op, s in samples.items():
        print(
            f"  {op.kind:6} {statistics.median(s.seconds):8.3f} s {statistics.median(s.relative):8.3f} ref"
            f"  ({len(s.seconds)} runs)  {op.label}",
            file=sys.stderr,
        )
    for kind in ("verify", "export"):
        print(f"  {kind} total {median_by_kind(samples, kind):.3f} s", file=sys.stderr)
    return {
        "verify_rel": (median_by_kind(samples, "verify", relative=True), "ref"),
        "export_rel": (median_by_kind(samples, "export", relative=True), "ref"),
        "setup_s": (median_by_kind(samples, "setup"), "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def trace(name: str, wl: Workload, seed: int, rng: random.Random, tally: Tally) -> dict[str, tuple[float, str]]:
    samples, _, _, _ = run_rounds(wl, 0, rng, tally)
    untraced = sum(statistics.median(s.seconds) for op, s in samples.items() if op.kind != "setup")
    out_path = WORK / f"trace-{name}-{seed}.json"
    out_path.unlink(missing_ok=True)
    res = run_python([str(ROOT / "perfbench" / "traced.py"), "--workload", name, "--seed", str(seed), "--out", str(out_path)])
    if res.rc != 0 or not out_path.exists():
        tally.count("traced pass", f"exit {res.rc}\n{res.err[-1000:]}")
        return {}
    doc = json.loads(out_path.read_text("utf-8"))
    for op in doc["ops"]:
        tally.count(f"traced {op['label']}", op["problem"])
    traced = sum(op["seconds"] for op in doc["ops"])
    print(f"traced ops {traced:.3f} s, untraced ops {untraced:.3f} s; spans in {out_path.name}", file=sys.stderr)
    metrics = {k: (v, unit) for k, (v, unit) in doc["metrics"].items()}
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds through run_python, which then kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "trifourier" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'trifourier'} is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    (ROOT / IDENTITY_BASIS).write_text(json.dumps(checks.identity_basis_s5()), "utf-8")
    run_python(["-c", "import trifourier.cli, numpy"])  # writes bytecode caches; not timed

    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    tally = Tally()
    if args.trace:
        metrics = trace(args.workload, wl, args.seed, rng, tally)
    else:
        metrics = measure(wl, args.seconds, rng, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
