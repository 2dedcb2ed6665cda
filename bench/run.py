"""abperc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (``src/abperc`` must be there)::

    python3 bench/run.py --workload lambda_c --seed 20260811 --seconds 40 --trace 0

Each CLI run is a fresh ``python -m abperc.cli`` process on the checkout's
``src``, made one at a time from this single process (a closed loop of one
client). Every data CSV is checked: against the recorded digests at the
workload's acceptance seed, and against seed-independent invariants always.

``--trace 0`` repeats the workload for ``--seconds`` and reports the median
wall time, CPU time (pool workers included), peak RSS and interpreter set-up
time. ``--trace 1`` makes one traced in-process run at ``--jobs 1`` (see
tracer.py), one ``--jobs 1`` run with only the pool boundary counted, and for
a ``--jobs 2`` workload one counted run at ``--jobs 2``; it reports the
per-layer metrics and the ``src/abperc`` line counts.

The last line of standard output is the result for the harness driving the
benchmark; the line before it is the full record with quartiles, sample
counts and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 8


@dataclass(frozen=True)
class Workload:
    argv: tuple
    jobs: int
    seed: int  # the acceptance seed, at which the digests were recorded
    digests: dict  # file suffix -> sha256 at the acceptance seed
    check: Callable[[str], list]  # output prefix -> list of problems

    def cli_argv(self, seed, out, jobs=None):
        return [*self.argv, "--seed", str(seed), "--jobs", str(jobs or self.jobs), "--out", out]


LLN_TRIALS = 1

# Why these three: the "why" lines of BENCHMARK.json and bench/layers.json.
# Each config is the one measured when the digests were recorded; a change
# to argv or LLN_TRIALS needs new digests.
WORKLOADS = {
    "lambda_c": Workload(
        argv=("percolate", "--r", "1", "--L", "30", "--d", "2", "--trials", "400",
              "--tol", "0.02"),
        jobs=1, seed=20260811,
        digests={".csv": "8e91cc1897b497f8dc519e7c948f1cbde57003f06982d34848f72912e9cfb279"},
        check=lambda prefix: check.check_bisection(prefix, 0.02, 0.5, 400)),
    "lln_1e5": Workload(
        argv=("lln", "--n", "1e5", "--tau", "4", "--trials", str(LLN_TRIALS)),
        jobs=1, seed=20260814,
        digests={
            ".csv": "615440d7f22c89268abb2972d12450376b67f11868142510cdb1a31b2ac0dbf4",
            ".medians.csv": "1ce13e0c858c9e91988778134343f4fc80ab752eadeb1cbe2a7c8bc34f3726c5"},
        check=lambda prefix: check.check_lln(prefix, LLN_TRIALS)),
    "mu_c_jobs2": Workload(
        argv=("mu-c", "--lambda", "0.72", "--r", "1", "--L", "30", "--trials", "400",
              "--tol", "0.05"),
        jobs=2, seed=20260813,
        digests={".csv": "d7ba42cf789450f4ea5578ba9a9feb47543031299b196957e66e6b70635a8d55"},
        check=lambda prefix: check.check_bisection(prefix, 0.05, 0.5, 400)),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Run:
    """One child process: how it ended and what it cost."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rc: int
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.rc == 0 and not self.problems


class Harness:
    """Spawns children on the checkout's sources and keeps the run deadline."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, label, argv) -> Run:
        """Run ``python argv`` to exit; wall from launch to reaped, rusage from wait4."""
        log = self.work / f"{label}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh, stderr=fh,
                                    start_new_session=True)
            # on overrun, kill the child's whole group so no pool worker outlives it
            timer = threading.Timer(max(self.remaining(), 1.0), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = Run(label, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)
        if run.rc != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            run.problems.append(f"exit code {run.rc}: {' | '.join(tail)}")
        return run

    def cli(self, workload: Workload, seed, jobs=None, mode="plain") -> tuple[Run, str]:
        """One CLI run into a fresh output prefix; checks its CSVs.

        ``mode`` is "plain" (``python -m abperc.cli``), "traced" (every span of
        tracer.py) or "counted" (tracer.py wrapping the pool boundary only).
        """
        self.count += 1
        label = f"run{self.count}"
        prefix = str(self.work / label)
        argv = workload.cli_argv(seed, prefix, jobs)
        if mode == "plain":
            run = self.spawn(label, ["-m", "abperc.cli", *argv])
        else:
            flags = ["--counters-only"] if mode == "counted" else []
            run = self.spawn(label, [str(HERE / "tracer.py"), prefix + ".trace.json",
                                     *flags, "--", *argv])
        if run.rc == 0:
            try:
                run.problems += workload.check(prefix)
                if seed == workload.seed:
                    run.problems += check.check_digests(prefix, workload.digests)
            except (OSError, ValueError, KeyError) as exc:
                run.problems.append(f"unreadable output: {exc!r}")
        return run, prefix

    def provenance(self) -> dict:
        """Versions as the children see them; also fills the bytecode caches."""
        code = ("import json, abperc, abperc.cli, numpy, scipy; print(json.dumps("
                "{'abperc': abperc.__version__, 'abperc_file': abperc.__file__, "
                "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
        out = subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                             capture_output=True, text=True, timeout=60, check=True)
        info = json.loads(out.stdout)
        if not Path(info["abperc_file"]).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"abperc imported from {info['abperc_file']}, not this checkout")
        info.update(python=platform.python_version(), commit=_commit(self.root),
                    src_sha256=_tree_digest(self.root / "src" / "abperc"),
                    nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))
        return info


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _commit(root: Path):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def _tree_digest(pkg: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def line_counts(pkg: Path) -> dict:
    counts = {f"src.lines.{p.stem}": len(p.read_text().splitlines())
              for p in sorted(pkg.glob("*.py"))}
    counts["src.lines_total"] = sum(counts.values())
    return counts


def describe(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(h: Harness, workload: Workload, seed, seconds):
    """CLI runs until the next one would overrun ``seconds``, between set-up samples.

    Half the set-up samples are taken before the CLI runs and half after, so
    their median is not read from a single stretch of machine speed.
    """
    def setup_samples(count):
        return [h.spawn("setup", ["-c", "import abperc.cli"]) for _ in range(count)]

    setup = setup_samples(SETUP_SAMPLES // 2)
    runs, prefixes = [], []
    t0 = time.monotonic()
    while True:
        run, prefix = h.cli(workload, seed)
        runs.append(run)
        prefixes.append(prefix)
        elapsed = time.monotonic() - t0
        typical = statistics.median(r.wall_s for r in runs)
        if elapsed + typical > min(seconds, h.remaining() - 5.0):
            break
    setup += setup_samples(SETUP_SAMPLES - len(setup))
    _require_same_bytes(runs, prefixes, workload)
    good = [r for r in runs if r.ok]
    samples = {"wall_s": [r.wall_s for r in good], "cpu_s": [r.cpu_s for r in good],
               "peak_rss_mb": [r.peak_rss_mb for r in good],
               "setup_s": [s.wall_s for s in setup if s.rc == 0]}
    stats = {name: describe(v) for name, v in samples.items() if v}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in END_TO_END.items() if name in stats}
    return runs + setup, metrics, stats


def traced(h: Harness, workload: Workload, seed):
    """Traced run at --jobs 1, its untraced twin, and the pool run at the workload's jobs."""
    untraced, p1 = h.cli(workload, seed, jobs=1, mode="counted")
    trace_run, pt = h.cli(workload, seed, jobs=1, mode="traced")
    runs, prefixes = [untraced, trace_run], [p1, pt]
    pool_run, pool_prefix = untraced, p1
    if workload.jobs != 1:
        pool_run, pool_prefix = h.cli(workload, seed, mode="counted")
        runs.append(pool_run)
        prefixes.append(pool_prefix)
    _require_same_bytes(runs, prefixes, workload)
    metrics, missing = {}, []
    for run, prefix in ((trace_run, pt), (pool_run, pool_prefix)):
        if run.ok:
            result = json.loads(Path(prefix + ".trace.json").read_text())
            metrics.update(result["metrics"])
            missing += result["missing"]
    metrics["parallel.speedup"] = {"value": untraced.wall_s / pool_run.wall_s, "unit": "x"}
    metrics["parallel.extra_cpu_s"] = {"value": pool_run.cpu_s - untraced.cpu_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": trace_run.wall_s - untraced.wall_s, "unit": "s"}
    for name, count in line_counts(h.root / "src" / "abperc").items():
        metrics[name] = {"value": count, "unit": "lines"}
    return runs, metrics, {"missing": missing}


def _require_same_bytes(runs, prefixes, workload):
    """Every run of one seed, at any --jobs, must write the same data bytes."""
    ok = [(r, p) for r, p in zip(runs, prefixes) if r.ok]
    for run, prefix in ok[1:]:
        for suffix in workload.digests:
            if check.sha256(prefix + suffix) != check.sha256(ok[0][1] + suffix):
                run.problems.append(f"{suffix} differs from {ok[0][0].label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="abperc --seed (default: the workload's acceptance seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "abperc" / "cli.py").is_file():
        print(f"bench: no abperc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = workload.seed if args.seed is None else args.seed

    out_root = root / ".bench_out"
    out_root.mkdir(exist_ok=True)
    work = out_root / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        h = Harness(root, work)
        load_start = os.getloadavg()
        info = h.provenance()
        if args.trace:
            runs, metrics, extra = traced(h, workload, seed)
        else:
            runs, metrics, stats = measure(h, workload, seed, args.seconds)
            extra = {"stats": stats}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:  # another run is still using it
            pass
    failed = [r for r in runs if not r.ok]
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "seconds": args.seconds, "argv": workload.cli_argv(seed, "<out>"),
        "provenance": dict(info, bench_argv=sys.argv, loadavg_start=load_start,
                           loadavg_end=os.getloadavg()),
        "runs": [vars(r) for r in runs], "error_rate": len(failed) / len(runs), **extra,
    }
    print(json.dumps(record))
    print(json.dumps({"correct": not failed, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
