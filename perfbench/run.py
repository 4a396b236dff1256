#!/usr/bin/env python3
"""meancert benchmark: pinned sweeps timed end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload op-sweep --seed 0 --seconds 40 --trace 0

The program under test is ``src/meancert`` of the tree this file sits in;
it is imported from there and nowhere else.  Each run is a closed loop in
one process: one CLI sweep (``meancert.cli.main`` in-process, report
written with ``--out``), then ``runner.replay_trial`` over a fixed list
of digests (or over one slice of it, the next slice each time), repeated
until ``--seconds`` have passed.  A first, untimed iteration lets lazy
set-up finish.  Every sweep and every replay
is checked (see ``checks.py``); an operation that raises or fails a check
is a failed operation.

On a shared host the CPU's speed changes by up to half, for milliseconds
to minutes at a time, so raw times of the same code drift from run to
run by more than a regression bound.  The timed figures are therefore
given at a fixed reference speed.  Around every sweep, every set-up
interpreter and every ``CAL_CHUNK`` replays the benchmark times
``calibrate()``, a fixed piece of work of its own with the program's mix
(interpreted Python and small LAPACK calls); a time is scaled by
``CAL_REF_S`` over the mean of the two calibrations that bracket it.
Sweep figures are medians over the run's sweeps.  A digest's replay
latency is the median of its scaled passes, and ``replay_ms_p50`` and
``replay_ms_p99`` are percentiles over the digests.
The median and the highest percentile with ten samples beyond it are
printed beside each figure, with the sample count; the detail line also
holds the raw, unscaled medians and the calibration times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations (at least two of each) at the pinned trial
counts, and prints the per-layer metrics from the spans of ``spans.py``;
the tracing overhead is the traced minus the untraced median sweep time.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment, the seed and the sample counts of every timing.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "BENCH_1.json"
SETUP_RUNS = 9
CAL_REF_S = 0.010  # calibrate() at full speed on the baseline host (see README)
CAL_CHUNK = 250    # replays between two calibrations
REPLAY_SLICES = 2  # a timed iteration replays every second digest: more sweeps per run
SETUP_CODE = "import meancert.cli; print('ready', meancert.cli.__file__, flush=True)"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]         # CLI verb and flags, without --trials/--seed/--out
    sweep_cases: tuple[str, ...]  # matrix cases of the sweep; empty for the scalar grid
    trials: int                   # matrix trials per case in timed sweeps
    trace_trials: int             # ... and in traced runs, where counts are pinned
    replay_cases: tuple[str, ...]
    replay_digests: int           # digests replayed, in all


def workloads(smoke: bool) -> dict[str, Workload]:
    """The pinned workloads; ``smoke`` shrinks them for the self-tests."""
    from checks import HS_CASES, OP_CASES
    every = OP_CASES + HS_CASES
    size = (lambda n: 32) if smoke else (lambda n: n)
    digests = 60 if smoke else 1000
    rows = [
        # eigh-heavy Loewner path: Powers builds and PSD checks, no oracle
        Workload("op-sweep", ("matrix-verify", "--case", "op", "--jobs", "1"),
                 OP_CASES, size(128), size(512), OP_CASES, digests),
        # matmul-heavy norm path with the oracle route; failure digests are hot
        Workload("hs-sweep", ("matrix-verify", "--case", "hs", "--jobs", "1"),
                 HS_CASES, size(128), size(512), HS_CASES, digests),
        # pure-Python scalar grid, then single-trial replays of every matrix case
        Workload("replay-scalar", ("scalar-sweep", "--case", "all"),
                 (), 0, 0, every, digests),
    ]
    return {w.name: w for w in rows}


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def summary(values: list[float]) -> dict:
    """Sample count, median, and the highest whole percentile with ten samples beyond."""
    n = len(values)
    q = int(100 * (n - 10) / n) if n > 10 else 0
    tail = {"q": q, "value": percentile(values, q)} if q > 50 else None
    return {"n": n, "median": statistics.median(values), "tail": tail}


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "system": " ".join(os.uname()[i] for i in (0, 2, 4)),
    }


_CAL_MATS = [(lambda a: a + a.T)(np.random.default_rng(7).standard_normal((n, n)))
             for n in (2, 3, 5, 8)]


def _cal_scalar(i: int) -> float:
    x = 0.0
    for k in range(1, 24):
        x += ((i * k) % 7) / k
    return x


def calibrate() -> float:
    """Seconds taken by a fixed piece of work, a gauge of the host's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(700):
        w, v = np.linalg.eigh(_CAL_MATS[i % 4])
        acc += float(w[0] + (v @ v.T)[0, 0]) + _cal_scalar(i)
    dt = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration went wrong")
    return dt


def scale(before: float, after: float) -> float:
    """Factor that takes a time bracketed by two calibrations to the reference speed."""
    return 2 * CAL_REF_S / (before + after)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Iteration:
    wall: float
    cpu: float
    trials: int
    replay_ms: list[float]     # one per digest; nan where not replayed or it raised
    replay_scale: list[float]  # one per digest, from its chunk's calibrations
    sweep_scale: float
    cal_s: list[float]         # every calibration of the iteration


def replay_digests(workload: Workload, seed: int) -> list[dict]:
    """Digests cycling through the cases, each case through (dim, nu) cells.

    The cells visited are the same for every seed, so the mix of work is
    too; the seed picks which trial of each cell is drawn.
    """
    from meancert import runner
    cfg = runner.RunConfig(seed=seed)
    rng = np.random.default_rng(seed)
    ncases = len(workload.replay_cases)
    out = []
    for i in range(workload.replay_digests):
        case = workload.replay_cases[i % ncases]
        cells = len(cfg.dims) * len(runner.nu_grid_for(case, None))
        # the dim cycle and the nu grid have coprime lengths, so trial % cells
        # fixes one (dim, nu) pair
        order = np.random.default_rng(i % ncases).permutation(cells)
        cell = int(order[(i // ncases) % cells])
        trial = cell + cells * int(rng.integers(0, cfg.trials // cells))
        out.append(runner.make_digest(case, cfg, trial))
    return out


class Bench:
    """One workload at one seed: runs iterations and keeps the ledger."""

    def __init__(self, workload: Workload, seed: int, traced: bool = False):
        from meancert import runner
        self.w = workload
        self.trials = workload.trace_trials if traced else workload.trials
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None
        self.report_path = str(OUT / f"report-{workload.name}-{os.getpid()}.json")
        self.argv = list(workload.argv) + ["--out", self.report_path]
        if workload.sweep_cases:
            self.argv += ["--trials", str(self.trials), "--seed", str(seed)]
        cfg = runner.RunConfig()
        self.replays = []
        for digest in replay_digests(workload, seed):
            rec = runner.run_trial(digest, cfg.tol, cfg.psd_tol)
            self.replays.append((digest, (rec.passed, rec.min_slack)))

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems[:3]:
                print(f"check failed [{self.w.name}]: {p}", file=sys.stderr)
            self.problems.extend(problems)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.record([f"{what} raised"])

    def sweep(self) -> tuple[float, float, int] | None:
        import checks
        from meancert import cli, runner
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.report_path)
        sink = io.StringIO()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(self.argv)
        except Exception:
            self.crashed("sweep")
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        report, problems = checks.read_report(self.report_path)
        if report is not None:
            if self.w.sweep_cases:
                problems = checks.matrix_report_problems(report, rc, self.w.sweep_cases,
                                                         self.trials)
            else:
                problems = checks.scalar_report_problems(report, rc)
            if self.reference is None:
                self.reference = report
                if self.w.sweep_cases and not problems:
                    problems = checks.replay_problems(report, runner.replay_trial)
            else:
                problems += checks.same_report(report, self.reference)
        self.record(problems)
        try:
            trials = sum(c["trials"] for c in report["cases"])
        except (TypeError, KeyError):  # already counted as a failed check
            trials = 0
        return wall, cpu, trials

    def replay_pass(self, part: int | None, cal: list[float]) -> tuple[list, list]:
        """Replay every digest, or only those of slice ``part``.

        Returns each digest's latency in ms and its scale; nan where not
        replayed.  With ``cal`` (the calibrations so far, the last one just
        taken) every chunk of ``CAL_CHUNK`` replays is followed by another
        calibration, appended to ``cal``; without, scales are nan.
        """
        import checks
        from meancert import runner
        nan = float("nan")
        lat = [nan] * len(self.replays)
        scales = [nan] * len(self.replays)
        todo = [j for j in range(len(self.replays))
                if part is None or j % REPLAY_SLICES == part]
        for start in range(0, len(todo), CAL_CHUNK):
            chunk = todo[start:start + CAL_CHUNK]
            for j in chunk:
                digest, expected = self.replays[j]
                t0 = time.perf_counter_ns()
                try:
                    rec = runner.replay_trial(digest)
                except Exception:
                    self.crashed(f"replay of {digest}")
                    continue
                lat[j] = (time.perf_counter_ns() - t0) / 1e6
                self.record(checks.replay_record_problems(rec, digest, expected))
            if cal:
                cal.append(calibrate())
                for j in chunk:
                    scales[j] = scale(cal[-2], cal[-1])
        return lat, scales

    def iteration(self, part: int | None = None, tracer=None,
                  gauge: bool = False) -> Iteration | None:
        """One sweep and one replay pass; ``gauge`` interleaves ``calibrate()``."""
        cal = [calibrate()] if gauge else []
        if tracer is not None:
            tracer.phase = tracer.SWEEP
        swept = self.sweep()
        if gauge:
            cal.append(calibrate())
        if tracer is not None:
            tracer.phase = tracer.REPLAY
        lat, scales = self.replay_pass(part, cal)
        if swept is None:
            return None
        sweep_scale = scale(cal[0], cal[1]) if gauge else float("nan")
        return Iteration(*swept, lat, scales, sweep_scale, cal)


def loop(seconds: float, minimum: int):
    """Yield until the next pass would end past ``seconds`` (at least ``minimum``).

    A pass is predicted to last as long as the slowest one so far, so the
    measured span stays within the budget whatever the pass length.
    """
    start = last = time.perf_counter()
    longest = 0.0
    done = 0
    while done < minimum or last - start + longest <= seconds:
        yield done
        now = time.perf_counter()
        longest = max(longest, now - last)
        last = now
        done += 1


def setup_time(bench: Bench) -> float | None:
    """Fresh interpreter until ``import meancert.cli`` is done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    word, _, path = line.strip().partition(" ")
    ok = rc == 0 and word == "ready" and Path(path).resolve().is_relative_to(SRC)
    bench.record([] if ok else [f"set-up interpreter printed {line!r}, exit {rc}"])
    return dt if ok else None


def scaled_setup_time(bench: Bench) -> tuple[float, float] | None:
    """``setup_time`` raw and scaled by the calibrations that bracket it."""
    c0 = calibrate()
    dt = setup_time(bench)
    c1 = calibrate()
    return None if dt is None else (dt, dt * scale(c0, c1))


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.iteration()  # warm-up: lazy imports, .pyc files, first-report checks
    its: list[Iteration] = []
    setup: list[tuple[float, float] | None] = []
    for i in loop(seconds, minimum=2 * REPLAY_SLICES):
        it = bench.iteration(i % REPLAY_SLICES, gauge=True)
        if it is None:
            break
        its.append(it)
        if len(setup) < SETUP_RUNS:  # interleaved, to sample the same machine states
            setup.append(scaled_setup_time(bench))
    while its and len(setup) < SETUP_RUNS:
        setup.append(scaled_setup_time(bench))
    setup_ok = [s for _, s in filter(None, setup)]
    if not its or not setup_ok:
        return {}, {}
    # times scaled to the reference speed (see the module docstring)
    walls = [i.wall * i.sweep_scale for i in its]
    rates = [i.trials / w for i, w in zip(its, walls)]
    cpus = [i.cpu * i.sweep_scale for i in its]
    raw = np.array([i.replay_ms for i in its])  # nan where not replayed
    if np.isnan(raw).all(axis=0).any():
        return {}, {}
    passes = raw * np.array([i.replay_scale for i in its])
    typical = np.nanmedian(passes, axis=0)  # per digest, over its passes
    raw_typical = np.nanmedian(raw, axis=0)
    detail = {
        "setup_s": summary(setup_ok),
        "wall_s": summary(walls),
        "trials_per_s": summary(rates),
        "cpu_s": summary(cpus),
        "replay_ms": summary(typical.tolist()),
        "replay_ms_every_pass": summary(passes[~np.isnan(passes)].tolist()),
        "iterations": len(its),
        "trials_per_sweep": its[0].trials,
        "cal_ref_s": CAL_REF_S,
        "calibrate_s": summary([c for i in its for c in i.cal_s]),
        "unscaled": {
            "setup_s": summary([raw for raw, _ in filter(None, setup)]),
            "wall_s": summary([i.wall for i in its]),
            "cpu_s": summary([i.cpu for i in its]),
            "replay_ms_p50": percentile(raw_typical, 50),
            "replay_ms_p99": percentile(raw_typical, 99),
        },
    }
    metrics = {
        "setup_s": (statistics.median(setup_ok), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "trials_per_s": (statistics.median(rates), "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "replay_ms_p50": (percentile(typical, 50), "ms"),
        "replay_ms_p99": (percentile(typical, 99), "ms"),
    }
    return metrics, detail


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    import spans as trace
    bench.iteration()
    tracer = trace.Tracer()
    plain, traced, per_iter, counts = [], [], [], []
    for _ in loop(seconds, minimum=2):
        it = bench.iteration()
        tracer.reset()
        with tracer.installed():
            tit = bench.iteration(tracer=tracer)
        if it is None or tit is None:
            break
        spans = tracer.arrays()
        tracer.reset()
        if not per_iter:
            trace.save_spans(str(OUT / f"spans-{bench.w.name}.npz"), spans)
        m, c = trace.layer_metrics(spans)
        plain.append(it.wall)
        traced.append(tit.wall)
        per_iter.append(m)
        counts.append(c)
    if len(per_iter) < 2:
        return {}, {}
    repeat = all(c == counts[0] for c in counts)
    bench.record([] if repeat else ["call counts differ between traced iterations"])
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name, unit in trace.metric_names():
        value = (overhead if name == "trace.overhead_s"
                 else statistics.median(m[name] for m in per_iter))
        metrics[name] = (value, unit)
    detail = {"traced_iterations": len(per_iter), "untraced_wall_s": summary(plain),
              "traced_wall_s": summary(traced), "counts_repeat": repeat,
              "trials_per_case": bench.trials}
    return metrics, detail


def print_human(workload: str, metrics: dict, detail: dict) -> None:
    for name, (value, unit) in metrics.items():
        key = "replay_ms" if name.startswith("replay_ms") else name
        s = detail.get(key)
        extra = ""
        if isinstance(s, dict):
            t = s["tail"]
            extra = (f"  (n={s['n']}, median={s['median']:.6g}"
                     + (f", p{t['q']}={t['value']:.6g}" if t else "") + ")")
        print(f"{workload:<14} {name:<36} {value:>14.6g} {unit}{extra}")


def pinned_counts(workload: str, metrics: dict) -> None:
    """Print exact counts next to the committed baseline's, for reference."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            base = json.load(fh)["workloads"][workload]["per_layer"]
    except (OSError, KeyError, json.JSONDecodeError):
        return
    from baseline import is_count
    for name, (value, _) in metrics.items():
        if is_count(name):
            ref = base.get(name)
            mark = "same" if ref == value else f"baseline {ref}"
            print(f"{workload:<14} count {name:<30} {value:.6g}  ({mark})")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, for the benchmark's self-tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "meancert" / "__init__.py").is_file():
        print(f"error: no meancert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import meancert
    if not Path(meancert.__file__).resolve().is_relative_to(SRC):
        print(f"error: meancert imported from {meancert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    table = workloads(args.smoke)
    if args.workload not in table:
        p.error(f"unknown workload {args.workload!r}; expected one of {sorted(table)}")
    OUT.mkdir(exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    bench = Bench(table[args.workload], args.seed, traced=bool(args.trace))
    try:
        run = traced_run if args.trace else timed_run
        metrics, detail = run(bench, args.seconds)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(bench.report_path)
    env["loadavg_end"] = os.getloadavg()
    correct = bool(metrics) and bench.failed == 0
    print_human(args.workload, metrics, detail)
    if args.trace:
        pinned_counts(args.workload, metrics)
    print(f"{args.workload:<14} failed_ops_ratio {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.6g} ratio")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                      "trace": args.trace, "env": env, "detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
