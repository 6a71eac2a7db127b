"""Benchmark runner for gradedet.

Run from the repository root; the library is imported from ``src/``:

    python3 perfbench/run.py --workload det_large --seed 0 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 20 --label mybranch

One workload per process, single-threaded.  ``--trace 0`` measures the
end-to-end metrics, every time scaled to a nominal host speed measured
alongside (see perfbench/calibrate.py; the unscaled figures are printed
and kept in the run file too); ``--trace 1`` runs every op (or sweep function)
untraced and then traced and reports the per-layer metrics, including the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit.  Each run also writes
``perfbench/out/run-<workload>-seed<n>-trace<t>.json``.  ``--all`` runs
every workload, untraced and then traced, each in a fresh interpreter, and
writes ``perfbench/out/BENCH_<label>.json``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("sweeps", "det_large", "cli_jobs")
SETUP_SAMPLES = 7          # fewest set-ups per untraced run
SETUP_SHARE = 0.2          # share of an untraced run spent sampling set-ups
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_paths():
    """Imports gradedet from this checkout's src/ and nowhere else."""
    if not (SRC / "gradedet" / "__init__.py").is_file():
        raise ImportError(f"no gradedet package under {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _setup(args):
    """Imports the library and builds the workload (fresh interpreter to
    the first timed op); returns it with the seconds that took, measured
    and scaled to the nominal host."""
    from perfbench import calibrate

    def build():
        from perfbench import workloads
        OUT.mkdir(parents=True, exist_ok=True)
        return workloads.make(args.workload, args.seed, str(OUT))

    return calibrate.calibrated(build)


def _setup_sample(args):
    """(measured, nominal) seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    measured, nominal = done.stdout.strip().splitlines()[-1].split()
    return float(measured), float(nominal)


class SetupSampler:
    """Set-up times of fresh interpreters, taken between the timed passes
    so that they spread over the whole run and their median does not hang
    on one slow stretch of the machine.  After each pass it samples while
    sampling has taken less than SETUP_SHARE of the run so far; ``finish``
    tops the samples up to SETUP_SAMPLES.  The first sample is the run's
    own set-up.  Each sample is a (measured, nominal) pair of seconds."""

    def __init__(self, args, own_setup):
        self.args = args
        self.samples = [own_setup]
        self.start = time.perf_counter()
        self.spent = 0.0

    def _take(self):
        t0 = time.perf_counter()
        self.samples.append(_setup_sample(self.args))
        self.spent += time.perf_counter() - t0

    def between_passes(self):
        while self.spent < SETUP_SHARE * (time.perf_counter() - self.start):
            self._take()

    def finish(self):
        while len(self.samples) < SETUP_SAMPLES:
            self._take()
        return self.samples


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(workload, args, setup):
    """End-to-end metrics scaled to the nominal host, and the same figures
    as measured, which go into the printed lines and the run file."""
    from perfbench.calibrate import Calibrator
    sampler = SetupSampler(args, setup)
    cal = Calibrator()
    outcome = workload.run(args.seconds, workload.min_passes,
                           between=sampler.between_passes, tick=cal.tick)
    samples = sampler.finish()
    attempted, failed = workload.check(outcome)
    metrics = workload.metrics(outcome, attempted, failed, cal.factor)
    measured = workload.metrics(outcome, attempted, failed)
    metrics["peak_rss_mb"] = measured["peak_rss_mb"] = _peak_rss_mb()
    metrics["setup_s"] = statistics.median(s[1] for s in samples)
    measured["setup_s"] = statistics.median(s[0] for s in samples)
    details = {"passes": len(outcome.pass_s), "pass_s": outcome.pass_s,
               "latency_samples": len(outcome.typical()),
               "measured": measured,
               "reference_samples": len(cal.seconds),
               "reference_median_s": statistics.median(cal.seconds)}
    details.update(outcome.extra)
    details["setup_samples_s"] = samples
    lines = workload.summary(outcome) + [
        f"latency samples {details['latency_samples']} "
        f"(each op's median over {len(outcome.pass_s)} passes)",
        f"reference {details['reference_median_s'] * 1000:.4g} ms median "
        f"of {len(cal.seconds)} samples"] + [
        f"measured {name} {value:.6g} {END_TO_END_UNITS[name]}"
        for name, value in measured.items()]
    return attempted, failed, True, metrics, details, lines


def _traced(workload):
    """Each unit (an op, or a sweep function) runs untraced and then traced,
    back to back, so that both see the machine in the same state; the
    overhead ratio compares their summed times."""
    from perfbench.tracer import Tracer
    tracer = Tracer()
    attempted = failed = 0
    plain_s = traced_s = 0.0
    same = True
    for _ in range(workload.trace_passes):
        for unit in workload.units:
            plain = workload.run(0, units=[unit])
            with tracer:
                traced = workload.run(0, units=[unit])
            plain_s += sum(plain.pass_s)
            traced_s += sum(traced.pass_s)
            same = same and (workload.results_of(plain)
                             == workload.results_of(traced))
            for outcome in (plain, traced):
                a, f = workload.check(outcome)
                attempted, failed = attempted + a, failed + f
    metrics = tracer.report()
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    ratios = tracer.ratios()
    details = {"passes": workload.trace_passes, "untraced_s": plain_s,
               "traced_s": traced_s, "results_identical": same,
               "ratios": ratios, "edges": tracer.edge_list()}
    lines = [f"{name} {value:.6g}" for name, value in ratios.items()]
    return attempted, failed, same, metrics, details, lines


def per_layer_units():
    """Unit of every per-layer metric."""
    from perfbench.tracer import metric_units
    units = metric_units()
    units["trace.overhead_ratio"] = "ratio"
    return units


def run_one(args):
    try:
        _import_paths()
        workload, setup = _setup(args)
    except (ImportError, OSError, ValueError) as exc:
        return _fail(f"set-up failed: {exc!r}")
    try:
        if args.trace:
            attempted, failed, same, metrics, details, lines = _traced(
                workload)
            units = per_layer_units()
        else:
            attempted, failed, same, metrics, details, lines = _untraced(
                workload, args, setup)
            units = END_TO_END_UNITS
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        return _fail(f"set-up sample failed: {exc!r}")
    finally:
        workload.close()
    correct = failed == 0 and same
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "input_digest": workload.digest, "environment": environment(),
              "correct": correct, "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted if attempted else 1.0,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()},
              "details": details}
    path = OUT / (f"run-{workload.name}-seed{args.seed}"
                  f"-trace{int(args.trace)}.json")
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"workload {workload.name} seed {args.seed} "
          f"inputs {workload.digest}")
    for line in lines:
        print(line)
    print(f"fail_ratio {record['fail_ratio']:.6g} "
          f"({failed} of {attempted})")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Every workload in its own interpreter, untraced then traced; prints
    each run's metric lines and writes one BENCH file."""
    bench = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
             "environment": environment(), "workloads": {}}
    for name in WORKLOADS:
        entry = bench["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 60)
            sys.stdout.write(done.stdout)
            if done.returncode:
                sys.stderr.write(done.stderr)
                return _fail(f"{name} trace={trace} exited "
                             f"{done.returncode}")
            record = json.loads((OUT / f"run-{name}-seed{args.seed}"
                                 f"-trace{trace}.json").read_text())
            key = "per_layer" if trace else "end_to_end"
            entry[key] = record["metrics"]
            entry.update({"input_digest": record["input_digest"],
                          f"correct_trace{trace}": record["correct"],
                          f"fail_ratio_trace{trace}": record["fail_ratio"],
                          f"attempted_trace{trace}": record["attempted"]})
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="local",
                        help="BENCH file label for --all")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.setup_only:
        try:
            _import_paths()
        except ImportError as exc:
            return _fail(str(exc))
        workload, (measured, nominal) = _setup(args)
        workload.close()
        print(measured, nominal)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
