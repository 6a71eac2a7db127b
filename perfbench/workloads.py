"""The three benchmark workloads.

Each workload builds its inputs from a seed when it is constructed (the
set-up phase), runs timed passes over a fixed list of operations, and
checks every result afterwards, outside the timed phase, by a route that
does not call the timed function on the same input.  The seed picks the
coefficients of the det_large and cli_jobs inputs; their structure is
fixed by the plan (see ``inputs.Source``), so that every seed costs the
same work.

* ``sweeps``: every sweep function of ``gradedet.oracles.SUITES`` for the
  seed, i.e. exactly what ``gradedet verify --seed <seed>`` runs.  An op
  is one checked instance.
* ``det_large``: one ``gdet0`` or ``gdet_sigma`` call on a dense matrix of
  size 7 to 10.
* ``cli_jobs``: one in-process ``gradedet.cli.main(argv)`` call on job
  documents written during set-up.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import tempfile
import time

import gradedet
import gradedet.cli
import gradedet.oracles as oracles
from gradedet import (all_ns_multipliers, canonical_sigma, complex_embedding,
                      det_gauss, gber_via_ber_super, is_ns_multiplier,
                      parity, preset, quaternion_norm, trace_via_twist)
from gradedet.oracles import SUITES, SweepReport
from gradedet.serialize import (format_algebra, format_matrix,
                                format_multiplier, parse_algebra,
                                parse_element, parse_multiplier)

from . import inputs

clock = time.perf_counter


class Op:
    """One timed call and how to judge its result."""

    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call      # () -> result, timed
        self.check = check    # result -> bool, run after the timed phase


class Outcome:
    """What the timed phase produced: per-op start times and latencies of
    each pass, per-pass wall times, and every result in pass order."""

    def __init__(self):
        self.starts = []      # one list per pass, in op order
        self.latencies = []   # one list per pass, in op order
        self.pass_s = []
        self.results = []     # (op, result or exception)
        self.extra = {}

    def scaled(self, factor=None):
        """The latencies of each pass, each scaled by factor(start, end)
        when a factor is given."""
        if factor is None:
            return self.latencies
        return [[t * factor(s, s + t) for s, t in zip(starts, times)]
                for starts, times in zip(self.starts, self.latencies)]

    def typical(self, factor=None):
        """Each op's median latency over the passes of the timed phase."""
        return [statistics.median(times)
                for times in zip(*self.scaled(factor))]


def another_pass(outcome, start, seconds, min_passes):
    """Whether to start another whole pass: always until ``min_passes``
    are done, then while one more pass of the mean length so far (with
    the work done between passes) still ends within ``seconds`` of
    ``start``."""
    done = len(outcome.pass_s)
    if done < min_passes:
        return True
    elapsed = clock() - start
    return elapsed + elapsed / done <= seconds


def _call(op):
    try:
        return op.call()
    except Exception as exc:   # a failed op is counted, not fatal
        return exc


def run_passes(ops, seconds, min_passes=1, between=None, tick=None):
    """Whole passes over ``ops`` that fit into ``seconds``; ``between``,
    if given, is called untimed after each pass, and ``tick`` untimed
    before each op."""
    out = Outcome()
    start = clock()
    while another_pass(out, start, seconds, min_passes):
        p0 = clock()
        starts, times = [], []
        for op in ops:
            if tick:
                tick()
            t0 = clock()
            result = _call(op)
            times.append(clock() - t0)
            starts.append(t0)
            out.results.append((op, result))
        out.pass_s.append(clock() - p0)
        out.starts.append(starts)
        out.latencies.append(times)
        if between:
            between()
    return out


def count_failures(results):
    failed = 0
    for op, result in results:
        if isinstance(result, Exception):
            failed += 1
            continue
        try:
            ok = op.check(result)
        except Exception:
            ok = False
        failed += not ok
    return failed


class Workload:
    """Built from a seed.  ``units`` lists the calls of one pass (ops, or
    sweep functions); ``run`` times whole passes over them, ``check``
    returns (attempted, failed) over every result, ``results_of`` gives
    the results in a comparable form and ``summary`` the lines to print
    about a run besides its metrics."""

    name = None
    min_passes = 3        # fewest timed passes of a --trace 0 run
    trace_passes = 3      # passes of a --trace 1 run

    def metrics(self, outcome, attempted, failed, factor=None):
        """Latencies are first scaled by ``factor`` (see
        perfbench.calibrate) when one is given.  ops_per_s: correct ops
        over the summed latency of every op of the timed phase.
        op_p50_ms and op_p90_ms: over each op's median latency across the
        passes."""
        ms = [t * 1000.0 for t in outcome.typical(factor)]
        busy = sum(sum(times) for times in outcome.scaled(factor))
        return {"ops_per_s": (attempted - failed) / busy,
                "op_p50_ms": statistics.median(ms),
                "op_p90_ms": statistics.quantiles(ms, n=10)[-1]}

    def summary(self, outcome):
        return []

    def close(self):
        pass


class OpsWorkload(Workload):
    """A fixed list of ops run in whole passes."""

    def run(self, seconds, passes=1, units=None, between=None, tick=None):
        return run_passes(self.units if units is None else units, seconds,
                          passes, between, tick)

    def check(self, outcome):
        return len(outcome.results), count_failures(outcome.results)

    def results_of(self, outcome):
        return [result for _, result in outcome.results]


# ---------------------------------------------------------------------------
# sweeps

class _InstanceClock:
    """Stamps every checked sweep instance (each SweepReport.compare or
    hold call): the interval since the previous stamp is the latency of
    producing that instance.  ``tick``, if given, is called after each
    stamp and outside every interval."""

    def __init__(self, tick=None):
        self.tick = tick
        self.starts = []
        self.samples = []
        self.ticked_s = 0.0   # time spent in tick
        self.last = 0.0
        self._saved = None

    def restart(self):
        self.last = clock()

    def _stamped(self, method):
        def stamped(report, *args, **kwargs):
            now = clock()
            self.starts.append(self.last)
            self.samples.append(now - self.last)
            self.last = now
            if self.tick and self.tick():
                self.last = clock()
                self.ticked_s += self.last - now
            return method(report, *args, **kwargs)

        return stamped

    def __enter__(self):
        self._saved = (SweepReport.compare, SweepReport.hold)
        SweepReport.compare = self._stamped(self._saved[0])
        SweepReport.hold = self._stamped(self._saved[1])
        return self

    def __exit__(self, *exc):
        SweepReport.compare, SweepReport.hold = self._saved
        return False


class Sweeps(Workload):
    """Every sweep function in SUITES order for one seed; an op is one
    checked instance.  A pass takes seconds, so a run often holds a single
    pass.  Each sweep function is looked up in gradedet.oracles when it is
    called, so that a traced pass goes through the tracer's binding."""

    name = "sweeps"
    min_passes = 1
    trace_passes = 1

    def __init__(self, seed):
        self.seed = seed
        self.units = [fn for fns in SUITES.values() for fn in fns]
        # the presets every sweep draws from, built and validated once
        for args in (("quaternions",), ("clifford", 1, 1),
                     ("clifford", 0, 2), ("dual_numbers", 2),
                     ("clock_shift", 3)):
            preset(*args)
        self.digest = inputs.digest(
            [seed] + [fn.__name__ for fn in self.units])

    def run(self, seconds, passes=1, units=None, between=None, tick=None):
        """``tick`` is called after each checked instance; the time it
        takes is left out of every latency and sweep function time."""
        units = self.units if units is None else units
        out = Outcome()
        out.extra["fn_s"] = {fn.__name__: [] for fn in units}
        out.extra["fn_start"] = {fn.__name__: [] for fn in units}
        out.extra["instances"] = []
        start = clock()
        with _InstanceClock(tick) as stamps:
            while another_pass(out, start, seconds, passes):
                stamps.starts, stamps.samples = [], []
                p0 = clock()
                instances = 0
                for fn in units:
                    stamps.restart()
                    ticked = stamps.ticked_s
                    t0 = clock()
                    try:
                        report = getattr(oracles, fn.__name__)(self.seed)
                    except Exception as exc:
                        report = exc
                    elapsed = clock() - t0 - (stamps.ticked_s - ticked)
                    out.extra["fn_s"][fn.__name__].append(elapsed)
                    out.extra["fn_start"][fn.__name__].append(t0)
                    out.results.append((fn.__name__, report))
                    if not isinstance(report, Exception):
                        instances += report.instances
                out.pass_s.append(clock() - p0)
                out.starts.append(stamps.starts)
                out.latencies.append(stamps.samples)
                out.extra["instances"].append(instances)
                if between:
                    between()
        return out

    def check(self, outcome):
        """Every instance is an attempt and every SweepReport failure a
        failed op; a sweep function that raises, and a pass whose instance
        count differs from the first pass's, count as one failed op."""
        attempted = failed = 0
        for _, report in outcome.results:
            if isinstance(report, Exception):
                attempted += 1
                failed += 1
            else:
                attempted += report.instances
                failed += len(report.failures)
        counts = outcome.extra["instances"]
        failed += sum(c != counts[0] for c in counts)
        return attempted, failed

    def metrics(self, outcome, attempted, failed, factor=None):
        """As for the other workloads, but ops_per_s divides the correct
        instances by the summed wall time of the sweep functions, which
        also covers the work after each one's last checked instance."""
        metrics = super().metrics(outcome, attempted, failed, factor)
        scale = factor or (lambda start, end: 1.0)
        busy = 0.0
        for name, times in outcome.extra["fn_s"].items():
            starts = outcome.extra["fn_start"][name]
            busy += sum(t * scale(s, s + t) for s, t in zip(starts, times))
        metrics["ops_per_s"] = (attempted - failed) / busy
        return metrics

    def results_of(self, outcome):
        return [(name, report.to_doc()) if hasattr(report, "to_doc")
                else (name, repr(report)) for name, report in outcome.results]

    def summary(self, outcome):
        counts = outcome.extra["instances"]
        return [f"instances per pass {counts[0]} (passes {len(counts)})"]


# ---------------------------------------------------------------------------
# det_large

DET_ALGEBRAS = {
    "quaternions": ("quaternions",),
    "clifford:2,1": ("clifford", 2, 1),
    "dual_numbers:2": ("dual_numbers", 2),
    "grassmann:4": ("grassmann", 4),
}
# Eight densities evenly spread over [0.3, 0.9]: the ops of one size
# cover a range of costs, so that the costs of a pass have no wide gap
# near the median or the 90th percentile, where a little noise in one op
# would move the percentile across the gap.
DENSITIES = tuple(round(0.3 + 0.6 * k / 7, 2) for k in range(8))


def det_large_plan():
    """(algebra, n, density, kind) for the 101 ops of one pass.  quaternions
    and clifford:2,1 have invertible elements of nonzero even degree, so
    they take gdet_sigma calls on such degrees too, at every other
    density; grassmann:4 stays at n <= 9, where one call already costs up
    to a second."""
    plan = []
    for alg in ("quaternions", "clifford:2,1"):
        for n in (7, 8, 9, 10):
            for k, density in enumerate(DENSITIES):
                kind = "gdet_sigma" if k % 2 else "gdet0"
                plan.append((alg, n, density, kind))
    for n in (7, 8, 9, 10):
        for density in DENSITIES:
            plan.append(("dual_numbers:2", n, density, "gdet0"))
    plan += [("grassmann:4", 7, DENSITIES[1], "gdet0"),
             ("grassmann:4", 7, DENSITIES[6], "gdet0"),
             ("grassmann:4", 8, DENSITIES[0], "gdet0"),
             ("grassmann:4", 8, DENSITIES[4], "gdet0"),
             ("grassmann:4", 9, DENSITIES[0], "gdet0")]
    return plan


def _public_call(name, *args):
    """A call of gradedet.<name>(*args) that looks the function up when it
    runs, so that a traced pass goes through the tracer's binding."""
    return lambda: getattr(gradedet, name)(*args)


def _nonzero_even_degrees(alg):
    return sorted((d for d in alg.realized_degrees()
                   if d and not parity(alg.lam, d)),
                  key=lambda d: d.residues)


def _once(compute):
    """A zero-argument function computing its value on first use, which is
    after the timed phase."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]

    return get


def expect(value, x=None):
    """A check that the result equals ``value``.  Given the quaternion
    matrix ``x``, it also takes the Dieudonne route: the reduced norm of
    the determinant is the determinant of the complex embedding."""
    norm = None if x is None else _once(
        lambda: det_gauss(complex_embedding(x)))

    def check(got):
        return got == value and (norm is None
                                 or quaternion_norm(got) == norm())

    return check


class DetLarge(OpsWorkload):
    name = "det_large"

    def __init__(self, seed):
        algebras = {k: preset(*v) for k, v in DET_ALGEBRAS.items()}
        sigmas = {k: all_ns_multipliers(a.lam) for k, a in algebras.items()}
        self.units, described = [], []
        for index, (alg_name, n, density, kind) in enumerate(
                det_large_plan()):
            src = inputs.Source(f"det_large:{index}",
                                f"det_large:{seed}:{index}")
            alg = algebras[alg_name]
            nu = inputs.degree_vector(src, alg, n)
            x, want = inputs.udl_matrix(src, alg, nu, density)
            label = f"{kind} {alg_name} n={n} density={density}"
            sigma, degree = None, alg.group.zero()
            if kind == "gdet0":
                call = _public_call("gdet0", x)
            else:
                sigma = src.shape.choice(sigmas[alg_name])
                degree = src.shape.choice(_nonzero_even_degrees(alg))
                x, want = inputs.shifted_matrix(src, alg, x, want, sigma,
                                                degree)
                call = _public_call("gdet_sigma", x, sigma)
            if x.nrows != n or x.degree_of() != degree:
                raise AssertionError(f"generated input has the wrong shape: "
                                     f"{label}")
            quaternion = x if alg_name == "quaternions" else None
            self.units.append(Op(label, call, expect(want, quaternion)))
            described.append([kind, alg_name, format_matrix(x),
                              None if sigma is None
                              else format_multiplier(sigma)])
        self.digest = inputs.digest(described)


# ---------------------------------------------------------------------------
# cli_jobs

CLI_ALGEBRAS = {
    "quaternions": ("quaternions",),
    "clifford:1,1": ("clifford", 1, 1),
    "dual_numbers:2": ("dual_numbers", 2),
    "grassmann:2": ("grassmann", 2),
    "grassmann:4": ("grassmann", 4),
}
FILE_SHARE = 4    # every FILE_SHARE-th job names its algebra by a JSON file


def cli_jobs_plan():
    """(command, algebra, n) for every job of one pass."""
    plan = []
    for n in (3, 4, 5, 6, 7):
        for alg in ("quaternions", "clifford:1,1"):
            plan += [("gdet0", alg, n), ("gdet", alg, n), ("trace", alg, n)]
        for alg in ("dual_numbers:2", "grassmann:2", "grassmann:4"):
            plan.append(("gber", alg, n))
    for alg in CLI_ALGEBRAS:
        plan += [("solve-sigma", alg, 0), ("twist", alg, 0)]
    return plan * 2       # two jobs per kind, with their own inputs


def _result(text, alg):
    doc = json.loads(text)
    return parse_element(doc["result"], alg, doc["root_order"])


def _is_super_twist(text, alg, sigma):
    """The twisted algebra document is a valid algebra (parse_algebra
    validates it) whose products are sigma(deg a, deg b) ab and whose
    commutation factor is the super sign rule."""
    tw = parse_algebra(json.loads(text))
    degrees = alg.degrees
    for x in degrees:
        for y in degrees:
            sign = (parity(alg.lam, x) * parity(alg.lam, y)) % 2
            if tw.lam.exponent(x, y) * 2 != sign * tw.lam.root_order:
                return False
    for i, di in enumerate(degrees):
        for j, dj in enumerate(degrees):
            want = alg.basis_element(i) * alg.basis_element(j)
            got = tw.basis_element(i) * tw.basis_element(j)
            factor = sigma.value(di, dj)
            if got.coeffs != {k: c * factor for k, c in want.coeffs.items()}:
                return False
    return True


def _all_ns(text, alg):
    doc = json.loads(text)
    found = [parse_multiplier(m) for m in doc["all"]]
    return (bool(found) and doc["multiplier"] == doc["all"][0]
            and all(is_ns_multiplier(alg.lam, m) for m in found))


class CliJobs(OpsWorkload):
    name = "cli_jobs"

    def __init__(self, seed, workdir):
        self.workdir = tempfile.mkdtemp(prefix="cli_jobs-", dir=workdir)
        algebras = {k: preset(*v) for k, v in CLI_ALGEBRAS.items()}
        self.units, described = [], []
        for index, (command, alg_name, n) in enumerate(cli_jobs_plan()):
            src = inputs.Source(f"cli_jobs:{index}",
                                f"cli_jobs:{seed}:{index}")
            alg = algebras[alg_name]
            files = {}
            if index % FILE_SHARE == FILE_SHARE - 1:
                files["algebra"] = format_algebra(alg)
                spec = None
            else:
                spec = "preset:" + alg_name
            sigma = None
            if command in ("gdet", "gber", "twist"):
                if index % 2 == 0:     # half the jobs read sigma from a file
                    sigma = src.shape.choice(all_ns_multipliers(alg.lam))
                    files["sigma"] = format_multiplier(sigma)
            x, want = self._matrix(src, command, alg, n, sigma)
            if x is not None:
                files["matrix"] = format_matrix(x)
            argv = self._argv(index, command, spec, files)
            self.units.append(Op(f"{command} {alg_name} n={n}",
                               _cli_call(argv),
                               self._checker(command, alg, x, sigma, want)))
            described.append([command, spec, files])
        self.digest = inputs.digest(described)

    @staticmethod
    def _matrix(src, command, alg, n, sigma):
        """(X, value known by construction or None) for a matrix job."""
        if command in ("solve-sigma", "twist"):
            return None, None
        if command == "trace":
            nu = inputs.degree_vector(src, alg, n)
            return inputs.random_matrix(src, alg, nu, 0.6), None
        if command == "gber":
            odd = n // 2
            nu = inputs.degree_vector(src, alg, n, odd)
            return inputs.udl_matrix(src, alg, nu, 0.6)
        nu = inputs.degree_vector(src, alg, n)
        x, want = inputs.udl_matrix(src, alg, nu, 0.6)
        if command == "gdet0":
            return x, want
        sigma = sigma or canonical_sigma(alg)
        degree = src.shape.choice(_nonzero_even_degrees(alg))
        return inputs.shifted_matrix(src, alg, x, want, sigma, degree)

    def _argv(self, index, command, spec, files):
        paths = {}
        for key, doc in files.items():
            path = os.path.join(self.workdir, f"{index:03d}-{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths[key] = path
        argv = [command, "--algebra", spec or paths["algebra"]]
        if "matrix" in paths:
            argv += ["--matrix", paths["matrix"]]
        if command in ("gdet", "gber", "twist"):
            argv += ["--sigma", paths.get("sigma", "auto")]
        return argv

    @staticmethod
    def _checker(command, alg, x, sigma, want):
        """The oracle route for one job, applied to (exit code, stdout)."""
        sigma = sigma or canonical_sigma(alg)
        if command == "solve-sigma":
            judge = lambda text: _all_ns(text, alg)          # noqa: E731
        elif command == "twist":
            judge = lambda text: _is_super_twist(text, alg, sigma)  # noqa
        else:
            if command == "trace":
                other = all_ns_multipliers(alg.lam)[-1]
                oracle = lambda: trace_via_twist(x, other)   # noqa: E731
            elif command == "gber":
                oracle = lambda: gber_via_ber_super(x, sigma)  # noqa: E731
            else:
                oracle = lambda: want                         # noqa: E731
            quaternion = x if (command in ("gdet0", "gdet")
                               and alg.name == "quaternions") else None
            value_check = _once(lambda: expect(oracle(), quaternion))

            def judge(text):
                return value_check()(_result(text, alg))

        def check(result):
            code, text = result
            return code == 0 and judge(text)

        return check

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli_call(argv):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gradedet.cli.main(argv)
        return code, buf.getvalue()
    return call


WORKLOADS = {"sweeps": Sweeps, "det_large": DetLarge, "cli_jobs": CliJobs}


def make(name, seed, workdir):
    if name == "cli_jobs":
        return CliJobs(seed, workdir)
    return WORKLOADS[name](seed)
