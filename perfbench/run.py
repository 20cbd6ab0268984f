"""hulldial benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run prints the end-to-end metrics:

- ``wall_s``, ``cpu_s``: wall and process CPU time of one pass over the
  workload's jobs on an undisturbed host: the sum over jobs of each job's
  fastest time in the run (see `quiet_pass`);
- ``setup_s``: time from spawning a fresh interpreter to ready
  (``import hulldial`` plus building the workload's fields and their dense
  tables), the fastest of several probe processes run one after another,
  for the reason given in `quiet_pass`;
- ``peak_rss_mb``: peak resident memory of this process;
- ``success_rate``: 1 - failed / attempted operations.

With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics named in BENCHMARK.json, plus the tracing overhead.
Every output of every pass is checked; see workloads.py.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Results,
exact counts and spans are also written under perfbench/out/.
"""

import os

# Before numpy is imported anywhere, including in the probe processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for setup_s.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
#: In-process field builds timed for field.setup_s.
FIELD_SETUP_REPS = 5
MIN_PASSES = 3
#: Stop starting passes once another one would end past this (from start).
RUN_DEADLINE_S = 140

perf = time.perf_counter
STARTED = perf()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_library():
    """Import hulldial from this checkout's src/, never from elsewhere."""
    if not (SRC / "hulldial" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hulldial sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hulldial

    if Path(hulldial.__file__).resolve().parent != SRC / "hulldial":
        sys.exit(f"perfbench: imported hulldial from {hulldial.__file__}, not {SRC}")


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def source_fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted(SRC.glob("hulldial/**/*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it reports ready."""
    start = perf()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            ready = perf()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return ready - start


# ---------------------------------------------------------------------------
# passes and checks
# ---------------------------------------------------------------------------


class Failure:
    """A job that raised instead of returning."""

    def __init__(self, text: str):
        self.text = text


class Ledger:
    """Operations attempted and failed, and run-level inconsistencies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.inconsistent = False

    def fail(self, job, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 50:
            self.messages.append(f"{job.name}: {message}")

    def problem(self, message: str) -> None:
        self.inconsistent = True
        self.messages.append(message)


def run_pass(jobs, tracer=None):
    """Run every job once; return per-job wall and CPU seconds, and the outputs."""
    walls, cpus, outputs = [], [], []
    gc.collect()
    for job in jobs:
        wall0, cpu0 = perf(), time.process_time()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.span("bench.job"):
                    out = job.run()
        except Exception:  # a failing operation is counted; the pass goes on
            out = Failure(traceback.format_exc(limit=3))
        walls.append(perf() - wall0)
        cpus.append(time.process_time() - cpu0)
        outputs.append(out)
    return walls, cpus, outputs


def check_first(jobs, outputs, ledger) -> list:
    """Full checks of the warm-up pass; returns the keys later passes must repeat."""
    keys = []
    for job, out in zip(jobs, outputs):
        ledger.attempted += 1
        key = None
        if isinstance(out, Failure):
            ledger.fail(job, out.text)
        else:
            try:
                job.check(out)
                key = job.key(out)
            except Exception as exc:  # a wrong output, or a check that cannot parse it
                ledger.fail(job, f"{type(exc).__name__}: {exc}")
        keys.append(key)
    return keys


def check_repeat(jobs, outputs, keys, ledger) -> None:
    for job, out, key in zip(jobs, outputs, keys):
        ledger.attempted += 1
        if isinstance(out, Failure):
            ledger.fail(job, out.text)
        elif key is None or job.key(out) != key:
            ledger.fail(job, "output differs from the checked warm-up pass")


def timed_passes(jobs, keys, ledger, seconds, tracer=None):
    """Alternate untraced and (with a tracer) traced passes for `seconds`.

    Returns {traced: [(job walls, job CPU times, stats)]}; only the first
    traced pass keeps spans.
    """
    results = {False: [], True: []}
    cpus_allowed = sorted(os.sched_getaffinity(0))
    start = perf()
    last = 0.0
    i = 0
    while True:
        n_min = min(len(v) for v in results.values()) if tracer else len(results[False])
        if n_min >= MIN_PASSES and perf() - start >= seconds:
            break
        if n_min >= 1 and perf() + last - STARTED > RUN_DEADLINE_S:
            break
        traced = tracer is not None and i % 2 == 1
        # Rotate passes over the usable CPUs: a neighbour on a shared host
        # slows one CPU at a time, so each job also gets samples elsewhere.
        rotation = i // 2 if tracer is not None else i
        os.sched_setaffinity(0, {cpus_allowed[rotation % len(cpus_allowed)]})
        if traced:
            tracer.reset_pass(record=not results[True])
            tracer.install()
            try:
                walls, cpus, outputs = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            stats = dict(tracer.stats)
        else:
            walls, cpus, outputs = run_pass(jobs)
            stats = None
        check_repeat(jobs, outputs, keys, ledger)
        results[traced].append((walls, cpus, stats))
        last = sum(walls)
        i += 1
    os.sched_setaffinity(0, cpus_allowed)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quiet_pass(passes, which: int) -> float:
    """One pass on an undisturbed host: the sum over jobs of each job's
    fastest time in the run (`which` 0: wall, 1: CPU).

    Other tenants of a shared host slow every process on it by up to half
    for stretches of 5-30 s, and CPU time inflates with wall time, so a
    pass median drifts with the neighbours' load.  Interference only ever
    adds time; a job's minimum over the run is its cost without it.
    """
    per_job = zip(*(p[which] for p in passes))
    return sum(min(times) for times in per_job)


def end_to_end(passes, setup_times, ledger) -> dict:
    return {
        "wall_s": quiet_pass(passes, 0),
        "cpu_s": quiet_pass(passes, 1),
        "setup_s": min(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - ledger.failed / ledger.attempted,
    }


def per_layer(names, results, field_setup, ledger) -> tuple[dict, dict]:
    """Per-layer values, and the exact counts that must repeat run to run."""
    traced = [s for _, _, s in results[True]]
    counts = {k: v for k, v in traced[0].items() if not k.endswith("_s")}
    values = {}
    for name in names:
        if name == "field.setup_s":
            values[name] = field_setup
        elif name == "bench.trace_overhead_s":
            values[name] = quiet_pass(results[True], 0) - quiet_pass(results[False], 0)
        elif name == "bench.error_rate":
            values[name] = ledger.failed / ledger.attempted
        elif name == "grs.solve_multipliers.hit_ratio":
            attempts = counts.get("grs.solve_multipliers.attempts", 0)
            found = counts.get("grs.solve_multipliers.found", 0)
            values[name] = found / attempts if attempts else 0.0
        elif name.endswith("_s"):
            values[name] = median([s.get(name, 0.0) for s in traced])
        else:
            values[name] = counts.get(name, 0)
    return values, counts


def check_counts(workload, seed, results, counts, ledger) -> None:
    """Exact counts must repeat pass to pass, and run to run on the same sources."""
    for _, _, stats in results[True][1:]:
        again = {k: v for k, v in stats.items() if not k.endswith("_s")}
        if again != counts:
            diff = sorted(k for k in counts.keys() | again.keys() if counts.get(k) != again.get(k))
            ledger.problem(f"counts differ between traced passes: {diff[:10]}")
            break
    path = OUT / f"counts-{workload}-seed{seed}.json"
    record = {"fingerprint": source_fingerprint(), "counts": counts}
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier.get("fingerprint") == record["fingerprint"]:
            if earlier["counts"] != counts:
                ledger.problem(f"counts differ from the earlier run in {path.name}")
            return
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def write_spans(workload, seed, tracer) -> None:
    t0 = tracer.spans[0][2] if tracer.spans else 0.0
    rows = [[i, name, round(s - t0, 7), round(e - t0, 7), parent]
            for i, name, s, e, parent in tracer.spans]
    doc = {"fields": ["id", "name", "start_s", "end_s", "parent"], "dropped": tracer.dropped,
           "spans": rows}
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(doc, separators=(",", ":")))


def _number(x):
    return int(x) if isinstance(x, float) and x.is_integer() and abs(x) < 2**53 else x


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_library()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    env_before = environment()

    # Probe set-up first, so the warm-up pass absorbs any disturbance it leaves.
    setup_times = [] if args.trace else [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    fields = workloads.build_fields(args.workload)
    jobs = workloads.WORKLOADS[args.workload](fields, args.seed)
    ledger = Ledger()
    _, _, outputs = run_pass(jobs)  # warm-up: fills lazy caches, full checks
    keys = check_first(jobs, outputs, ledger)

    if args.trace:
        metric_spec = spec["per_layer"]
        field_times = []
        for _ in range(FIELD_SETUP_REPS):
            t = perf()
            workloads.build_fields(args.workload)
            field_times.append(perf() - t)
        tracer = Tracer()
        results = timed_passes(jobs, keys, ledger, args.seconds, tracer)
        values, counts = per_layer(
            [m["name"] for m in metric_spec], results, median(field_times), ledger
        )
        check_counts(args.workload, args.seed, results, counts, ledger)
        write_spans(args.workload, args.seed, tracer)
        passes = results[True]
    else:
        metric_spec = spec["end_to_end"]
        passes = timed_passes(jobs, keys, ledger, args.seconds)[False]
        values = end_to_end(passes, setup_times, ledger)
        counts = None

    metrics = {
        m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]} for m in metric_spec
    }
    env = {**env_before, "loadavg_after": environment()["loadavg"]}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_wall_s": [sum(w) for w, _, _ in passes],
        "job_min_wall_s": {
            job.name: min(times) for job, times in zip(jobs, zip(*(w for w, _, _ in passes)))
        },
        "env": env, "failures": ledger.messages,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": metrics, "counts": counts}, indent=1) + "\n"
    )
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"# {len(passes)} passes; env {json.dumps(env)}")
    result = {
        "correct": ledger.failed == 0 and not ledger.inconsistent,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
