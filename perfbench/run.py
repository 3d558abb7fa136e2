"""unitarity-kit benchmark: seeded closed-loop workloads over classify,
analyze and the CLI, with an independent oracle and an outside-in trace.

    python3 perfbench/run.py --workload classify-accept --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of a checkout: the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 its per-layer ones.  A full
record (environment, size mix, op counts, failures, every traced name) is
written to .perfbench_out/, and with --trace 1 the spans too.  See
perfbench/README.md for what the numbers mean.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and (through the
# environment) in every process this benchmark starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 9     # fresh interpreters per set-up measurement (median)
TRACE_ROUNDS = 4      # rounds in the traced pass; fixed, so counts repeat
PROBE_TIMEOUT = 60
# Calibration kernel times that define the reference speed.
CAL_REF_PYTHON_S = 0.020
CAL_REF_MEMORY_S = 0.006

sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """unitarity_kit from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "unitarity_kit", "__init__.py")):
        fail(f"no program source at {SRC}/unitarity_kit; run from a checkout root")
    sys.path.insert(0, SRC)
    import unitarity_kit
    import unitarity_kit.cli  # noqa: F401  (cli is not imported by the package)

    if not os.path.abspath(unitarity_kit.__file__).startswith(SRC + os.sep):
        fail(f"imported unitarity_kit from {unitarity_kit.__file__}, not from {SRC}")
    return unitarity_kit


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment record

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "not a git checkout"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """One client: each op starts when the previous one has returned.  Only
    the program call is timed; the oracle runs between ops."""

    def __init__(self, uk, seed: int):
        self.uk = uk
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, recorder=None):
        """Times one program call; returns (seconds, outcome tag)."""
        if recorder is not None:
            recorder.begin_op(self.attempted)
        t0 = time.perf_counter()
        try:
            result, reason = workloads.execute(self.uk, op), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if recorder is not None:
            recorder.end_op()
        return elapsed, self.record(op, result, reason)

    def record(self, op, result, reason=None):
        """Counts one op and has the oracle judge its result; returns the
        outcome tag (verdict or witness kind)."""
        rng = np.random.default_rng([self.seed, 7, self.attempted])
        self.attempted += 1
        tag = "raised"
        if result is not None:
            try:
                reason, tag = workloads.judge(op, result, rng)
            except Exception as exc:  # output the oracle cannot read is wrong output
                reason, tag = f"unreadable result: {type(exc).__name__}: {exc}", "unreadable"
        if reason:
            self.failures.append(f"{op.cls}: {reason}")
        return tag

    def run_rounds(self, pool, rounds, recorder=None):
        """Runs the given round indices; returns per-round times, per-op
        (class, kind, expect, seconds, tag) records."""
        round_times, records = [], []
        for r in rounds:
            total = 0.0
            for op in workloads.round_ops(pool, r):
                seconds, tag = self.run_op(op, recorder)
                total += seconds
                records.append((op.cls, op.kind, op.expect, seconds, tag))
            round_times.append(total)
        return round_times, records

    def run_for(self, pool, seconds: float, first_round: int, calibration):
        """Whole rounds until `seconds` of wall time have passed, with one
        calibration sample after each round."""
        round_times, records = [], []
        start, r = time.perf_counter(), first_round
        while time.perf_counter() - start < seconds or not round_times:
            t, recs = self.run_rounds(pool, [r])
            round_times += t
            records += recs
            calibration.sample()
            r += 1
        return round_times, records


class Calibration:
    """Two fixed kernels of the benchmark's own code, timed to track the host.

    The speed of the shared host drifts by tens of percent over minutes,
    more than the changes this benchmark must resolve, and it hits
    Python-bound work harder than memory-bound work.  One kernel does what
    the program's small ops do (small LAPACK calls inside Python loops), the
    other what its large ops do (matrix-vector products beyond the caches).
    Neither runs program code, so a change to the program cannot change
    them.  Times are reported at a fixed reference speed: op timings through
    the geometric mean of both kernels, set-up (imports, pure Python)
    through the first.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = [workloads.haar(rng, k) * rng.uniform(0.5, 2.0, k)
                      for k in (2, 3, 4, 6, 8, 16, 32, 64)]
        self.big = rng.standard_normal((1024, 1024))  # 8 MB
        self.vec = rng.standard_normal(1024)
        self.python_s: list[float] = []
        self.memory_s: list[float] = []

    def sample(self) -> float:
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(12):
            for m in self.small:
                u, s, vh = np.linalg.svd(m)
                acc += float(s[0]) + abs(np.vdot(np.kron(u[:, 0], vh[0]), np.kron(u[:, -1], vh[-1])))
                for i in range(m.shape[0]):
                    acc += abs(m[i, i])
        t1 = time.perf_counter()
        for _ in range(16):
            acc += float((self.big @ self.vec)[0])
        t2 = time.perf_counter()
        self.python_s.append(t1 - t0)
        self.memory_s.append(t2 - t1)
        return acc

    def python_factor(self) -> float:
        """Multiplies a measured time of Python-bound work into a
        reference-speed time."""
        return CAL_REF_PYTHON_S / statistics.median(self.python_s)

    def mixed_factor(self) -> float:
        """The same for program ops, which mix Python and LAPACK work."""
        memory = CAL_REF_MEMORY_S / statistics.median(self.memory_s)
        return math.sqrt(self.python_factor() * memory)


def oracle_self_test(uk) -> str | None:
    """Feeds the oracle honest answers, then tampered ones: a wrong verdict,
    a certificate with a changed factor, a bipartite witness with a changed
    state and an entropy witness with a changed entropy.  Each tampered
    answer must be counted as failed."""
    rng = np.random.default_rng(0)
    accept = workloads.accept_op(rng, "local/general/3x3")
    reject = workloads.reject_op(rng, "haar/3x3")
    entropy = workloads.entropy_op(rng, "depolarize-0.5/d4")
    honest = Loop(uk, 0)
    (local, e1, e2), (np_verdict, _, _), ent = (workloads.execute(uk, op)
                                                  for op in (accept, reject, entropy))
    for op, result in ((accept, (local, e1, e2)), (reject, (np_verdict, None, None)),
                       (entropy, ent)):
        honest.record(op, result)
    if honest.failures:
        return f"honest answers were judged failed: {honest.failures}"
    w, ew = np_verdict.witness, ent.witness
    tampered = (
        (reject, (local, e1, e2)),
        (accept, (dataclasses.replace(local, a=local.a * 1.001), e1, e2)),
        (reject, (dataclasses.replace(np_verdict, witness=dataclasses.replace(
            w, state=np.roll(w.state, 1))), None, None)),
        (entropy, dataclasses.replace(ent, witness=dataclasses.replace(
            ew, entropy_out=ew.entropy_out + 0.01))),
    )
    loop = Loop(uk, 0)
    for op, result in tampered:
        before = len(loop.failures)
        loop.record(op, result)
        if len(loop.failures) != before + 1:
            return f"a tampered {op.kind} answer was not counted as failed"
    return None


def summarize(round_times, records, ops_per_round) -> dict:
    latencies = [rec[3] for rec in records]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "throughput_ops_s": ops_per_round / statistics.median(round_times),
        "latency_ms_p50": 1e3 * deciles[4],
        "latency_ms_p90": 1e3 * deciles[8],
    }


def measure_setup(pool, workdir, calibration) -> list[float]:
    """Fresh-interpreter set-up: import plus the workload's first op, with a
    calibration sample after each probe."""
    probe_input = os.path.join(workdir, "setup-op.pkl")
    with open(probe_input, "wb") as fh:
        pickle.dump(workloads.round_ops(pool, 0)[0], fh)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), probe_input],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        calibration.sample()
    return times


def traced_metrics(loop, pool, records, untraced, record, spans_path):
    """Per-layer metrics from TRACE_ROUNDS traced rounds, plus the witness
    shares, the analyze accept/reject medians of the untraced records and
    the tracing overhead; writes the spans to spans_path.  Returns
    (metrics, trace check error or None)."""
    rec = tracer.Recorder()
    rec.install()
    try:
        traced_times, traced = loop.run_rounds(pool, range(TRACE_ROUNDS), rec)
    finally:
        rec.uninstall()
    n = len(traced)
    metrics = tracer.per_layer_metrics(rec, n)
    traced_tp = len(pool) / statistics.median(traced_times)
    metrics["trace.overhead_ratio"] = untraced["throughput_ops_s"] / traced_tp
    for kind in ("KernelVector", "ProductToEntangled", "EntangledToProduct", "NonFactorizablePhase"):
        metrics[f"classifier.witness.{kind}.share"] = sum(t[4] == kind for t in traced) / n
    for side, accepted in (("accept", True), ("reject", False)):
        lat = [t[3] for t in records
               if t[1] == "analyze" and (t[2] != oracle.NOT_PRESERVING) == accepted]
        metrics[f"entropy_dynamics.{side}.ms_p50"] = 1e3 * statistics.median(lat) if lat else 0.0
    error = rec.check()
    record.update(absent=rec.absent, traced_ops=n, trace_check=error or "ok")
    rec.write(spans_path)
    return metrics, error


# ---------------------------------------------------------------------------
# one workload

def run_workload(args, spec) -> dict:
    uk = import_program()
    name, seed = args.workload, args.seed
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        pool = workloads.build_pool(name, seed, workdir)
        ops_per_round = len(pool)
        loop = Loop(uk, seed)
        record = {"workload": name, "trace": args.trace, "run_seconds": args.seconds,
                  "environment": environment(seed), "size_mix": workloads.size_mix(name),
                  "ops_per_round": ops_per_round}
        self_test = oracle_self_test(uk)
        record["oracle_self_test"] = self_test or "ok"
        setup_cal, loop_cal = Calibration(), Calibration()
        if not args.trace:
            setup = measure_setup(pool, workdir, setup_cal)
            record["setup_s_samples"] = setup
        loop.run_rounds(pool, [0])  # warm-up: caches, lazy LAPACK init
        seconds = args.seconds if not args.trace else args.seconds / 2
        round_times, records = loop.run_for(pool, seconds, 1, loop_cal)
        record["measured_ops"] = len(records)
        record["measured_rounds"] = len(round_times)
        record["calibration_s"] = {
            "reference": {"python": CAL_REF_PYTHON_S, "memory": CAL_REF_MEMORY_S},
            "setup": {"python": setup_cal.python_s, "memory": setup_cal.memory_s},
            "loop": {"python": loop_cal.python_s, "memory": loop_cal.memory_s},
        }
        untraced = summarize(round_times, records, ops_per_round)
        trace_error = None
        if not args.trace:
            record["measured"] = dict(untraced, setup_s=statistics.median(setup))
            f = loop_cal.mixed_factor()
            metrics = {
                "throughput_ops_s": untraced["throughput_ops_s"] / f,
                "latency_ms_p50": untraced["latency_ms_p50"] * f,
                "latency_ms_p90": untraced["latency_ms_p90"] * f,
                "setup_s": statistics.median(setup) * setup_cal.python_factor(),
            }
            metrics["failed_ratio"] = len(loop.failures) / loop.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            metrics, trace_error = traced_metrics(loop, pool, records, untraced, record,
                                                  os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
        record["attempted"] = loop.attempted
        record["failures"] = loop.failures
        record["metrics"] = metrics
        with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for m in listed:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        else:
            print(f"perfbench: {m['name']} is absent from the program", file=sys.stderr)
    for failure in loop.failures[:10]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    if trace_error:
        print(f"perfbench: trace check failed: {trace_error}", file=sys.stderr)
    if self_test:
        print(f"perfbench: oracle self-test failed: {self_test}", file=sys.stderr)
    print(f"workload {name}  seed {seed}  ops/round {ops_per_round}  "
          f"measured ops {record['measured_ops']}  attempted {loop.attempted}  "
          f"failed {len(loop.failures)}  failed_ratio {len(loop.failures) / loop.attempted:.6g}")
    for key, value in out.items():
        print(f"  {key:52s} {value['value']:14.6g} {value['unit']}")
    return {
        "correct": not loop.failures and trace_error is None and self_test is None,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": out,
    }


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, status = [], 0
    for name in workloads.WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not result["correct"]
        rows.append((name, result))
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct {result['correct']}  attempted {result['attempted']}  "
              f"failed {result['failed']}  failed_ratio {ratio:.6g} 1")
        for key, value in result["metrics"].items():
            print(f"  {key:52s} {value['value']:14.6g} {value['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
