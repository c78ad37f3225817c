"""bfclab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload degree-sym --seed 1 --seconds 15 --trace 0

Drives the package from outside in a closed loop with one client: one op at
a time, no threads.  The op list is a pure function of the workload and the
seed (``workloads.py``); every answer is checked after the timed loop
against ``reference.py``, which shares no code with the package.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See ``bench/README.md``.
"""

import os

# One BLAS/OpenMP thread: the ops are single-threaded Python around small
# dense kernels, and extra BLAS threads only add run-to-run noise.  This
# must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Pin the process to one CPU, the highest-numbered one it may use (the
# lowest tends to take the interrupts), so the loop does not migrate.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: A run holds at least this many ops, so that ten lie beyond the p90.
MIN_OPS = 100
#: Reported for a percentile that falls on a failed op (more than a tenth
#: of the run failed); any finite latency limit is below it.
FAILED_LATENCY_MS = 1e12
#: Status of an op whose traced and untraced runs disagree.
TRACED_DIFFERS = "traced-answer-differs"


class OpCapExceeded(BaseException):
    """Raised by the per-op timer.  A BaseException, so that no
    ``except Exception`` inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise OpCapExceeded()


# ---------------------------------------------------------------------------
# Package import and inputs
# ---------------------------------------------------------------------------

def import_package():
    """Fresh import of bfclab from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "bfclab" or
                 m.startswith("bfclab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("bfclab")
    if Path(pkg.__file__).resolve().parent != SRC / "bfclab":
        raise ImportError(f"bfclab imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"bfclab.{m}")
        for m in ("functions", "linprog", "approxdeg", "measures", "noisy",
                  "verify")})


def build_inputs(op, bf, cache):
    """Package objects an op takes, built through ``bfclab.functions``."""
    fns = []
    for spec in op.fns:
        key = W.label(spec)
        if key not in cache:
            cache[key] = W.materialize(spec, bf.functions)
        fns.append(cache[key])
    if op.kind == W.TRIAL:
        mode, t, gamma, repeats, bits, seed = op.extra
        fns.append(bf.noisy.MajorityVoteAlgorithm(fns[0], gamma, repeats))
    return tuple(fns)


def report_checks(report) -> dict:
    return {c.name: (c.status, c.values) for c in report.checks}


def execute(op, inputs, bf):
    """Run one op; returns its answer."""
    if op.kind == W.DEGREE:
        f = inputs[0]
        return bf.approxdeg.adeg(f) if f.is_total else bf.approxdeg.bdeg(f)
    if op.kind == W.CHAIN:
        return report_checks(bf.verify.verify_bs_chain(*inputs))
    if op.kind == W.PROR_SUITE:
        return report_checks(bf.verify.verify_pror(list(inputs)))
    if op.kind == W.MEASURE:
        return bf.measures.measure_function(inputs[0])
    mode, t, gamma, repeats, bits, seed = op.extra
    f, alg = inputs
    return bf.noisy.run_composed_trial(alg, f, list(bits), t, seed)


def timed_call(op, inputs, bf, cap):
    """(seconds, status, answer); status is "ok", "capped" or the name of
    the exception raised."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        answer = execute(op, inputs, bf)
        status = "ok"
    except OpCapExceeded:
        answer, status = None, "capped"
    except Exception as exc:  # the op failed; the run goes on
        answer, status = None, type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, status, answer


def setup_once(args, tracer):
    """Import, input generation and one untimed warm-up op."""
    bf = import_package()
    if tracer is not None:
        tracer.install(bf)
    rounds = W.build_rounds(args.workload, args.seed, args.tiny)
    cache = {}
    inputs = [[build_inputs(op, bf, cache) for op in ops] for ops in rounds]
    warm = W.WARMUP[args.workload]
    timed_call(warm, build_inputs(warm, bf, cache), bf,
               W.CAP_S[args.workload])
    if tracer is not None:
        tracer.uninstall()
    return bf, rounds, inputs


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_record() -> dict:
    import ctypes
    import numpy as np

    rec = {"blas": "unknown", "blas_threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["blas_threads"] = fn()
                break
    return rec


def run_record(args, op_hash) -> dict:
    import numpy as np

    rec = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "op_list_sha256": op_hash,
        "cap_s": W.CAP_S[args.workload],
    }
    rec.update(blas_record())
    return rec


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------

def verify(op, inputs, answer) -> str | None:
    import reference as R

    if op.kind == W.DEGREE:
        f = inputs[0]
        return (R.check_table(op.fns[0], f)
                or R.check_degree(op.fns[0], answer, bounded=not f.is_total))
    if op.kind == W.CHAIN:
        names = tuple(W.label(s) for s in op.fns)
        return R.check_chain(op.fns, answer, W.KNOWN_RED_CHAIN.get(names))
    if op.kind == W.PROR_SUITE:
        return R.check_pror_suite(op.fns, answer)
    if op.kind == W.MEASURE:
        return (R.check_table(op.fns[0], inputs[0])
                or R.check_measures(op.fns[0], answer))
    return R.check_trial(op.fns[0], op.extra, answer)


def check_answers(executed) -> dict:
    """label -> None (right) or a reason (wrong) for every op that returned.
    Repeats of an op must give the first answer again."""
    first = {}
    verdict = {}
    for op, inputs, seconds, status, answer in executed:
        if status != "ok":
            continue
        if op.label not in first:
            first[op.label] = answer
            verdict[op.label] = verify(op, inputs, answer)
        elif answer != first[op.label] and verdict[op.label] is None:
            verdict[op.label] = "answer differs from the op's first answer"
    groups = {}
    for op, inputs, seconds, status, answer in executed:
        if op.kind == W.TRIAL and status == "ok":
            groups.setdefault(op.group, []).append(answer.correct)
    for op, *_ in executed:
        rate = groups.get(op.group)
        if op.kind == W.TRIAL and rate and sum(rate) < 2 * len(rate) / 3:
            verdict[op.label] = verdict.get(op.label) or (
                f"group {op.group} success rate {sum(rate)}/{len(rate)} < 2/3")
    return verdict


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def percentile_ms(latencies, p) -> float:
    """Nearest-rank percentile; failed ops are infinite."""
    ranked = sorted(latencies)
    value = ranked[math.ceil(p * len(ranked)) - 1]
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1e3


def order(rounds, inputs):
    """Ops in run order: whole rounds, cycling if the run outlasts them."""
    r = 0
    while True:
        k = r % len(rounds)
        yield [(op, inp) for op, inp in zip(rounds[k], inputs[k])]
        r += 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one op per input family, no capped tail "
                         "(self-test only)")
    args = ap.parse_args(argv)

    if not (SRC / "bfclab" / "__init__.py").is_file():
        print(f"error: no bfclab package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    cap = W.CAP_S[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    bf, rounds, inputs = setup_once(args, tracer)
    setups = [time.perf_counter() - PROCESS_START]
    op_hash = W.op_list_hash(rounds)
    # The untraced run repeats the set-up at even steps of loop time, so
    # that the median samples the machine at many moments of the run, not
    # only at its start.  Set-up time is kept out of the loop clock.
    setup_repeats = SETUP_REPEATS if tracer is None and not args.tiny else 1
    setup_step = args.seconds / setup_repeats

    def repeat_setup():
        start = time.perf_counter()
        setup_once(args, None)
        setups.append(time.perf_counter() - start)

    executed = []       # (op, inputs, seconds, status, answer)
    overhead = [0.0, 0.0]   # untraced, traced seconds over ops that returned
    min_ops = 1 if args.tiny else MIN_OPS
    loop_s = 0.0
    resumed = time.perf_counter()
    for batch in order(rounds, inputs):
        for op, inp in batch:
            if tracer is None:
                dt, status, answer = timed_call(op, inp, bf, cap)
                if (len(setups) < setup_repeats and loop_s + time.perf_counter()
                        - resumed >= len(setups) * setup_step):
                    loop_s += time.perf_counter() - resumed
                    repeat_setup()
                    resumed = time.perf_counter()
            else:
                # Each op runs untraced and traced, in alternating order so
                # that warm-up effects cancel in trace.overhead_frac.
                first = len(executed) % 2 == 0
                if first:
                    dt, status, answer = timed_call(op, inp, bf, cap)
                tracer.op = op.label
                tracer.install(bf)
                try:
                    dt2, status2, answer2 = timed_call(op, inp, bf, cap)
                finally:
                    tracer.uninstall()
                if not first:
                    dt, status, answer = timed_call(op, inp, bf, cap)
                if status == status2 == "ok":
                    overhead[0] += dt
                    overhead[1] += dt2
                if (status2, answer2) != (status, answer):
                    status = TRACED_DIFFERS
            executed.append((op, inp, dt, status, answer))
        # The traced run measures a fixed op set: the fewest whole rounds
        # that hold MIN_OPS ops.
        if len(executed) >= min_ops and (
                tracer is not None
                or loop_s + time.perf_counter() - resumed >= args.seconds):
            break
    loop_s += time.perf_counter() - resumed
    while len(setups) < setup_repeats:
        repeat_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    verdict = check_answers(executed)
    check_s = time.perf_counter() - check_start
    failed = [status != "ok" or verdict.get(op.label) is not None
              for op, _, _, status, _ in executed]
    wrong = sorted({op.label for op, _, _, status, _ in executed
                    if status == TRACED_DIFFERS
                    or (status == "ok" and verdict.get(op.label))})
    attempted = len(executed)
    n_failed = sum(failed)
    latencies = [math.inf if bad else dt
                 for (_, _, dt, _, _), bad in zip(executed, failed)]

    record = run_record(args, op_hash)
    record["answers_sha256"] = hashlib.sha256(
        repr([(op.label, status, answer) for op, _, _, status, answer
              in executed]).encode()).hexdigest()
    record["samples"] = {"setup_s": len(setups), "latency": attempted,
                         "rounds": math.ceil(attempted / len(rounds[0]))}
    record["setups_s"] = setups
    record["loop_s"] = loop_s
    record["check_s"] = check_s
    record["failed_frac"] = n_failed / attempted
    record["failures"] = sorted({
        f"{op.label}: {status if status != 'ok' else verdict[op.label]}"
        for (op, _, _, status, _), bad in zip(executed, failed) if bad})

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_ops_s": ((attempted - n_failed) / loop_s, "ops/s"),
            "latency_p50_ms": (percentile_ms(latencies, 0.5), "ms"),
            "latency_p90_ms": (percentile_ms(latencies, 0.9), "ms"),
            "ok_frac": ((attempted - n_failed) / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        units = {k["name"]: k["unit"] for k in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = (
            overhead[1] / overhead[0] - 1.0 if overhead[0] else 0.0)
        metrics = {k: (v, units[k]) for k, v in layer.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    ops = [[op.label, dt, status] for op, _, dt, status, _ in executed]
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"record": record, "metrics": metrics, "ops": ops}, indent=1) + "\n")

    print(f"run {json.dumps(record)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for label in wrong:
        print(f"  WRONG {label}: {verdict.get(label) or TRACED_DIFFERS}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
