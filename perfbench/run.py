"""End-to-end and per-layer benchmark of ebshrink.

Run from the repository root (no install needed, the package is imported
from ./src):

    python3 perfbench/run.py --workload fit_tall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1              # all workloads, one process each
    python3 perfbench/run.py --seed 1 --baseline   # plus a BLAS-pinned reference

With ``--trace 0`` the run times a closed loop of public calls for about
``--seconds`` (and at least the workload's fixed op count) and reports the
end-to-end metrics.  With ``--trace 1`` it makes the fixed op count of
calls, each twice (untraced and traced, alternating which goes first), and
reports the per-layer metrics of the traced calls plus the tracing
overhead; the fixed count makes the per-layer counts repeat exactly at a
seed.  The last line of standard output is one JSON object
(correct, attempted, failed, metrics); a human-readable table comes before
it.  Each run writes a BENCH_*.json record under perfbench/out/.

``--baseline`` also runs the same workload in a child process with both
OpenBLAS pools pinned to one thread, and stores its numbers in the record
as an ungated reference.  The benchmark itself sets no BLAS or
EBSHRINK_THREADS variable.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import envinfo  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sim_masked", "fit_tall", "cli_wide")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true", help="add a BLAS-pinned reference run")
    parser.add_argument("--pin-blas", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _record_path(args):
    parts = [f"BENCH_{args.workload or 'all'}", f"seed{args.seed}", f"trace{args.trace}"]
    if args.pin_blas:
        parts.append("pinned")
    return os.path.join(OUT, "_".join(parts) + ".json")


def _write_json(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=float)
        fh.write("\n")
    os.replace(tmp, path)


def _plain(value):
    return value.item() if hasattr(value, "item") else value


def _child(args, workload, pin):
    """Run one workload in its own process; returns its last-line JSON."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if pin:
        cmd.append("--pin-blas")
    elif args.baseline:
        cmd.append("--baseline")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return lines, json.loads(lines[-1])


class FitCapture:
    """Keeps (tag, loglik trace, h, iterations) of every fit, for the checks."""

    def __init__(self):
        self.fits = []
        self.tag = "setup"

    def wrap(self, fn):
        def after(_args, result):
            self.fits.append(
                (self.tag, list(result.loglik_trace), [tp.h for tp in result.posteriors], result.iterations)
            )

        return tracing.span_wrapper(None, None, fn, after)


def _call(workload, state, prepared):
    """(output, formatted error or None, seconds) of one public call."""
    start = time.perf_counter()
    try:
        output, error = workload.op(state, prepared), None
    except Exception:  # an op that raises is counted failed, the loop goes on
        output, error = None, traceback.format_exc(limit=3)
    return output, error, time.perf_counter() - start


class TracedCalls:
    """Makes every call of a traced run twice: untraced, and traced.

    The order alternates from call to call so that drift over the run
    falls on both sides; the untraced twin only contributes its time.
    """

    def __init__(self, tracer, patch, capture):
        self.tracer = tracer
        self.patch = patch
        self.capture = capture
        self.plain_s = 0.0

    def plain(self, workload, state, prepared):
        self.capture.tag = "plain"
        self.plain_s += _call(workload, state, prepared)[2]

    def traced(self, workload, state, prepared, i):
        self.capture.tag = "traced"
        with self.patch():
            state.tracer = self.tracer
            frame = self.tracer.begin("op", op=i)
            try:
                return _call(workload, state, prepared)
            finally:
                self.tracer.end(frame)
                state.tracer = None


def _loop(workload, state, seconds, min_ops, traced=None):
    """Closed loop: one caller, next call after the previous one returns.

    Makes at least ``min_ops`` calls and stops only on a multiple of
    ``workload.cycle`` calls: the first such point from which another cycle,
    at the mean call time so far, would end more than half a cycle past
    ``seconds``.  The first ``min_ops`` outputs are kept for the quality
    metrics.
    """
    latencies, kept, problems = [], [], []
    attempted = failed = ops = 0
    begin = time.perf_counter()
    i = 0
    while True:
        if i >= min_ops and i % workload.cycle == 0:
            elapsed = time.perf_counter() - begin
            if elapsed + 0.5 * workload.cycle * elapsed / max(i, 1) >= seconds:
                break
        prepared = workload.prepare(state, i)
        if traced is None:
            output, error, elapsed = _call(workload, state, prepared)
        else:
            if i % 2 == 0:
                traced.plain(workload, state, prepared)
            output, error, elapsed = traced.traced(workload, state, prepared, i)
            if i % 2 == 1:
                traced.plain(workload, state, prepared)
        if error is not None:
            attempted += 1
            failed += 1
            problems.append(f"op {i} raised: {error.strip().splitlines()[-1]}")
        else:
            n_ops, n_failed = workload.tally(output)
            attempted += n_ops
            failed += n_failed
            ops += n_ops - n_failed
            latencies.append(elapsed)
            workload.check(state, i, output, problems)
            if i < min_ops:
                kept.append(workload.keep(output))
        i += 1
    return {
        "latencies": latencies,
        "kept": kept,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "calls": i,
    }


def _set_up(workload, seed):
    """Set up SETUP_REPEATS times; returns (last state, seconds each, problems)."""
    state, times, digests = None, [], []
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.close(state)
        start = time.perf_counter()
        state = workload.inputs(seed)
        workload.warm(state)
        times.append(time.perf_counter() - start)
        digests.append(state.digest)
    problems = list(state.data.get("setup_problems", []))
    if len(set(digests)) != 1:
        problems.append("inputs differ between set-ups with one seed")
    return state, times, problems


def _measure(args, workload, state, setup_s, declared, record):
    """The untraced closed loop and its end-to-end metrics."""
    run = _loop(workload, state, args.seconds, workload.fixed_ops)
    quality = workload.quality(state, run["kept"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = measure.end_to_end(run["latencies"], run["ops"], setup_s, rss_mb, quality)
    _value, pct, beyond = measure.tail(run["latencies"])
    record["latency"] = {
        "samples": len(run["latencies"]),
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "per_call_s": run["latencies"],
    }
    record["quality"] = quality
    return run, measure.labelled(values, declared["end_to_end"])


def _measure_traced(args, workload, state, capture, declared, record):
    """The fixed calls, each untraced and traced, and the per-layer metrics."""
    tracer = tracing.Tracer()
    traced = TracedCalls(tracer, lambda: tracing.Patch(tracing.layer_targets(tracer)), capture)
    run = _loop(workload, state, 0.0, workload.fixed_ops, traced)
    summary = tracing.summarize(tracer)
    overhead = sum(run["latencies"]) / traced.plain_s - 1.0
    iterations = [fit[3] for fit in capture.fits if fit[0] == "traced"]
    values = measure.per_layer(summary, iterations, overhead)
    spans_path = _record_path(args)[:-5].replace("BENCH_", "spans_") + ".jsonl"
    os.makedirs(OUT, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record["trace_detail"] = {
        "untraced_s": traced.plain_s,
        "traced_s": sum(run["latencies"]),
        "self_share": measure.self_shares(summary),
        "spans": summary["spans"],
        "kernel_calls_by_parent": summary["leaf_by_parent"],
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return run, measure.labelled(values, declared["per_layer"])


def _print_report(args, record):
    print(f"{args.workload} seed={args.seed} trace={args.trace} correct={record['correct']}")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    print(f"  {'failed_frac':<26}{record['failed_frac']:>16.6g} 1")
    for name, entry in record["metrics"].items():
        print(f"  {name:<26}{entry['value']:>16.6g} {entry['unit']}")
    for name, entry in record.get("baseline_pinned", {}).get("metrics", {}).items():
        print(f"  pinned {name:<19}{entry['value']:>16.6g} {entry['unit']}")
    print(f"  record: {os.path.relpath(_record_path(args), ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_one(args):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ebshrink  # import time belongs to set-up
    import workloads

    import_s = time.perf_counter() - _T0
    if not os.path.abspath(ebshrink.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise RuntimeError(f"ebshrink imported from {ebshrink.__file__}, not from this checkout")
    if args.pin_blas and not envinfo.pin_blas():
        raise RuntimeError("could not pin both OpenBLAS pools")
    declared = measure.load_declared(ROOT)
    workload = workloads.make(args.workload, OUT)
    capture = FitCapture()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_blas": args.pin_blas,
        "env": envinfo.environment(ROOT),
    }
    state = None
    try:
        with tracing.Patch([(m, "fit", capture.wrap) for m in (ebshrink.em, ebshrink.simulate, ebshrink.cli)]):
            state, setup_times, problems = _set_up(workload, args.seed)
            setup_s = import_s + statistics.median(setup_times)
            record["setup"] = {"import_s": import_s, "repeats_s": setup_times, "input_digest": state.digest}
            capture.tag = "run"
            if args.trace:
                run, metrics = _measure_traced(args, workload, state, capture, declared, record)
            else:
                run, metrics = _measure(args, workload, state, setup_s, declared, record)
    finally:
        if state is not None:
            workload.close(state)

    for _tag, loglik_trace, h, _iters in capture.fits:
        problems.extend(measure.check_fit(loglik_trace, h))
    problems.extend(run["problems"])
    if run["failed"]:
        problems.append(f"{run['failed']} of {run['attempted']} ops failed")
    for entry in metrics.values():
        entry["value"] = _plain(entry["value"])
    record.update(
        correct=not problems,
        problems=problems[:50],
        attempted=run["attempted"],
        failed=run["failed"],
        failed_frac=run["failed"] / run["attempted"],
        calls=run["calls"],
        fits_checked=len(capture.fits),
        metrics=metrics,
    )
    if args.baseline and not args.pin_blas:
        _lines, pinned = _child(args, args.workload, pin=True)
        record["baseline_pinned"] = {"note": "both OpenBLAS pools at 1 thread; not gated", **pinned}
    _write_json(_record_path(args), record)
    _print_report(args, record)
    return 0 if record["correct"] else 1


def run_all(args):
    """Every workload in its own process; one combined record."""
    combined = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        lines, last = _child(args, name, pin=False)
        for line in lines[:-1]:
            print(line)
        path = _record_path(argparse.Namespace(**{**vars(args), "workload": name}))
        with open(path, encoding="utf-8") as fh:
            combined["workloads"][name] = json.load(fh)
        result["correct"] = result["correct"] and last["correct"]
        result["attempted"] += last["attempted"]
        result["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = entry
    combined.update(result)
    _write_json(_record_path(args), combined)
    print(f"combined record: {os.path.relpath(_record_path(args), ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None):
    args = _parse(argv)
    if args.seconds < 0:
        raise SystemExit("--seconds must be nonnegative")
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
