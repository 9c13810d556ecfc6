"""One fresh interpreter of the benchmark: a set-up sample, a reference sample, or a run.

run.py starts it with PYTHONPATH pointing at the checkout's ``src``:

    python3 perfbench/worker.py setup     <workload> <seed> <short>
    python3 perfbench/worker.py reference
    python3 perfbench/worker.py measure   <workload> <seed> <seconds> <trace> <short>

and reads the JSON object on its last line of standard output. Times are CPU
seconds of this process (``time.process_time``), so waiting for a core that
another process holds is not counted. Nothing but ``sys`` and ``time`` is
imported before the set-up is timed, so the harness adds nothing to it.
"""

import sys
import time

# Untraced runs take at least this many rounds; traced runs this many pairs of
# an untraced and a traced round.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2


def setup(workload: str, seed: int, short: bool):
    """Import spectr, build the model pair and the inputs; time each part."""
    start = time.process_time()
    import spectr
    import spectr.cli  # noqa: F401  (part of what a user of the command pays for)
    imported = time.process_time()
    import workloads
    wl = workloads.prepare(workload, seed, short)
    ready = time.process_time()
    # `ready` is the CPU time since the interpreter started, start-up included.
    times = {"import_s": imported - start, "inputs_s": ready - imported, "setup_s": ready}

    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    source = Path(spectr.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"error: spectr imported from {source}, not from this checkout's src/")
    return wl, times


def measure(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    wl, setup_times = setup(workload, seed, short)
    import resource
    import statistics

    import checks
    import reference
    import workloads

    deadline = time.perf_counter() + seconds
    first = first_print = None
    errors, cpu_s = [], []
    attempted = failed = mismatched = 0

    def timed_round(after_op=workloads.no_op):
        nonlocal first, first_print, attempted, failed, mismatched
        start = time.process_time()
        output, failures = workloads.run_round(wl, after_op)
        elapsed = time.process_time() - start
        attempted += wl.ops_per_round
        failed += len(failures)
        errors.extend(failures[:3])
        if first is None:
            first, first_print = output, workloads.fingerprint(output)
        elif workloads.fingerprint(output) != first_print:
            mismatched += 1
        return elapsed

    result: dict = {"workload": workload, "seed": seed, "setup": setup_times}
    repeat_failures = []
    if trace:
        # Untraced and traced rounds alternate, so their median CPU times give
        # the tracing overhead; every traced round must reproduce the first.
        import tracing
        tracer = tracing.Tracer()
        mods = workloads.spectr_modules()
        untraced_s, snapshots = [], []
        while len(cpu_s) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
            untraced_s.append(timed_round())
            tracer.reset()
            tracer.install(mods)
            try:
                cpu_s.append(timed_round())
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
        result["layers"], repeat_failures = fold_snapshots(snapshots)
        result["untraced_round_cpu_s"] = untraced_s
        result["trace_overhead"] = statistics.median(cpu_s) / statistics.median(untraced_s)
    else:
        calibrated = []
        while len(cpu_s) < MIN_ROUNDS or time.perf_counter() < deadline:
            clock = reference.RoundClock()
            timed_round(clock.after_op)
            cpu_s.append(clock.work_s)
            calibrated.append(clock.calibrated_s)
        result["calibrated_round_s"] = calibrated
    # Peak RSS of the workload, read before the checks load scipy.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    sd = workloads.spectr_modules()["spectr_decode"]
    if isinstance(wl, workloads.DecodeWorkload):
        check_failures, stats = checks.check_decode(wl, first, sd.block_efficiency, seed)
    else:
        check_failures, stats = checks.check_exact(wl, first)
    if mismatched:
        check_failures.append(f"{mismatched} round(s) differ from the first"
                              + (" (tracing changed the outputs)" if trace else ""))
    result.update({
        "round_cpu_s": cpu_s,
        "ops_per_round": wl.ops_per_round,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "figures": workloads.round_figures(first),
        "check_failures": check_failures + repeat_failures,
        "stats": stats,
    })
    return result


def fold_snapshots(snapshots: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced round (all must agree), self times as medians."""
    import statistics

    layers = dict(snapshots[0])
    failures = []
    for name in layers:
        if name.endswith("_s"):
            layers[name] = statistics.median(s[name] for s in snapshots)
        elif any(s[name] != layers[name] for s in snapshots):
            failures.append(f"per-layer count {name} differs between traced rounds")
    return layers, failures


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "reference":
        import reference
        result = {"reference_s": reference.startup_reference()}
    elif mode == "setup":
        _, result = setup(argv[1], int(argv[2]), argv[3] == "1")
    elif mode == "measure":
        result = measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5] == "1")
    else:
        raise SystemExit(f"error: unknown mode {mode!r}")
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
