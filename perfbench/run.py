"""spectr benchmark: decode_hot, decode_cold and exact_verify.

    python3 perfbench/run.py --workload decode_hot --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, seed 0
    python3 perfbench/run.py --short          # every workload on tiny inputs

Run it from the root of a source checkout; spectr is imported from its
``src/``. Each run times set-up in several fresh interpreters, then measures
whole rounds of the workload in one more for ``--seconds``, checks the outputs
apart from the program and prints every metric with its unit. Times are CPU
times calibrated against the reference computations in reference.py. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones. The exit code is 1 when a check fails and 2 when the
benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import STARTUP_REFERENCE_S  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up interpreters alternate with reference interpreters, and each set-up
# is calibrated by the mean of the references just before and after it. One
# set-up interpreter runs first and is discarded: it fills the bytecode caches,
# as any earlier use would.
SETUP_SAMPLES = 19
SHORT_SETUP_SAMPLES = 2
# Every workload run ends within this many seconds of wall time.
RUN_LIMIT_S = 170.0
RESULTS = HERE / "results"

END_TO_END = (
    ("tok_per_s", "tok/s"),
    ("block_efficiency", "tok/call"),
    ("cases_per_s", "case/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    """Start worker.py in a fresh interpreter and parse its last line."""
    if timeout <= 0:
        raise BenchError(f"no time left for worker {' '.join(args)}")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err.strip()}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker {' '.join(args)} printed no result: {exc}") from exc


def run_workload(name: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    started = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    flag = "1" if short else "0"
    samples = SHORT_SETUP_SAMPLES if short else SETUP_SAMPLES
    run_worker(["setup", name, str(seed), flag], left())
    setups, references = [], [run_worker(["reference"], left())["reference_s"]]
    for _ in range(samples):
        setups.append(run_worker(["setup", name, str(seed), flag], left()))
        references.append(run_worker(["reference"], left())["reference_s"])
    res = run_worker(["measure", name, str(seed), str(seconds), "1" if trace else "0", flag],
                     left())
    res["setup_samples"] = setups
    res["startup_reference_s"] = references

    def setup_median(key: str) -> float:
        return statistics.median(s[key] for s in setups)

    if trace:
        # Per-layer times are raw: CPU seconds for set-up, wall seconds for spans.
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = setup_median("import_s")
        metrics["setup.inputs_s"] = setup_median("inputs_s")
        units = {n: u for n, u, _ in LAYER_METRICS}
    else:
        round_s = statistics.median(res["calibrated_round_s"])
        fig = res["figures"]
        metrics = {
            "tok_per_s": fig["tokens"] / round_s,
            "block_efficiency": fig["block_efficiency"],
            "cases_per_s": fig["cases"] / round_s,
            "setup_s": STARTUP_REFERENCE_S * statistics.median(
                s["setup_s"] / ((before + after) / 2)
                for s, before, after in zip(setups, references, references[1:])),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        res["raw"] = {"round_cpu_s": statistics.median(res["round_cpu_s"]),
                      "setup_cpu_s": setup_median("setup_s"),
                      "startup_reference_s": statistics.median(references)}
        units = dict(END_TO_END)
    res["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(res, indent=1, default=str) + "\n")
    return {
        "correct": not res["check_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "report": res,
    }


def print_report(name: str, result: dict) -> None:
    res = result["report"]
    print(f"== {name} (seed {res['seed']}): {len(res['round_cpu_s'])} rounds, "
          f"{res['ops_per_round']} operations per round")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted = {result['attempted']}, failed = {result['failed']}")
    if "raw" in res:
        print("  raw CPU medians: " + ", ".join(f"{k} = {v:.4f}" for k, v in res["raw"].items()))
    if "trace_overhead" in res:
        print(f"  tracing overhead = {res['trace_overhead']:.3f}x the untraced round time")
    for key, value in res["stats"].items():
        print(f"  check statistic {key} = {value:.3f}")
    for text in res["errors"]:
        print(f"  failed operation: {text}")
    for text in res["check_failures"]:
        print(f"  CHECK FAILED: {text}")
    print(f"  checks: {'PASS' if result['correct'] else 'FAIL'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default 20, or 1 with --short)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="tiny inputs and fewer set-up samples, for a quick end-to-end test")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.short else 20.0)
    if not (ROOT / "src" / "spectr" / "__init__.py").is_file():
        print(f"error: no spectr sources under {ROOT / 'src'}; run from a spectr checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace), args.short)
            print_report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results.values())
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
