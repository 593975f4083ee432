"""Benchmark of the gaussian-eof package: workloads, metrics and gates.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-eof --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With --trace 0 a run measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it measures the per-layer metrics, from spans recorded around the
package's public functions.  --seconds sets a fixed number of whole passes
over the inputs, sized so that a run of the seed commit on a 2-vCPU host
measures for about that long; the operations a run attempts, and those that
fail, thus depend on its arguments alone.  Every run checks the program's
outputs and prints the environment, each metric by name with its unit, the
gates, and as its last line one JSON object with the keys correct,
attempted, failed and metrics.  It exits 1 if a gate fails and 2 if the checkout holds no program.
`--workload all` runs the four workloads with tracing off and also names the
metrics after the workload they belong to.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import inputs
import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SPANS_DIR = HERE / "out"

SETUP_REPEATS = 3
STARTUP_REPEATS = 5
IMPORT_REPEATS = 3
DRAW_REPEATS = 3
UNTRACED_SHARE = 1.0 / 3.0   # of --seconds, in a traced run
# a traced run times exactly this many whole passes, so that its counts and
# busy times are those of a fixed input set
TRACED_PASSES = 2

# The workload-specific names of the end-to-end metrics, as later changes
# quote them.
METRIC_ALIASES = {
    "batch-eof": {"throughput_per_s": "eof_states_per_s",
                  "latency_p50_ms": "eof_p50_ms", "latency_tail_ms": "eof_p99_ms"},
    "bounds-sweep": {"throughput_per_s": "bounds_states_per_s",
                     "latency_p50_ms": "bounds_p50_ms",
                     "latency_tail_ms": "bounds_p95_ms"},
    "cli-oneshot": {"throughput_per_s": "cli_invocations_per_s",
                    "latency_p50_ms": "cli_eof_s", "latency_tail_ms": "cli_table1_s"},
    "decomposition-mc": {"throughput_per_s": "mc_samples_per_s",
                         "latency_p50_ms": "mc_verify_p50_ms",
                         "latency_tail_ms": "mc_verify_p80_ms"},
}


def aliased(workload, key, value, unit):
    """The workload-specific name of an end-to-end metric, with its value."""
    alias = METRIC_ALIASES[workload].get(key, key)
    if alias.endswith("_s") and unit == "ms":
        return alias, value / 1e3, "s"
    return alias, value, unit


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import gaussian_eof from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gaussian_eof" / "__init__.py").is_file():
        fail(f"no program to measure: {src / 'gaussian_eof'} is missing")
    sys.path.insert(0, str(src))
    import gaussian_eof
    if Path(gaussian_eof.__file__).resolve().parent != src / "gaussian_eof":
        fail(f"imported gaussian_eof from {gaussian_eof.__file__}, not {src}")
    return gaussian_eof


def commit():
    """HEAD of the checkout if it is a git repository, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(args):
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit(), "seed": args.seed,
            "GAUSS_EOF_THREADS": os.environ["GAUSS_EOF_THREADS"], "workload": args.workload,
            "trace": args.trace, "seconds": args.seconds}


def wall(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=workloads.CLI_TIMEOUT_S, check=False)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:4]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return dt, proc


def scipy_import_s(importtime_stderr):
    """Cumulative time of the outermost scipy imports under -X importtime."""
    entries = []
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue   # header line
        name = parts[2]
        entries.append((len(name) - len(name.lstrip()), int(parts[1]), name.strip()))
    # the output is post-order; reversed, every import follows its parent
    total, ancestors = 0, []
    for depth, cumulative, name in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in ancestors):
            total += cumulative
        ancestors.append((depth, is_scipy))
    return total / 1e6


def cli_probe(env):
    """Interpreter start-up, package import and its scipy share, fresh processes."""
    startup = [wall([sys.executable, "-c", "pass"], env)[0]
               for _ in range(STARTUP_REPEATS)]
    code = ("import time\nt = time.perf_counter()\nimport gaussian_eof\n"
            "print(time.perf_counter() - t)")
    # -X importtime slows every import, so it only gives the scipy share
    imports = [float(wall([sys.executable, "-c", code], env)[1].stdout)
               for _ in range(IMPORT_REPEATS)]
    scipy_s = [scipy_import_s(wall([sys.executable, "-X", "importtime", "-c",
                                    "import gaussian_eof"], env)[1].stderr)
               for _ in range(IMPORT_REPEATS)]
    return {"cli.python_startup_s": statistics.median(startup),
            "cli.import_s": statistics.median(imports),
            "cli.import_scipy_s": statistics.median(scipy_s)}


def layer_probe(g, tracer, seed, table1):
    """Every wrapped layer on a few fixed states, so each traced run reports
    every per-layer metric whatever its workload calls.  Returns the Table 1
    reports."""
    rng = np.random.default_rng([seed, 1])
    tracer.state = "probe"
    reports = []
    for state in inputs.table1_states(table1):
        g.eof_from_cm(inputs.disguise(rng, state))
        reports.append(g.bounds_report(g.StandardFormParams(*state)))
    for _ in range(2):
        g.verify_reconstruction(g.StandardFormParams(*inputs.symmetric_state(rng)),
                                n_samples=inputs.MC_SAMPLES,
                                seed=int(rng.integers(2 ** 31)))
    try:
        g.decomposition_spec(g.StandardFormParams(*inputs.general_state(rng)))
    except g.GaussianEofError:
        pass   # NotPsd on asymmetric states: counted by the span
    return reports


def samples_per_s(g, seed, threads):
    """Median rate of untraced sample_displacements calls at `threads`."""
    rng = np.random.default_rng([seed, 2])
    spec = g.decomposition_spec(g.StandardFormParams(*inputs.symmetric_state(rng)))
    os.environ["GAUSS_EOF_THREADS"] = str(threads)
    try:
        rates = []
        for i in range(DRAW_REPEATS):
            t0 = time.perf_counter()
            g.sample_displacements(spec, inputs.MC_SAMPLES, seed + i)
            rates.append(inputs.MC_SAMPLES / (time.perf_counter() - t0))
    finally:
        os.environ["GAUSS_EOF_THREADS"] = str(workloads.THREADS)
    return statistics.median(rates)


def measure_untraced(wl, seconds):
    env = workloads.child_env(ROOT)
    setups = [wall(wl.setup_argv(), env)[0] for _ in range(SETUP_REPEATS)]
    wl.prepare(traced=False)
    wl.op(wl.warm_item())   # warm-up, untimed
    records, stats = workloads.run_loop(wl, wl.passes(seconds))
    throughput, p50, tail = wl.summarize(records)
    metrics = {"setup_s": statistics.median(setups), "throughput_per_s": throughput,
               "latency_p50_ms": p50, "latency_tail_ms": tail}
    inputs_n = f"{len(wl.items)} inputs x {stats['passes']} passes"
    counts = {"setup_s": f"{SETUP_REPEATS} processes", "throughput_per_s": inputs_n,
              "latency_p50_ms": inputs_n, "latency_tail_ms": inputs_n}
    return metrics, counts, stats


def measure_traced(wl, g, seconds, seed, table1):
    wl.prepare(traced=True)
    wl.op(wl.warm_item())   # warm-up, untimed
    # the untraced rate, for trace.overhead_ratio
    _, plain = workloads.run_loop(wl, wl.passes(seconds * UNTRACED_SHARE, 1))
    tracer = Tracer()
    with tracer.install():
        _, traced = workloads.run_loop(wl, TRACED_PASSES, tracer)
        reports = layer_probe(g, tracer, seed, table1)
    metrics = layer_metrics(tracer.spans)
    draws = "decomposition.sample_displacements"
    metrics[f"{draws}.samples_per_s"] = samples_per_s(g, seed, workloads.POOL_THREADS)
    metrics[f"{draws}.samples_per_s_1thread"] = samples_per_s(g, seed, 1)
    metrics.update(cli_probe(workloads.child_env(ROOT)))
    metrics["table1.cells_out_of_tolerance"] = workloads.table1_cells_out(table1, reports)
    metrics["trace.overhead_ratio"] = ((traced["work"] / traced["op_ns"])
                                       / (plain["work"] / plain["op_ns"]))
    tracer.write(SPANS_DIR / f"spans-{wl.name}-seed{seed}.jsonl")
    stats = {k: plain[k] + traced[k]
             for k in ("attempted", "failed", "wrong", "unexpected")}
    stats["errors"] = dict(plain["errors"])
    for k, v in traced["errors"].items():
        stats["errors"][k] = stats["errors"].get(k, 0) + v
    print(f"spans {len(tracer.spans)} recorded, {traced['attempted']} traced operations")
    return metrics, {}, stats


def run_workload(name, args, g, table1, spec):
    wl = workloads.WORKLOADS[name](g, ROOT, args.seed, table1)
    print("env " + json.dumps(environment(args)), flush=True)
    print(f"workload {name}: {len(wl.items)} inputs per pass, closed loop, one caller")
    if args.trace:
        metrics, counts, stats = measure_traced(wl, g, args.seconds, args.seed, table1)
        wanted = spec["per_layer"]
    else:
        metrics, counts, stats = measure_untraced(wl, args.seconds)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    gates = [("outputs", stats["wrong"] == 0,
              f"{stats['wrong']} wrong outputs of {stats['attempted']} operations"),
             ("failures", stats["unexpected"] == 0,
              f"{stats['unexpected']} errors other than the known ones")]
    gates += wl.finish()
    for key, value in metrics.items():
        n = f" ({counts[key]})" if key in counts else ""
        alias = ""
        if not args.trace and key != "setup_s":
            alias = " | {} = {!r} {}".format(*aliased(name, key, value, units[key]))
        print(f"metric {key} = {value!r} {units[key]}{n}{alias}")
    failed_ratio = stats["failed"] / stats["attempted"]
    print(f"metric ops_failed_ratio = {failed_ratio!r} ratio "
          f"(failed={stats['failed']} attempted={stats['attempted']} "
          f"errors={json.dumps(stats['errors'])})")
    for gate, ok, detail in gates:
        print(f"gate {name} {gate}: {'pass' if ok else 'FAIL'} ({detail})")
    return {"correct": all(ok for _, ok, _ in gates),
            "attempted": stats["attempted"], "failed": stats["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all" and args.trace:
        parser.error("--workload all runs with tracing off")
    g = load_package()
    os.environ["GAUSS_EOF_THREADS"] = str(workloads.THREADS)
    table1 = inputs.load_table1(ROOT)
    if args.workload != "all":
        result = run_workload(args.workload, args, g, table1, spec)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            one = run_workload(name, args, g, table1, spec)
            result["correct"] = result["correct"] and one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            for key, m in one["metrics"].items():
                alias, value, unit = aliased(name, key, m["value"], m["unit"])
                result["metrics"][f"{name}.{alias}"] = {"value": value, "unit": unit}
            result["metrics"][f"{name}.ops_failed_ratio"] = {
                "value": one["failed"] / one["attempted"], "unit": "ratio"}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
