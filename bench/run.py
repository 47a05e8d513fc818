"""Benchmark harness for mixexact: timed workloads and a traced per-layer run.

    python3 bench/run.py --workload fit-poisson-k3 --seed 7 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is always imported from the
checkout's own src/. With --trace 0 the run measures the end-to-end metrics
with tracing off; with --trace 1 it measures the per-layer metrics from
spans around the harness's calls into each mixexact module. The report goes
to stdout, and its last line is one JSON object: correct, attempted, failed
and metrics. A fuller record (inputs, environment, samples, and in traced
runs every span) is written under .bench_out/results/.

Load is a closed loop with one client: one job at a time, CLI processes one
after another, library calls at their default threads=1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("fit-poisson-k3", "cli-cold")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span it is read from, how spans are reduced); None
# marks the metrics computed directly rather than from one span name
LAYER_SOURCES = {
    "mixexact.import_s": None,
    "datasets.sample_s": ("datasets.sample", "median_s"),
    "cli.ingest_s": ("cli.ingest", "median_s"),
    "lattice.build_s": ("lattice.build", "median_s"),
    "lattice.build_rss_mb": ("lattice.build", "max:rss_rise_mb"),
    "lattice.entries": None,
    "lattice.successors": None,
    "lattice.collision_ratio": None,
    "lattice.dump_s": ("lattice.dump", "median_s"),
    "lattice.load_s": ("lattice.load", "median_s"),
    "lattice.dump_bytes": ("lattice.dump", "median:bytes"),
    "posterior.normalize_s": ("posterior.normalize", "median_s"),
    "posterior.summarize_s": ("posterior.summarize", "median_s"),
    "posterior.mass_concentration_s": ("posterior.mass_concentration", "median_s"),
    "posterior.expected_weights_s": ("posterior.expected_weights", "median_s"),
    "posterior.expected_component_means_s": ("posterior.expected_component_means", "median_s"),
    "posterior.marginal_component_s": ("posterior.marginal_component", "median_s"),
    "posterior.marginal_weight_s": ("posterior.marginal_weight", "median_s"),
    "posterior.marginal_fixed_grid_s": ("posterior.marginal_fixed_grid", "median_s"),
    "posterior.grid_members": None,
    "posterior.grid_distinct_members": None,
    "posterior.weight_grid_distinct_members": None,
    "oracle.posterior_s": ("oracle.posterior", "median_s"),
    "oracle.compare_s": ("oracle.compare", "median_s"),
    "oracle.allocations": ("oracle.posterior", "median:allocations"),
    "trace.overhead_s": None,
}
LAYER_UNITS = {
    name: ("MB" if name.endswith("_mb") else "s" if name.endswith("_s")
           else "bytes" if name.endswith("_bytes") else "ratio" if name.endswith("_ratio")
           else "count")
    for name in LAYER_SOURCES
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time spent on timed passes (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy input sizes and single repeats, for the smoke test")
    return parser.parse_args(argv)


def child_env(src: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    import mixexact

    return {"nproc": nproc, "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mixexact_file": mixexact.__file__}


def median(values):
    return statistics.median(values) if values else None


def another_pass(start: float, seconds: float, durations: list[float]) -> bool:
    """Start another pass only if it would end nearer the deadline than stopping now."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(durations) / 2 < seconds


def timed_run(wl, ledger, args, workdir, env, choice_doc, digest, repeats):
    """End-to-end metrics with tracing off."""
    import workloads

    choice_path = workdir / "choice.json"
    choice_path.write_text(json.dumps(choice_doc), encoding="utf-8")

    def setup(i: int):
        code, out, err, _ = workloads.run_child(
            [sys.executable, str(BENCH / "inputs.py"), str(choice_path), str(workdir / f"setup{i}")],
            workdir, env)
        workloads.require(code == 0, f"exit {code}: {err.strip()[-300:]}")
        return out.strip()

    for i in range(repeats):
        ledger.run("setup", lambda i=i: setup(i),
                   lambda out: workloads.require(out == digest, "set-up wrote other inputs"))
    if isinstance(wl, workloads.CliWorkload):
        wl.prepare_reference(ledger)

    walls, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        wall = wl.run_pass(ledger)
        durations.append(time.perf_counter() - began)
        if wall is not None:
            walls.append(wall)
        if not another_pass(start, args.seconds, durations):
            break
    samples = {"setup_s": ledger.times.get("setup", []), "wall_s": walls,
               "fit_s": wl.fit_times(ledger), **wl.extra_timings(ledger)}
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = wl.peak_rss_mb()
    return metrics, samples, {}


def import_seconds(workdir: Path, env: dict, repeats: int, ledger) -> list[float]:
    """`import mixexact` time inside fresh interpreters."""
    import workloads

    code = ("import time; t = time.perf_counter(); import mixexact; "
            "print(time.perf_counter() - t)")
    out = []
    for _ in range(repeats):
        result = ledger.run("import probe",
                            lambda: workloads.run_child([sys.executable, "-c", code], workdir, env))
        if result is not None and result[0] == 0:
            out.append(float(result[1]))
        elif result is not None:
            ledger.fail("import probe", f"exit {result[0]}: {result[2].strip()[-300:]}")
    return out


def reduce_spans(tracer, span: str, how: str):
    done = [s for s in tracer.spans if s["name"] == span and "end" in s]
    if not done:
        return None
    if how == "median_s":
        return statistics.median(s["end"] - s["start"] for s in done)
    agg, attr = how.split(":")
    values = [s[attr] for s in done if attr in s]
    if not values:
        return None
    return max(values) if agg == "max" else statistics.median(values)


def traced_run(wl, ledger, args, workdir, env, repeats):
    """Per-layer metrics from spans, plus the tracing overhead."""
    import inputs
    import workloads
    from spans import Tracer

    own, probe = Tracer("own"), Tracer("probe")
    import_times = import_seconds(workdir, env, repeats, ledger)
    is_cli = isinstance(wl, workloads.CliWorkload)
    if is_cli:
        wl.prepare_reference(ledger)

    # alternate traced (T) and untraced (U) passes as T U U T T U ... so that
    # neither side always runs first; cli-cold replays its jobs in-process
    walls = {True: [], False: []}
    order = [True, False, False, True]
    durations = []
    start = time.perf_counter()
    while True:
        traced = order[len(durations) % 4]
        began = time.perf_counter()
        wall = wl.run_pass(ledger, own if traced else workloads.NULL_TRACER,
                           **({"in_process": True} if is_cli else {}))
        durations.append(time.perf_counter() - began)
        if wall is not None:
            walls[traced].append(wall)
        if len(durations) >= 2 and not another_pass(start, args.seconds, durations):
            break

    extras = ledger.run("layer extras", lambda: wl.traced_extras(ledger, own)) or {}

    # layers this workload's jobs never call are measured on small fixed inputs
    if not is_cli:
        spec = workloads.TOY["cli-cold"] if args.toy else workloads.CLI
        choice = inputs.choose(spec, args.seed)
        inputs.write_inputs(spec, choice["subseed"], workdir / "probe")
        cw = workloads.CliWorkload(spec, choice, workdir / "probe", env)
        cw.run_pass(ledger, probe, in_process=True)
        ledger.run("probe extras", lambda: cw.traced_extras(ledger, probe))
    ledger.run("worked-example probe", lambda: workloads.probe_worked_example(probe))

    metrics, sources = {}, {}
    for name, source in LAYER_SOURCES.items():
        if source is None:
            continue
        for tracer in (own, probe):
            value = reduce_spans(tracer, *source)
            if value is not None:
                metrics[name], sources[name] = value, tracer.run_id
                break
    members = extras.get("members", {})
    metrics.update({
        "mixexact.import_s": median(import_times),
        "lattice.entries": extras.get("lattice.entries"),
        "lattice.successors": extras.get("lattice.successors"),
        "lattice.collision_ratio": extras.get("lattice.collision_ratio"),
        "posterior.grid_members": members.get("members"),
        "posterior.grid_distinct_members": members.get("distinct_members"),
        "posterior.weight_grid_distinct_members": members.get("weight_distinct_members"),
    })
    if walls[True] and walls[False]:
        metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    detail = {
        "sources": sources,
        "walls": {"traced": walls[True], "untraced": walls[False]},
        "self_times": {"own": own.self_times(), "probe": probe.self_times()},
        "growth": extras.get("growth"),
        "members": members,
        "spans": own.spans + probe.spans,
    }
    samples = {name: own.durations(src[0]) or probe.durations(src[0])
               for name, src in LAYER_SOURCES.items() if src}
    return {name: metrics.get(name) for name in LAYER_SOURCES}, samples, detail


def fail_early(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mixexact" / "__init__.py").is_file():
        return fail_early(f"no mixexact package under {src}; run inside a checkout")
    nproc = len(os.sched_getaffinity(0))
    env = child_env(src, nproc)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = env[var]
    for path in (str(BENCH), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import mixexact

    if not Path(mixexact.__file__).resolve().is_relative_to(ROOT):
        return fail_early(f"mixexact resolves to {mixexact.__file__}, outside {ROOT}")

    import inputs
    import workloads

    spec = (workloads.TOY if args.toy else
            {"fit-poisson-k3": workloads.FIT, "cli-cold": workloads.CLI})[args.workload]
    repeats = 1 if args.toy else SETUP_REPEATS
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        choice = inputs.choose(spec, args.seed)
        choose_s = time.perf_counter() - t0
        digest = inputs.write_inputs(spec, choice["subseed"], workdir)
        if isinstance(spec, inputs.PoissonSpec):
            wl = workloads.PoissonWorkload(spec, choice)
        else:
            wl = workloads.CliWorkload(spec, choice, workdir, env)
        ledger = workloads.Ledger()
        if args.trace:
            metrics, samples, detail = traced_run(wl, ledger, args, workdir, env, repeats)
            units = LAYER_UNITS
        else:
            choice_doc = {"spec": inputs.spec_to_json(spec), "subseed": choice["subseed"]}
            metrics, samples, detail = timed_run(wl, ledger, args, workdir, env, choice_doc,
                                                digest, repeats)
            units = dict(E2E_UNITS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    properties = {**wl.properties(), "seed": args.seed, "subseed": choice["subseed"],
                  "candidates": choice["candidates"], "choose_s": choose_s, "digest": digest}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "toy": args.toy, "environment": environment(nproc),
              "inputs": properties, "metrics": metrics, "samples": samples,
              "attempted": ledger.attempted, "failed": ledger.failed, "failed_ratio": ratio,
              "problems": ledger.problems, **detail}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("inputs  " + "  ".join(f"{k}={v}" for k, v in properties.items()))
    print("env     " + "  ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for name, value in metrics.items():
        unit = units.get(name, "s")
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  ({len(samples[name])} samples)" if samples.get(name) else ""
        print(f"  {name:40s} {shown:>12s} {unit}{note}")
    print(f"  {'failed_ratio':40s} {ratio:>12.6g} ratio  ({ledger.failed}/{ledger.attempted})")
    if args.trace:
        print("self time by span (own):")
        for name, row in sorted(detail["self_times"]["own"].items()):
            print(f"  {name:40s} self {row['self_s']:10.4f} s  total {row['total_s']:10.4f} s"
                  f"  n={row['count']}")
        if detail["growth"]:
            print("growth: n entries collisions")
            for row in detail["growth"]:
                print(f"  {row['n']:3d} {row['entries']:9d} {row['collisions']:9d}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(f"results written to {path}")

    keys = units if args.trace else E2E_UNITS
    final = {name: {"value": metrics[name], "unit": keys[name]} for name in keys}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
