#!/usr/bin/env python3
"""tgeom benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: tube_sections, line_solvers,
coincidence_fields, cli_cold (see perfbench/README.md for why each exists);
``all`` runs each in turn and ends with one combined result line.
The default seed is 1; seed 1009 is held out for confirming a claimed gain.

Each run is single process, closed loop, one client.  It

1. times ``setup_s`` as the median of several fresh interpreters that import
   tgeom and build the workload's worlds from JSON specs (cli_cold: a bare
   ``import tgeom``);
2. runs every task twice, untimed, on counting worlds: the first pass checks
   each output against its oracle, the second asserts that world-call counts
   and outputs repeat exactly;
3. with ``--trace 0``, cycles the tasks on plain worlds for ``--seconds``,
   checking every output against the checked one, and prints the gated
   end-to-end metrics and the task timings (reported, not gated);
4. with ``--trace 1``, instead alternates untraced and traced passes for
   ``--seconds`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(per-task world points, tail percentile, machine, spans) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORK = os.path.join(ROOT, "perfbench", "_work")

SETUP_STARTS = 5      # fresh interpreters per setup_s median
TAIL_BEYOND = 10      # the tail percentile keeps this many samples beyond it
WORKLOAD_NAMES = ("tube_sections", "line_solvers", "coincidence_fields", "cli_cold")

CHILD_TIMER = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import tgeom.cli\n"
    "t1 = time.perf_counter()\n"
    "rc = tgeom.cli.run(sys.argv[2:])\n"
    "t2 = time.perf_counter()\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    fh.write('%r %r' % (t1 - t0, t2 - t1))\n"
    "sys.exit(rc)\n"
)


def digest(obj, h=None) -> bytes:
    """Exact fingerprint of a task output (arrays by their bytes)."""
    import numpy as np

    top = h is None
    h = hashlib.sha256() if top else h
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            digest(item, h)
        h.update(b"]")
    elif isinstance(obj, bytes):
        h.update(obj)
    else:
        h.update(repr(obj).encode())
    return h.digest() if top else b""


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "git_sha": git_sha()}


def measure_setup(wl) -> list:
    """Wall seconds of fresh interpreters doing the workload's set-up."""
    from workloads import cli_env

    specs = json.dumps([json.dumps(doc) for doc in wl.specs.values()])
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", wl.setup_code], input=specs.encode(),
                       env=cli_env(ROOT), cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _call(task, worlds, timed=False):
    try:
        return (task.timed() if timed and task.timed else task.run(worlds)), None
    except Exception as exc:  # a failing task is counted, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def counted_pass(wl, trace: bool):
    """One pass over the tasks on counting worlds (traced: with span hooks)."""
    from instrument import CountingCli, Recorder, Tracer, counted_world
    from tgeom import WorldSpec

    rec = Recorder(trace)
    worlds = {k: counted_world(WorldSpec.from_json(json.dumps(d)), rec)
              for k, d in wl.specs.items()}
    results = []
    with contextlib.ExitStack() as stack:
        if wl.cli:
            stack.enter_context(CountingCli(rec))
        if trace:
            stack.enter_context(Tracer(rec))
        t0 = time.perf_counter()
        for task in wl.tasks:
            rec.task = task.name
            calls, points = rec.calls, rec.points
            index = rec.begin("bench.task") if trace else None
            out, err = _call(task, worlds)
            if trace:
                rec.end(index)
            results.append({"out": out, "error": err, "world_calls": rec.calls - calls,
                            "world_points": rec.points - points})
        wall = time.perf_counter() - t0
    return rec, results, wall


def plain_pass(wl, worlds):
    t0 = time.perf_counter()
    outs = [_call(task, worlds) for task in wl.tasks]
    return outs, time.perf_counter() - t0


class Reference:
    """Checked outputs of the first counted pass, one per task."""

    def __init__(self, wl, results):
        from workloads import Oracle

        self.tasks = []
        for task, res in zip(wl.tasks, results):
            orc = Oracle()
            if res["error"] is not None:
                orc.require(res["error"], False)
            else:
                try:
                    task.check(res["out"], orc)
                except Exception as exc:  # a broken output may break its oracle
                    orc.require(f"oracle raised {type(exc).__name__}: {exc}", False)
            self.tasks.append({
                "name": task.name, "ok": orc.ok, "digits": orc.digits, "notes": orc.notes,
                "world_calls": res["world_calls"], "world_points": res["world_points"],
                "digest": digest(res["out"]) if res["error"] is None else None,
            })

    def matches(self, i, out, err) -> bool:
        ref = self.tasks[i]
        return err is None and ref["ok"] and digest(out) == ref["digest"]

    def repeats(self, results) -> bool:
        return all(r["error"] is None and digest(r["out"]) == t["digest"]
                   and (r["world_calls"], r["world_points"]) == (t["world_calls"],
                                                                 t["world_points"])
                   for r, t in zip(results, self.tasks))


def timed_run(wl, worlds, ref, seconds):
    """Cycle whole passes over the task list until ``seconds`` have passed,
    so every task weighs the same in each metric whatever the run length.
    Returns task latencies, failures and (passed tasks, wall) per pass."""
    latencies, failed, passes = [], 0, []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) <= TAIL_BEYOND:
        t_pass, failed_before = time.perf_counter(), failed
        for i, task in enumerate(wl.tasks):
            t0 = time.perf_counter()
            out, err = _call(task, worlds, timed=True)
            latencies.append(time.perf_counter() - t0)
            failed += not ref.matches(i, out, err)
        passes.append((len(wl.tasks) - (failed - failed_before), time.perf_counter() - t_pass))
    return latencies, failed, passes


def end_to_end(wl, ref, setup, latencies, failed, passes):
    """Gated metrics, plus timing figures that are reported but not gated:
    task timings follow the host's CPU speed, which drifts by up to 1.5x
    between runs on a shared 2-core machine (see README.md)."""
    ordered = sorted(latencies)
    n = len(ordered)
    points = sum(t["world_points"] for t in ref.tasks)
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "oracle_digits_min": (min(t["digits"] for t in ref.tasks), "digits"),
        "world_points_per_task": (points / len(ref.tasks), "count"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    timing = {
        # median over passes: robust to a slow spell covering a few passes
        "tasks_per_s": (statistics.median(ok / wall for ok, wall in passes), "1/s"),
        "task_ms_p50": (statistics.median(ordered) * 1e3, "ms"),
        "task_ms_tail": (ordered[n - TAIL_BEYOND - 1] * 1e3, "ms"),
    }
    for i, task in enumerate(ref.tasks):
        task["median_ms"] = statistics.median(latencies[i::len(ref.tasks)]) * 1e3
    extra = {"timing": timing, "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
             "samples": n, "fail_ratio": failed / n, "passes": len(passes),
             "timed_wall_s": sum(wall for _, wall in passes), "setup_runs_s": setup}
    return metrics, extra


def layer_metrics(rec, self_ms, cli_times) -> dict:
    c = rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(*names):
        return sum(self_ms.get(n, 0.0) for n in names)

    out = {
        "worlds.calls": (rec.calls, "count"),
        "worlds.points": (rec.points, "count"),
        "worlds.points_per_call": (ratio(rec.points, rec.calls), "count"),
        "worlds.self_ms": (ms("worlds"), "ms"),
        "worlds.ns_per_point": (ratio(ms("worlds") * 1e6, rec.points), "ns"),
        "fd.tensor_calls": (c["fd.tensor_calls"], "count"),
        "fd.tensors_requested": (c["fd.tensors_requested"], "count"),
        "fd.world_points": (rec.points_in["fd"], "count"),
        "fd.self_ms": (ms("fd"), "ms"),
        "products.gram_calls": (c["products.gram_calls"], "count"),
        "products.self_ms": (ms("products.gram"), "ms"),
        "tubes.sampler_taus": (c["tubes.sampler_taus"], "count"),
        "tubes.roots": (c["tubes.roots"], "count"),
        "tubes.world_calls_per_tau": (ratio(rec.calls_in["tubes.sampler"],
                                            c["tubes.sampler_taus"]), "count"),
        "tubes.sampler_self_ms": (ms("tubes.sampler"), "ms"),
        "tubes.chain_steps": (c["tubes.chain_steps"], "count"),
        "tubes.world_points_per_chain_step": (ratio(rec.points_in["tubes.chain"],
                                                    c["tubes.chain_steps"]), "count"),
        "tubes.chain_self_ms": (ms("tubes.chain"), "ms"),
        "calculus.coincidence_calls": (c["calculus.coincidence_calls"], "count"),
        "calculus.world_points_per_coincidence": (
            ratio(rec.points_in["calculus.coincidence"], c["calculus.coincidence_calls"]),
            "count"),
        "calculus.curvature_calls": (c["calculus.curvature_calls"], "count"),
        "calculus.self_ms": (ms("calculus.coincidence", "calculus.curvature"), "ms"),
        "lines.implicit_samples": (c["lines.implicit_samples"], "count"),
        "lines.unconverged_samples": (c["lines.unconverged_samples"], "count"),
        "lines.ode_rk4_steps": (c["lines.ode_rk4_steps"], "count"),
        "lines.ode_doublings": (c["lines.ode_doublings"], "count"),
        "lines.self_ms": (ms("lines.implicit", "lines.ode", "lines.velocity"), "ms"),
        "degeneracy.checks": (c["degeneracy.checks"], "count"),
        "degeneracy.checks_failed": (c["degeneracy.checks_failed"], "count"),
        "degeneracy.self_ms": (ms("degeneracy"), "ms"),
        "cli.self_ms": (ms("cli.run"), "ms"),
    }
    out.update(cli_times)
    return out


def cli_child_times(wl) -> tuple:
    """Per-invocation import, run and process times of each CLI command in a
    fresh interpreter; returns (means by metric, nonzero exits, outputs)."""
    from workloads import cli_env

    timing = os.path.join(WORK, "child-times.txt")
    imp, run, proc, outs, nonzero = [], [], [], [], 0
    for task in wl.tasks:
        for stale in (timing, task.run_out):
            if os.path.exists(stale):
                os.unlink(stale)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", CHILD_TIMER, timing, *task.argv,
                               "--out", task.run_out], env=cli_env(ROOT), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        proc.append(time.perf_counter() - t0)
        nonzero += done.returncode != 0
        if os.path.exists(timing):  # absent when the child failed to import
            with open(timing) as fh:
                a, b = (float(v) for v in fh.read().split())
            imp.append(a)
            run.append(b)
        data = b""
        if done.returncode == 0:
            with open(task.run_out, "rb") as fh:
                data = fh.read()
        outs.append((done.returncode, data))
    return ({"cli.import_ms": statistics.fmean(imp or [0.0]) * 1e3,
             "cli.run_ms": statistics.fmean(run or [0.0]) * 1e3,
             "cli.process_ms": statistics.fmean(proc) * 1e3}, nonzero, outs)


def traced_run(wl, worlds, ref, seconds):
    """Alternate untraced and traced passes; per-layer figures are per pass
    (counts from the first traced pass, times as medians over passes)."""
    first = None
    layers, overheads, walls, plain_walls, glue, layer_sum = [], [], [], [], [], []
    cli_samples = []
    attempted = failed = 0
    repeat_ok = True
    start = time.perf_counter()
    while True:
        outs, plain_wall = plain_pass(wl, worlds)
        rec, results, wall = counted_pass(wl, trace=True)
        for i, (out, err) in enumerate(outs):
            failed += not ref.matches(i, out, err)
        for i, res in enumerate(results):
            failed += not ref.matches(i, res["out"], res["error"])
        attempted += 2 * len(wl.tasks)
        repeat_ok &= ref.repeats(results)
        if wl.cli:
            times, nonzero, child_outs = cli_child_times(wl)
            for i, (rc, data) in enumerate(child_outs):
                failed += not ref.matches(i, (rc, data), None)
            attempted += len(wl.tasks)
            cli_samples.append((times, nonzero))
        self_ms = rec.self_ms()
        task_total = sum(e - s for n, s, e, _, _ in rec.spans if n == "bench.task")
        if first is None:
            first = rec
        else:
            repeat_ok &= (rec.counts, rec.calls_in, rec.points_in) == (
                first.counts, first.calls_in, first.points_in)
        layers.append(self_ms)
        walls.append(wall)
        plain_walls.append(plain_wall)
        overheads.append(wall - plain_wall)
        glue.append(self_ms.get("bench.task", 0.0) + (wall - task_total) * 1e3)
        layer_sum.append(sum(v for n, v in self_ms.items() if n != "bench.task"))
        if time.perf_counter() - start >= seconds:
            break

    names = {n for layer in layers for n in layer}
    self_ms = {n: statistics.median(layer.get(n, 0.0) for layer in layers) for n in names}
    cli_times = {k: (0.0, "ms") for k in ("cli.import_ms", "cli.run_ms", "cli.process_ms")}
    nonzero = 0
    if cli_samples:
        for key in cli_times:
            cli_times[key] = (statistics.median(t[key] for t, _ in cli_samples), "ms")
        nonzero = max(nz for _, nz in cli_samples)
    cli_times["cli.exit_nonzero"] = (nonzero, "count")
    metrics = layer_metrics(first, self_ms, cli_times)
    metrics.update({
        "trace.wall_ms": (statistics.median(walls) * 1e3, "ms"),
        "trace.untraced_wall_ms": (statistics.median(plain_walls) * 1e3, "ms"),
        "trace.overhead_ms": (statistics.median(overheads) * 1e3, "ms"),
        "trace.glue_ms": (statistics.median(glue), "ms"),
    })
    # layer self times and glue partition each traced pass's wall time
    extra = {"passes": len(layers), "self_ms": self_ms,
             "accounting_ms": [{"layers_self": a, "glue": g, "wall": w * 1e3}
                               for a, g, w in zip(layer_sum, glue, walls)],
             "spans_first_pass": first.span_records()}
    return metrics, attempted, failed, repeat_ok, extra


def run_all(args) -> int:
    """Run every workload in a fresh interpreter, print each one's report and
    end with one combined result line, metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "tgeom", "__init__.py")):
        sys.stderr.write(f"tgeom sources not found under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    from workloads import WORKLOADS

    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), WORK)
    setup = [] if args.trace else measure_setup(wl)
    worlds = wl.plain_worlds()

    _, first, _ = counted_pass(wl, trace=False)
    ref = Reference(wl, first)
    _, second, _ = counted_pass(wl, trace=False)
    repeat_ok = ref.repeats(second)
    # known defect, reported rather than counted as a failed task
    missed, probed = wl.probe() if wl.probe else (0, 0)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine()}
    if args.trace:
        metrics, attempted, failed, traced_ok, extra = traced_run(wl, worlds, ref, args.seconds)
        repeat_ok &= traced_ok
        metrics["tubes.hidden_pairs_missed"] = (missed, "count")
    else:
        latencies, failed, passes = timed_run(wl, worlds, ref, args.seconds)
        attempted = len(latencies)
        metrics, extra = end_to_end(wl, ref, setup, latencies, failed, passes)
    record.update(extra)
    record["hidden_pairs"] = {"missed": missed, "probed": probed}
    record["tasks"] = [{k: v for k, v in t.items() if k != "digest"} for t in ref.tasks]

    print(f"machine {json.dumps(record['machine'])}")
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(wl.tasks)} tasks per pass, counts repeat exactly: {repeat_ok}")
    for t in ref.tasks:
        status = "ok" if t["ok"] else "FAIL " + "; ".join(t["notes"])
        latency = f" median {t['median_ms']:9.3f} ms" if "median_ms" in t else ""
        print(f"  task {t['name']:32s} world_calls {t['world_calls']:7d} "
              f"world_points {t['world_points']:9d} digits {t['digits']:5.2f}{latency} {status}")
    if probed:
        print(f"  known defect: the sampler misses {missed} of {probed} closed-form root "
              f"pairs that lie inside one probe interval (ROADMAP item 4)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print("  reported, not gated:")
        for name, (value, unit) in extra["timing"].items():
            print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        acc = extra["accounting_ms"][0]
        print(f"  first traced pass: layer self times {acc['layers_self']:.3f} ms + "
              f"benchmark glue {acc['glue']:.3f} ms of wall {acc['wall']:.3f} ms; "
              f"{extra['passes']} traced passes")
    else:
        print(f"  task_ms_tail is p{extra['tail_percentile']:.2f} of {extra['samples']} "
              f"samples; fail_ratio = {extra['fail_ratio']:.6g}")
    path = os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=float)

    correct = failed == 0 and repeat_ok and all(t["ok"] for t in ref.tasks)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
