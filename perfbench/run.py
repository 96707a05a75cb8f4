#!/usr/bin/env python3
"""The repository benchmark: SLINFER and sllm on two traffic mixes plus
the quick figure suite.

Run from the repository root:

    python3 perfbench/run.py --workload cold_churn --seed 7 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the traced per-callback split and prints the per-layer metrics; --trace 2
does both. Metric names and units are listed in BENCHMARK.json at the root.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The script builds `perfbench` (this directory's crate) and the workspace's
`bench` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then measures each system in its own child process, so
that each process's peak RSS belongs to one system.

Operations are simulated requests (plus one per figure-suite experiment).
A request counts as failed when its run crashed or failed an output check:
request conservation, checkpoint-tier accounting, identical outcome counts
across repetitions of one seed, identical counts traced and untraced, and,
for figures_quick, agreement with what `bench` itself reports for Fig 22.
A request the simulated system drops is an outcome, not a failure: it
counts as an SLO miss in slo_attainment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

DEFAULT_SEED = 7
# Later performance claims must also hold at this seed.
HELD_OUT_SEED = 1009
SYSTEMS = ("slinfer", "sllm")
WORKLOADS = ("cold_churn", "chat_sessions", "figures_quick")
# The share of --seconds each system's untraced measurement gets.
PLAN = {
    "cold_churn": {"slinfer": 0.6, "sllm": 0.3},
    "chat_sessions": {"slinfer": 0.5, "sllm": 0.4},
    "figures_quick": {"slinfer": 0.3, "sllm": 0.12},
}
TRACED_SHARE = {"slinfer": 0.4, "sllm": 0.2}
# Passes of `bench all --quick` per figures_quick run; the fastest counts.
SUITE_PASSES = 2
CHILD_TIMEOUT_S = 150
# The paper's Sec. IX-H bounds, quoted beside the measured decision times.
FIG33_SHADOW_MS = 0.4
FIG33_TOKEN_MS = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


class Checks:
    """Output checks and the operation tally behind the final JSON line."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, n, ok, why=""):
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(why)

    def require(self, ok, why):
        if not ok:
            self.problems.append(why)

    @property
    def correct(self):
        return not self.problems


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["--manifest-path", "perfbench/Cargo.toml"],
        ["--manifest-path", "Cargo.toml", "-p", "bench", "--bin", "bench"],
    ]
    for extra in steps:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")


def child(exe, args, checks, what):
    """Runs perfbench once and returns its JSON, or None if it crashed."""
    try:
        p = subprocess.run([exe] + args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        checks.ops(1, False, f"{what}: timed out")
        return None
    if p.returncode != 0:
        log(p.stderr[-2000:])
        checks.ops(1, False, f"{what}: exit code {p.returncode}")
        return None
    out = json.loads(p.stdout.strip().splitlines()[-1])
    for e in out.get("errors", []):
        checks.require(False, f"{what}: {e}")
    return out


def measure_plain(exe, wl, seed, seconds, checks):
    """Untraced runs of both systems; returns per-system aggregates."""
    plan = PLAN[wl]
    res = {}
    for sys_name in SYSTEMS:
        args = ["--workload", wl, "--seed", str(seed), "--system", sys_name, "--mode", "plain",
                "--seconds", f"{plan[sys_name] * seconds:.3f}"]
        out = child(exe, args, checks, f"{wl}/{sys_name}")
        if out is None:
            continue
        cells = {}
        for r in out["reps"]:
            cells.setdefault(r["cell"], []).append(r)
        sim = wall = suite = gpu = cpu = met = reqs = 0.0
        for cell, reps in sorted(cells.items()):
            first = reps[0]
            same = all(r["counts"] == first["counts"] and r["sim_s"] == first["sim_s"] for r in reps)
            n = first["counts"]["requests"] * len(reps)
            checks.ops(n, same and not out["errors"],
                       f"{wl}/{sys_name} cell {cell}: outcome counts differ across repetitions")
            sim += first["sim_s"]
            # The fastest repetition: other tenants of a shared host only
            # ever slow a run down, so the minimum is the steadiest figure.
            wall += min(r["run_s"] for r in reps)
            suite += min(r["generate_s"] + r["world_new_s"] + r["run_s"] for r in reps)
            gpu += first["gpu_nodes_avg"] * first["sim_s"]
            cpu += first["cpu_nodes_avg"] * first["sim_s"]
            met += first["counts"]["slo_met"]
            reqs += first["counts"]["requests"]
        res[sys_name] = {
            "sim_per_wall": sim / wall,
            "suite_s": suite,
            "peak_rss_mb": out["peak_rss_mb"],
            "slo_attainment": met / reqs,
            "gpu_nodes_avg": gpu / sim,
            "cpu_nodes_avg": cpu / sim,
            "setup_s": sum(out["setup_s"]),
            "cell0": cells[0][0]["counts"],
            "reps": len(out["reps"]),
        }
    return res


def nproc():
    return max(1, min(os.cpu_count() or 1, len(os.sched_getaffinity(0))))


def bench_cli(bench, args, cwd):
    return subprocess.run([bench] + args, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def registry(bench, cwd):
    p = bench_cli(bench, ["list", "--json"], cwd)
    if p.returncode != 0:
        die("`bench list --json` failed")
    return json.loads(p.stdout)


def fig22_rows(path):
    """SystemResult rows of the Fig 22 quick dump, by system label."""
    rows = {}

    def walk(x):
        if isinstance(x, dict) and "system" in x:
            rows[x["system"]] = x
        elif isinstance(x, (list, dict)):
            for v in (x.values() if isinstance(x, dict) else x):
                walk(v)

    with open(path) as f:
        walk(json.load(f))
    return rows


def figure_suite(bench, seed, work, checks, cell0):
    """`bench all --quick` in a scratch directory, SUITE_PASSES times;
    returns the fastest pass's wall seconds."""
    entries = registry(bench, work)
    walls = []
    for _ in range(SUITE_PASSES):
        shutil.rmtree(os.path.join(work, "results"), ignore_errors=True)
        t0 = time.perf_counter()
        p = bench_cli(bench, ["all", "--quick", "--threads", str(nproc()), "--seed", str(seed)],
                      work)
        walls.append(time.perf_counter() - t0)
        missing = [e["name"] for e in entries
                   if not os.path.isfile(os.path.join(work, "results", e["name"] + ".json"))]
        checks.ops(len(entries), p.returncode == 0 and not missing,
                   f"bench all: exit {p.returncode}, no results for {missing}")
        if p.returncode != 0 or missing:
            continue
        rows = fig22_rows(os.path.join(work, "results", "fig22_end_to_end.json"))
        for sys_name, label in (("slinfer", "SLINFER"), ("sllm", "sllm")):
            ours, theirs = cell0.get(sys_name), rows.get(label)
            agree = ours is not None and theirs is not None and all(
                ours[k] == theirs[k2] for k, k2 in
                (("slo_met", "slo_met"), ("requests", "total"), ("dropped", "dropped")))
            checks.require(agree, f"figures_quick: {label} differs from bench's Fig 22 row")
    return min(walls)


def per_entry(bench, seed, work, checks):
    """Wall seconds of each registry entry via `bench run NAME --quick`."""
    entries = registry(bench, work)
    out = {"bench.sweep.cells": (float(sum(e["quick_cells"] for e in entries)), "count")}
    for e in entries:
        t0 = time.perf_counter()
        p = bench_cli(bench, ["run", e["name"], "--quick", "--threads", str(nproc()),
                              "--seed", str(seed)], work)
        wall = time.perf_counter() - t0
        checks.ops(1, p.returncode == 0, f"bench run {e['name']}: exit {p.returncode}")
        out[f"bench.{e['name']}.wall_s"] = (wall, "s")
    return out


def end_to_end(exe, bench, wl, seed, seconds, work, checks):
    res = measure_plain(exe, wl, seed, seconds, checks)
    if set(res) != set(SYSTEMS):
        return {}
    m = {}
    for s in SYSTEMS:
        m[f"sim_per_wall.{s}"] = (res[s]["sim_per_wall"], "sim-s/s")
        m[f"peak_rss_mb.{s}"] = (res[s]["peak_rss_mb"], "MB")
        m[f"slo_attainment.{s}"] = (res[s]["slo_attainment"], "ratio")
        m[f"gpu_nodes_avg.{s}"] = (res[s]["gpu_nodes_avg"], "nodes")
    m["cpu_nodes_avg.slinfer"] = (res["slinfer"]["cpu_nodes_avg"], "nodes")
    m["setup_s"] = (res["slinfer"]["setup_s"] + res["sllm"]["setup_s"], "s")
    if wl == "figures_quick":
        cell0 = {s: res[s]["cell0"] for s in SYSTEMS}
        m["suite_wall_s"] = (figure_suite(bench, seed, work, checks, cell0), "s")
    else:
        m["suite_wall_s"] = (res["slinfer"]["suite_s"] + res["sllm"]["suite_s"], "s")
    log(f"repetitions: slinfer {res['slinfer']['reps']}, sllm {res['sllm']['reps']}")
    return m


def per_layer(exe, bench, wl, seed, seconds, work, checks):
    m = {}
    layers = {}
    gen, world = [], []
    for s in SYSTEMS:
        args = ["--workload", wl, "--seed", str(seed), "--system", s, "--mode", "traced",
                "--seconds", f"{TRACED_SHARE[s] * seconds:.3f}"]
        out = child(exe, args, checks, f"{wl}/{s} traced")
        if out is None:
            continue
        counts = out["plain_counts"] + out["traced_counts"]
        same = all(c == counts[0] for c in counts)
        checks.ops(counts[0]["requests"] * len(counts), same,
                   f"{wl}/{s}: traced and untraced outcome counts differ")
        checks.require(out["transparent"], f"{s}: timing wrapper changed a small scenario's outcome")
        gen += out["generate_s"]
        world += out["world_new_s"]
        L, c = out["layers"], out["counters"]
        layers[s] = (L, c, out)
        for cb, t in L["callbacks"].items():
            m[f"{s}.{cb}.calls"] = (float(t["calls"]), "count")
            m[f"{s}.{cb}.busy_s"] = (t["busy_ns"] * 1e-9, "s")
        for kind in ("cold", "warm"):
            m[f"{s}.on_arrival.{kind}.calls"] = (float(L[f"arrival_{kind}"]["calls"]), "count")
            m[f"{s}.on_arrival.{kind}.busy_s"] = (L[f"arrival_{kind}"]["busy_ns"] * 1e-9, "s")
        for cb, key in (("on_arrival", "arrival"), ("on_slot_free", "slot_free")):
            for p in ("p50", "p99"):
                m[f"{s}.{cb}.{p}_us"] = (L[f"{key}_{p}_us"], "us")
        m[f"{s}.on_slot_free.useful_ratio"] = (L["useful_ratio"], "ratio")
        m[f"{s}.driver.self_s"] = (L["driver_self_s"], "s")
        m[f"{s}.trace_overhead_s"] = (out["trace_overhead_s"], "s")
        for k in ("cold_starts", "cold_share", "peer_fetches", "multicast_relays",
                  "transfer_reroutes", "kv_migrations"):
            m[f"{s}.cluster.{k}"] = (float(c[k]), "ratio" if k == "cold_share" else "count")
        for tier, loads in zip(("hbm", "dram", "ssd", "remote"), c["cold_tier_loads"]):
            m[f"{s}.cluster.cold_tier_loads.{tier}"] = (float(loads), "count")
        for k in ("decode_tokens", "batch_size_p50", "kv_util_p50", "prefix_hit_tokens",
                  "prefix_hit_share"):
            unit = {"batch_size_p50": "requests", "kv_util_p50": "ratio",
                    "prefix_hit_share": "ratio"}.get(k, "count")
            m[f"{s}.engine.{k}"] = (float(c[k]), unit)
        if s == "slinfer":
            for k in ("shadow_validations", "preemptions", "migrations", "scale_ops"):
                m[f"slinfer.{k}"] = (float(c[k]), "count")
            m["slinfer.shadow_per_arrival"] = (c["shadow_per_arrival"], "ratio")
    if gen:
        m["workload.generate_s"] = (statistics.median(gen), "s")
        m["cluster.world_new_s"] = (statistics.median(world), "s")
    m.update(per_entry(bench, seed, work, checks))
    print_layers(wl, layers)
    return m


def print_layers(wl, layers):
    for s, (L, c, out) in layers.items():
        run_s = L["run_s"]
        print(f"\n[{wl}] {s}: traced run {run_s:.3f} s "
              f"(untraced {min(out['plain_run_s']):.3f} s); per-callback split")
        print(f"  {'layer':<28}{'calls':>12}{'busy s':>10}{'share':>8}")
        rows = [(cb, t["calls"], t["busy_ns"] * 1e-9) for cb, t in L["callbacks"].items()]
        rows.append(("driver (self)", 0, L["driver_self_s"]))
        for name, calls, busy in rows:
            print(f"  {name:<28}{calls:>12}{busy:>10.4f}{100 * busy / run_s:>7.1f}%")
        cold, warm = L["arrival_cold"], L["arrival_warm"]
        arrivals = max(1, cold["calls"] + warm["calls"])
        print(f"  shape: cold arrivals {cold['calls'] / arrivals:.3f}, "
              f"prefix-cached prompt share {c['prefix_hit_share']:.3f}, "
              f"shadow validations/arrival {c['shadow_per_arrival']:.3f}, "
              f"slot-poke useful ratio {L['useful_ratio']:.4f}")
        if s == "slinfer":
            print(f"  Fig 33 check (informational): on_arrival p50 {L['arrival_p50_us']:.1f} us, "
                  f"p99 {L['arrival_p99_us']:.1f} us vs the paper's < {FIG33_SHADOW_MS} ms "
                  f"shadow validation at 8 nodes; on_slot_free p50 {L['slot_free_p50_us']:.2f} us, "
                  f"p99 {L['slot_free_p99_us']:.2f} us vs < {FIG33_TOKEN_MS} ms per token-level "
                  f"decision")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    a = ap.parse_args()

    root = os.getcwd()
    for need in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, need)):
            die(f"run from the repository root: {need} is missing")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    t0 = time.perf_counter()
    build(root, target)
    log(f"build checked in {time.perf_counter() - t0:.1f} s")
    exe = os.path.join(target, "release", "perfbench")
    bench = os.path.join(target, "release", "bench")
    # `bench` writes results/ into its working directory.
    work = os.path.join(target, f"perfbench-work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    checks = Checks()
    measured = {}
    try:
        if a.trace in (0, 2):
            measured.update(end_to_end(exe, bench, a.workload, a.seed, a.seconds, work, checks))
        if a.trace in (1, 2):
            measured.update(per_layer(exe, bench, a.workload, a.seed, a.seconds, work, checks))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = []
    if a.trace in (0, 2):
        wanted += spec["end_to_end"]
    if a.trace in (1, 2):
        wanted += spec["per_layer"]
    metrics = {}
    print(f"\n[{a.workload}] seed {a.seed}, {a.seconds:g} s per measurement")
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in measured:
            checks.require(False, f"metric {name} was not measured")
            continue
        value, got_unit = measured[name]
        checks.require(got_unit == unit, f"metric {name}: unit {got_unit}, expected {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<40}{value:>16.6g} {unit}")
    for p in checks.problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({"correct": checks.correct, "attempted": max(1, checks.attempted),
                      "failed": checks.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
