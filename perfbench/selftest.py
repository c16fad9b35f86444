#!/usr/bin/env python3
"""Self-test of the repository benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --tiny size and checks that:
  - every metric is printed by name with its unit, and the JSON result holds
    exactly the end-to-end (--trace 0) or per-layer (--trace 1) metrics;
  - sim_s_per_iter and the stable per-iteration counts repeat exactly across
    runs, traced and untraced;
  - a second seed still passes the oracle;
  - a wrong answer fed to the oracle (--inject-wrong) raises ops_failed_frac;
  - the binary refuses an LSR_* environment, and run.py clears it;
  - run.py fails without printing a result when the library sources are
    missing.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Per-layer counts that come from Stable runtime metrics or from the input
# sizes, so they must repeat bit for bit.
STABLE = [
    "rt.launches_per_iter", "rt.partition_reuse_hit_ratio",
    "rt.image_cache_hit_ratio", "rt.alloc_fresh_per_iter",
    "rt.fences_per_iter", "sparse.spmv_flops_per_iter",
    "sparse.spmv_bytes_per_iter", "solve.iterations",
    "fuse.launches_eliminated_per_iter", "fuse.windows_per_iter",
    "comm.plan_hit_ratio", "comm.messages_per_iter",
    "comm.messages_saved_per_iter", "comm.bytes_per_iter",
    "sim.tasks_per_iter", "sim.copies_per_iter", "sim.allreduces_per_iter",
    "sim.bytes_per_iter.intra", "sim.bytes_per_iter.nvlink",
    "sim.bytes_per_iter.ib",
]

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def invoke(binary, workload, seed=1, trace=0, extra=(), env=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--tiny", "--out", run.OUT, *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                       env=env if env is not None else run.clean_env())
    lines = p.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "metric" and parts[2] == "=":
            printed[parts[1]] = (float(parts[3]), parts[4])
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, printed, result, p.stdout + p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected_text = dict(e2e, ops_failed_frac="ratio")

    for wl in [w["name"] for w in spec["workloads"]]:
        print(f"== {wl}", flush=True)
        plain = [invoke(binary, wl) for _ in range(2)]
        traced = [invoke(binary, wl, trace=1) for _ in range(2)]
        for code, printed, result, out in plain + traced:
            check(code == 0 and result is not None, f"{wl}: run failed\n{out}")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0,
                  f"{wl}: incorrect result\n{out}")
            for name, unit in expected_text.items():
                check(printed.get(name, (None, None))[1] == unit,
                      f"{wl}: metric {name} [{unit}] not printed")
        for _, printed, result, _ in plain:
            if result:
                check({k: v["unit"] for k, v in result["metrics"].items()} == e2e,
                      f"{wl}: --trace 0 JSON metrics differ from end_to_end")
        for _, printed, result, _ in traced:
            if result:
                check({k: v["unit"] for k, v in result["metrics"].items()} == layers,
                      f"{wl}: --trace 1 JSON metrics differ from per_layer")
                for name, unit in layers.items():
                    check(printed.get(name, (None, None))[1] == unit,
                          f"{wl}: metric {name} [{unit}] not printed")
                check(result["metrics"]["trace.unattributed_frac"]["value"] < 0.01,
                      f"{wl}: span self times leave >1% of the step wall unattributed")
        if any(r is None for _, _, r, _ in plain + traced):
            continue
        sims = {p[1]["sim_s_per_iter"][0] for p in plain + traced}
        check(len(sims) == 1, f"{wl}: sim_s_per_iter differs between runs: {sims}")
        a, b = (t[2]["metrics"] for t in traced)
        for name in STABLE:
            check(a[name]["value"] == b[name]["value"],
                  f"{wl}: {name} differs between runs: {a[name]} {b[name]}")

        code, printed, result, out = invoke(binary, wl, seed=2)
        check(code == 0 and result and result["correct"],
              f"{wl}: seed 2 fails the oracle\n{out}")

        code, printed, result, out = invoke(binary, wl, extra=["--inject-wrong"])
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] > 0 and printed["ops_failed_frac"][0] > 0,
              f"{wl}: injected wrong answer not counted\n{out}")

    env = dict(run.clean_env(), LSR_FUSE="off")
    code, _, result, _ = invoke(binary, spec["workloads"][0]["name"], env=env)
    check(code != 0 and result is None, "binary ran with LSR_FUSE set")
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                        spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--tiny"], capture_output=True, text=True,
                       env=env, cwd=ROOT)
    check(p.returncode == 0 and json.loads(p.stdout.strip().splitlines()[-1])["correct"],
          "run.py did not clear LSR_FUSE")

    bare = os.path.join(run.OUT, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                        "--trace", "0"], capture_output=True, text=True, cwd=bare,
                       timeout=180)
    check(p.returncode != 0 and "{" not in p.stdout,
          "run.py without library sources did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
