#!/usr/bin/env python3
"""Lane-pinned benchmark of the doseopt paper flow.

Builds the benchmark binary (lanebench/CMakeLists.txt) from the checkout's
sources, runs one workload in its own process with the process pool pinned
to the workload's lane count, prints every metric by name and unit, and ends
with one JSON result line:

    python3 lanebench/run.py --workload flow_aes65 --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is a
separate, traced invocation that reports the per-layer metrics and writes a
Chrome trace-event file into the build directory.  --workload all runs every
workload in turn.  The exit code is non-zero when any op fails its check or
the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


# Lanes of the process pool (DOSEOPT_THREADS) per workload.  serve_mix keeps
# the process pool at one lane; its server runs its own two job lanes.
def lanes_for(workload):
    return {
        "flow_aes65": 1,
        "yield_mc": nproc(),
        "serve_mix": 1,
        "yield_target": nproc(),
    }[workload]


def fail(msg):
    print("lanebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "lanebench")


def build():
    """Configure and build the benchmark binary; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", os.path.join(ROOT, "lanebench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "lanebench",
                  "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "lanebench")


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown (no git)"


def run_one(exe, spec, workload, seed, seconds, trace):
    lanes = lanes_for(workload)
    env = dict(os.environ, DOSEOPT_THREADS=str(lanes))
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--lanes", str(lanes)]
    if trace:
        cmd += ["--trace-out", "trace-%s-%d.json" % (workload, seed)]
    try:
        r = subprocess.run(cmd, cwd=os.path.dirname(exe), env=env,
                           stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if r.returncode != 0 or not r.stdout.strip():
        fail("%s exited with code %d" % (workload, r.returncode))
    report = json.loads(r.stdout.strip().splitlines()[-1])

    # The end-to-end metrics must all be measured.  A traced run reports the
    # layers its workload exercises; the others read 0 (no work done).
    wanted = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, got in report["metrics"].items():
        if known.get(name) != got["unit"]:
            fail("%s reported unknown metric %s [%s]"
                 % (workload, name, got["unit"]))
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and not trace:
            fail("%s did not report %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": got["value"] if got else 0.0,
                              "unit": m["unit"]}

    info = report["info"]
    attempted, failed = int(report["attempted"]), int(report["failed"])
    env_stamp = {
        "workload": workload, "seed": seed, "default_seed": DEFAULT_SEED,
        "seconds": seconds, "trace": trace, "nproc": nproc(),
        "lanes": lanes, "DOSEOPT_THREADS": env["DOSEOPT_THREADS"],
        "build_type": info.get("build_type"), "compiler": info.get("compiler"),
        "git_sha": git_sha(),
    }
    print("env " + json.dumps(env_stamp, sort_keys=True))
    print("info " + json.dumps(info, sort_keys=True))
    print("%-32s %16s  %s" % ("metric", "value", "unit"))
    for name, m in metrics.items():
        print("%-32s %16.6g  %s" % (name, m["value"], m["unit"]))
    print("%-32s %16.6g  %s" % ("failed_pct", 100.0 * failed / max(attempted, 1), "%"))
    if workload == "serve_mix":
        print("%-32s %s" % ("latency_tail_ms", info.get("latency_tail", "")))
    for why in report["failures"]:
        print("FAILED " + why)
    return {"correct": failed == 0 and attempted >= 1,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    ok = True
    for w in names if args.workload == "all" else [args.workload]:
        result = run_one(exe, spec, w, args.seed, args.seconds, args.trace)
        ok = ok and result["correct"]
        print(json.dumps(result, sort_keys=True))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
