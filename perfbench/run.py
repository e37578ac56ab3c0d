#!/usr/bin/env python3
"""The repository benchmark: host cost of `ccq sweep` on pinned workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-torus64 --seed 0 --seconds 20 --trace 0

It builds the `ccq` binary and the layer probe (`perfbench/harness`) with
cargo into `$CARGO_TARGET_DIR` (default `.bench_build`), then:

* `--trace 0` times the workload's set-up in the probe, then runs
  `ccq sweep ... --seed SEED --json PATH` as a user would, one process
  after another, until `--seconds` are spent, and reports the medians of
  the end-to-end metrics named in BENCHMARK.json, times scaled to a
  reference host speed (see REF_NOMINAL_S);
* `--trace 1` runs the sweep once, then the probe's traced in-process run
  of the same plan, and reports the per-layer metrics. The probe writes a
  Chrome trace-event file (open it in Perfetto) to `.bench_out/`.

Every sweep passes a correctness gate: the JSON parses, every case is
`ok`, the cases are the ones the probe's plan describes, and the digest of
the JSON with host-time fields stripped equals the digest pinned in
`perfbench/digests.json` for that workload and seed (a seed with no pin
prints its digest instead, so two commits can be compared on it). A run
that fails the gate prints `"correct": false` with no metrics and exits 1.

The last line of stdout is the result object; the line before it is a
stamp with the host, toolchain, commit and per-sweep statistics, also
written to `.bench_out/`.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
HARNESS_MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
OUT_DIR = ".bench_out"

# The `ccq sweep` argv of each workload; `harness/src/main.rs` builds the
# same plans, and every run checks that the two agree case by case.
WORKLOADS = {
    "sweep-torus64": ["--topo", "torus2d:64", "--arrival", "poisson:rate=0.5"],
    "sparse-1m": [
        "--topo", "torus2d:1000", "--proto", "central-counter",
        "--pattern", "tail:64", "--arrival", "poisson:rate=0.5",
    ],
    "open-mixed": [
        "--topo", "torus2d:32", "--arrival", "poisson:rate=0.6", "--delay", "jitter:max=4",
        "--admission", "delayretry:bound=128:backoff=4", "--priority", "split:frac=0.25:seed=11",
        "--fault", "crash:at=100:node=7:recover=300",
    ],
}

# Case fields the probe's plan and the sweep JSON must agree on.
CASE_FIELDS = [
    "topology", "protocol", "mode", "pattern", "arrival", "delay",
    "admission", "priority", "faults", "shards",
]

# Host-time fields: they vary run to run, so the digest leaves them out.
HOST_TIME_KEYS = {"phase_timing"}

# Set-up is timed at least SETUP_MIN_REPS times at the start of a run,
# then again at least every SETUP_EVERY_S seconds between sweeps, so its
# samples span the run like the sweeps do; about SETUP_SHARE of the run.
SETUP_MIN_REPS = 5
SETUP_SHARE = 0.1
SETUP_EVERY_S = 2.0

# On a shared VM the host's speed drifts by up to 2x within minutes, in
# CPU time as much as in wall time, so it is not steal. A run's times are
# therefore scaled to a reference speed: multiplied by REF_NOMINAL_S over
# the median time of the probe's reference kernel (a fixed computation
# that uses no repository code), timed REF_REPS times before set-up and
# then at least every REF_EVERY_S seconds between sweeps. REF_NOMINAL_S is
# roughly the kernel's time on a 2-vCPU VM of the kind the benchmark was
# tuned on, so scaled seconds read close to raw seconds there.
REF_NOMINAL_S = 0.030
REF_REPS = 3
REF_EVERY_S = 1.0


class GateError(Exception):
    """The program's output failed the correctness gate."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def strip_host_time(value):
    if isinstance(value, dict):
        return {k: strip_host_time(v) for k, v in value.items() if k not in HOST_TIME_KEYS}
    if isinstance(value, list):
        return [strip_host_time(v) for v in value]
    return value


def digest(doc):
    """sha256 of the sweep JSON, host-time fields stripped, keys sorted."""
    canon = json.dumps(strip_host_time(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def pinned_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def check_sweep(doc, workload, seed, cases):
    """Gate one sweep's parsed JSON. Returns (cases run, digest)."""
    runs = doc.get("cases")
    if not isinstance(runs, list) or not runs:
        raise GateError("sweep JSON has no cases")
    failed = [c.get("protocol") for c in runs if c.get("ok") is not True]
    if failed:
        raise GateError(f"cases not ok: {failed}")
    got = [[str(c.get(k)) for k in CASE_FIELDS] for c in runs]
    if got != cases:
        raise GateError(f"sweep cases differ from the probe's plan: {got} vs {cases}")
    d = digest(doc)
    pin = pinned_digest(workload, seed)
    if pin is not None and d != pin:
        raise GateError(f"digest {d} differs from the pinned {pin} for seed {seed}")
    return len(runs), d


def build(env):
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "ccq"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", HARNESS_MANIFEST],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def run_timed(argv):
    """Run a process to completion. Returns (wall seconds, peak RSS MB)."""
    err_path = os.path.join(OUT_DIR, "sweep-stderr.txt")
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as err:
            raise GateError(f"ccq exited {proc.returncode}: {err.read().strip()}")
    return wall, usage.ru_maxrss / 1024.0


def sweep(ccq, workload, seed, cases):
    """One `ccq sweep` process, gated. Returns its sample."""
    path = os.path.join(OUT_DIR, f"sweep-{workload}-{seed}.json")
    if os.path.exists(path):
        os.remove(path)
    argv = [ccq, "sweep", *WORKLOADS[workload], "--seed", str(seed), "--json", path]
    wall, rss = run_timed(argv)
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise GateError(f"sweep JSON unreadable: {e}")
    attempted, d = check_sweep(doc, workload, seed, cases)
    hops = sum(c["messages"] for c in doc["cases"])
    return {"wall_s": wall, "peak_rss_mb": rss, "hops": hops, "attempted": attempted, "digest": d}


def probe(harness, *args):
    done = subprocess.run([harness, *map(str, args)], capture_output=True, text=True)
    if done.returncode != 0:
        raise GateError(f"probe {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def stats(values):
    values = sorted(values)
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": values[0], "q1": q1, "median": med, "q3": q3,
            "max": values[-1]}


def command_output(argv):
    # Git must not look above the checkout, which need not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure(ccq, harness, workload, seed, seconds):
    start = time.perf_counter()
    refs = probe(harness, "calibrate", REF_REPS)["ref_s"]
    last_ref = time.perf_counter()
    setup = probe(harness, "setup", workload, seed, SETUP_MIN_REPS, SETUP_SHARE * SETUP_EVERY_S)
    setup_s = setup["setup_s"]
    last_setup = time.perf_counter()
    samples = []
    while True:
        samples.append(sweep(ccq, workload, seed, setup["cases"]))
        now = time.perf_counter()
        if now - last_ref >= REF_EVERY_S:
            refs += probe(harness, "calibrate", REF_REPS)["ref_s"]
            last_ref = now
        if now - last_setup >= SETUP_EVERY_S:
            setup_s += probe(harness, "setup", workload, seed, 1,
                             SETUP_SHARE * (now - last_setup))["setup_s"]
            last_setup = now
        mean = statistics.fmean(s["wall_s"] for s in samples)
        if now - start + mean / 2 >= seconds:
            break
    digests = {s["digest"] for s in samples}
    if len(digests) != 1:
        raise GateError(f"repeated sweeps disagree: {sorted(digests)}")
    scale = REF_NOMINAL_S / statistics.median(refs)
    series = {
        "wall_s": [s["wall_s"] * scale for s in samples],
        "hops_per_s": [s["hops"] / (s["wall_s"] * scale) for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "setup_s": [t * scale for t in setup_s],
        # Unscaled, for the stamp.
        "raw.wall_s": [s["wall_s"] for s in samples],
        "raw.setup_s": setup_s,
        "raw.ref_s": refs,
    }
    return series, sum(s["attempted"] for s in samples), samples[0]["digest"], {}


def trace(ccq, harness, workload, seed):
    cases = probe(harness, "setup", workload, seed, 1, 0)["cases"]
    refs = probe(harness, "calibrate", REF_REPS)["ref_s"]
    s = sweep(ccq, workload, seed, cases)
    refs += probe(harness, "calibrate", REF_REPS)["ref_s"]
    traced = probe(harness, "trace", workload, seed, OUT_DIR, repr(s["wall_s"]),
                   repr(statistics.median(refs)))
    with open(os.path.join(OUT_DIR, f"runset-{workload}-{seed}.json")) as f:
        in_process = digest(json.load(f))
    if in_process != s["digest"]:
        raise GateError(f"the traced plan's digest {in_process} differs from the sweep's")
    log(f"trace: {traced['trace']}")
    log("self time per layer (s): " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(traced["self_time_s"].items(), key=lambda kv: -kv[1])))
    series = {k: [v] for k, v in traced["metrics"].items()}
    extra = {"per_protocol": traced["per_protocol"], "phases_s": traced["phases_s"]}
    return series, s["attempted"], s["digest"], extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("Cargo.toml", os.path.join("src", "bin", "ccq.rs"), "crates", "BENCHMARK.json"):
        if not os.path.exists(need):
            log(f"`{need}` not found: run from the root of a checkout of the repository")
            return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env)
    ccq = os.path.join(target, "release", "ccq")
    harness = os.path.join(target, "release", "ccq-perfbench")
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        if args.trace:
            series, attempted, d, extra = trace(ccq, harness, args.workload, args.seed)
        else:
            series, attempted, d, extra = measure(
                ccq, harness, args.workload, args.seed, args.seconds)
        missing = [m["name"] for m in wanted if m["name"] not in series]
        if missing:
            raise GateError(f"no value for metrics {missing}")
    except GateError as e:
        log(f"correctness gate failed: {e}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    pin = pinned_digest(args.workload, args.seed)
    if pin is None:
        log(f"no pinned digest for seed {args.seed}; this program's digest is {d}")
    summary = {name: stats(values) for name, values in series.items()}
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "digest": d, "digest_pinned": pin is not None, "stats": summary, **extra,
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(stamp, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    metrics = {m["name"]: {"value": summary[m["name"]]["median"], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
