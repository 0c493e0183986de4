"""The repo benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload median-fresh --seed 1 --seconds 20 --trace 0

Run from the repository root. Each phase runs in a fresh process
(``child.py``) with ``src`` on the path and no ``REPRO_*`` variables.

``--trace 0`` sets the workload up ``spec.SETUPS`` times (``setup_s`` is
the median) and measures the last one for ``--seconds``: the end-to-end
metrics. ``--trace 1`` measures an untraced and a traced phase of
``--seconds / 2`` each: the per-layer metrics, a per-layer table and a
Perfetto span file under ``perfbench/out``. On ``median-fresh`` and
``quantiles-2m`` the two phases must agree on every per-query simulated
time.

Every answer is checked against ``np.partition``. The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is non-zero when an answer was wrong or an
operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402

CHILD_TIMEOUT_S = 170


def fail(msg: str) -> int:
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    return env


def run_child(args, mode: str, seconds: float, trace: int, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode,
           "--trace", str(trace), "--out", args.out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} phase failed ({proc.returncode}):\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def code_version(root: str) -> str:
    """The git commit, or a digest of ``src`` where there is no git."""
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def end_to_end(args, env) -> tuple[dict, dict]:
    setups = [run_child(args, "setup", args.seconds, 0, env)["setup_s"]
              for _ in range(spec.SETUPS - 1)]
    res = run_child(args, "measure", args.seconds, 0, env)
    setups.append(res["setup_s"])
    e2e = dict(res["e2e"])
    e2e["setup_s"] = statistics.median(setups)
    record = {"setups_s": setups, "numpy_ms": res["numpy_ms"],
              "outcomes": res["outcomes"], "tail": e2e.pop("_tail"),
              "rss_scoped": res["rss_scoped"]}
    if "gen_lag_p99_ms" in res:
        record["gen_lag_p99_ms"] = res["gen_lag_p99_ms"]
    metrics = {name: e2e[name] for name in spec.END_TO_END}
    return metrics, {"record": record, "outcomes": res["outcomes"],
                     "error_rate": e2e["error_rate"]}


def per_layer(args, env) -> tuple[dict, dict]:
    half = args.seconds / 2.0
    plain = run_child(args, "measure", half, 0, env)
    traced = run_child(args, "measure", half, 1, env)
    layers = dict(traced["layers"])
    p50, p50_traced = plain["e2e"]["latency_p50_ms"], traced["e2e"]["latency_p50_ms"]
    layers["obs.trace_overhead_pct"] = (p50_traced / p50 - 1.0) * 100.0 if p50 else 0.0
    layers["ref.numpy_ms"] = plain["numpy_ms"]
    layers["ref.slowdown_vs_numpy"] = (p50 / plain["numpy_ms"]
                                       if plain["numpy_ms"] else 0.0)
    outcomes = {k: plain["outcomes"][k] + traced["outcomes"][k]
                for k in ("attempted", "bad", "wrong", "refused", "failed")}
    outcomes["errors"] = plain["outcomes"]["errors"] + traced["outcomes"]["errors"]
    info = {"record": {"span_file": traced["span_file"], "spans": traced["spans"],
                       "tail_traced": traced["e2e"]["_tail"]},
            "outcomes": outcomes}
    if args.workload != "serve-stream":
        # Simulated time is a pure function of keys and plan: the traced
        # phase must reproduce the untraced one query for query.
        a, b = plain["sim_s"], traced["sim_s"]
        common = min(len(a), len(b))
        mismatched = sum(1 for x, y in zip(a[:common], b[:common]) if x != y)
        info["record"]["sim_compared"] = common
        if mismatched:
            info["outcomes"]["bad"] += mismatched
            info["outcomes"]["wrong"] += mismatched
            info["outcomes"]["errors"].append(
                f"{mismatched} of {common} simulated times differ between "
                "the untraced and traced phases")
    info["error_rate"] = outcomes["bad"] / max(outcomes["attempted"], 1)
    write_layer_table(args, layers)
    return {name: layers[name] for name in spec.PER_LAYER}, info


def write_layer_table(args, layers: dict) -> None:
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-layers.txt")
    with open(path, "w") as fh:
        fh.write(f"# per-layer metrics, workload {args.workload}, "
                 f"seed {args.seed}\n")
        for name, (unit, moves) in spec.PER_LAYER.items():
            fh.write(f"{name:<42} {layers[name]:>14.6g} {unit:<15} {moves}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="repro benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join("perfbench", "out"))
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return fail(f"no repro package under {src}; run from the repo root")
    os.makedirs(args.out, exist_ok=True)
    env = child_env(src)
    try:
        if args.trace:
            metrics, info = per_layer(args, env)
            units = {n: u for n, (u, _m) in spec.PER_LAYER.items()}
        else:
            metrics, info = end_to_end(args, env)
            units = {n: u for n, (u, _b, _d) in spec.END_TO_END.items()}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    import numpy

    outcomes = info["outcomes"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "code": code_version(root),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "error_rate": info["error_rate"],
        "spec": spec.WORKLOADS[args.workload], **info["record"],
    }
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=1)
    for name, value in metrics.items():
        print(f"{name:<42} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':<42} {info['error_rate']:>14.6g} ratio")
    for err in outcomes["errors"]:
        print(f"error: {err}")
    print("meta " + json.dumps(meta))
    correct = outcomes["wrong"] == 0 and outcomes["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(outcomes["attempted"]),
        "failed": int(outcomes["bad"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and outcomes["bad"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
