#!/usr/bin/env python3
"""The repository benchmark: one pinned, seeded workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the simulator
library and the harness (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it
print every metric with its unit and sample count, plus a
"perfbench-record" line holding the seed, the host fingerprint, the
failure fraction and the raw samples.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TYPE = "Release"

WORKLOADS = ("sim.paper", "serve.plan")

# name -> unit; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "paper_err_pct": "%",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
}

SWEEPS = (
    "dec8400.loads", "t3d.loads", "t3e.loads", "dec8400.copy-sload",
    "t3d.fetch-sload", "t3d.deposit-sstore", "t3e.fetch-sload",
    "t3e.deposit-sstore", "dec8400.pull",
)

PER_LAYER = {
    "machine.build_s": "s",
    **{f"core.sweep_s.{name}": "s" for name in SWEEPS},
    "core.points": "count",
    "core.point.self_s": "s",
    "mem.readBatch.self_s": "s",
    "mem.readBatch.calls": "count",
    "mem.prime.self_s": "s",
    "mem.writeBatch.self_s": "s",
    "mem.batch.self_s": "s",
    "mem.read.self_s": "s",
    "mem.read.calls": "count",
    "mem.write.self_s": "s",
    "mem.self_s": "s",
    "mem.self_share": "ratio",
    "noc.send.self_s": "s",
    "noc.send.calls": "count",
    "noc.send.ns_per_call": "ns",
    "remote.point.self_s": "s",
    **{f"{group}.{key}": unit
       for group in ("sweep.local", "sweep.remote", "fft")
       for key, unit in (("mem.self_s", "s"), ("mem.self_share", "ratio"),
                         ("noc.send.self_s", "s"),
                         ("noc.send.calls", "count"))},
    **{f"fft.run_s.{m}": "s" for m in ("dec8400", "t3d", "t3e")},
    "serve.index_build_s": "s",
    "serve.hot_p50_ns": "ns",
    "serve.tail_p50_ns": "ns",
    "serve.tail_p99_ns": "ns",
    "serve.cache.hit_ratio": "ratio",
    "mem.cache.hit_ratio": "ratio",
    "mem.dram.row_hit_ratio": "ratio",
    "mem.accesses": "count",
    "bus.transactions": "count",
    "noc.packets": "count",
    "remote.engine.blocks": "count",
    "fft.remote_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; return the harness."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench_harness"


# ----- paper reference rows -------------------------------------------

def parse_size(text):
    mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text[:-1] if mult != 1 else text) * mult


def load_refs(workload):
    rows = []
    lines = (HERE / "paper_refs.tsv").read_text(encoding="utf-8").splitlines()
    header = None
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
            continue
        row = dict(zip(header, cells))
        if row["workload"] == workload:
            row["paper"] = float(row["paper"])
            rows.append(row)
    return rows


TERM = re.compile(r"^(sweep|fft|plan):([\w-]+)\.([\w-]+)@(\w+)(?:/(\d+))?$")


def plan_refs(rows):
    """The plan: terms of @p rows as harness --plan-ref arguments."""
    out = []
    for row in rows:
        for operand in row["expr"].split("/ "):
            m = TERM.match(operand.strip())
            if m and m.group(1) == "plan":
                out.append(f"{m.group(2)}.{m.group(3)}@"
                           f"{parse_size(m.group(4))}/{m.group(5)}")
    return out


def eval_operand(text, values):
    text = text.strip()
    m = TERM.match(text)
    if not m:
        return float(text)
    kind, a, b, at, stride = m.groups()
    if kind == "sweep":
        ws, st = parse_size(at), int(stride)
        for surf in values["sweep"]:
            if (surf["name"] == f"{a}.{b}" and ws in surf["ws"] and
                    st in surf["strides"]):
                i, j = surf["ws"].index(ws), surf["strides"].index(st)
                return surf["mbs"][i * len(surf["strides"]) + j]
        raise KeyError(text)
    if kind == "fft":
        runs = [r[a] for r in values["fft"] if r["machine"] == b and
                (at == "max" or r["n"] == int(at))]
        return max(runs)
    return values["plan"][f"{a}.{b}@{parse_size(at)}/{stride}"]


def eval_expr(expr, values):
    parts = expr.split(" / ")
    value = eval_operand(parts[0], values)
    for part in parts[1:]:
        value /= eval_operand(part, values)
    return value


def paper_error(rows, values):
    """Mean |model/paper - 1| x 100 over @p rows; sets each row's model."""
    errs = []
    for row in rows:
        model = eval_expr(row["expr"], values)
        errs.append(abs(model / row["paper"] - 1) * 100)
        row["model"] = model
    return sum(errs) / len(errs)


# ----- simulated counts from the stats trees --------------------------

def stat_values(tree):
    """(name, value) of every scalar or formula stat in a stats tree."""
    for stat in tree.get("stats", []):
        if stat.get("type") in ("scalar", "formula"):
            yield stat["name"], stat["value"]
    for child in tree.get("groups", []):
        yield from stat_values(child)


def simulated_counts(trees):
    sums = {}

    def add(key, v):
        sums[key] = sums.get(key, 0) + v

    for tree in trees:
        for name, v in stat_values(tree):
            if re.fullmatch(r"node\d+\.(reads|writes)", name):
                add("accesses", v)
            elif re.fullmatch(r"node\d+\.[^.]+\.hits", name):
                add("hits", v)
            elif re.fullmatch(r"node\d+\.[^.]+\.misses", name):
                add("misses", v)
            elif name.endswith(".rowHits"):
                add("row_hits", v)
            elif name.endswith(".rowMisses"):
                add("row_misses", v)
            elif name.endswith("bus.transactions"):
                add("bus", v)
            elif name.endswith("torus.packets"):
                add("packets", v)
            elif (name.endswith("engine.fetches") or
                  name.endswith("engine.deposits") or
                  name.endswith("smpPull.transfers")):
                add("blocks", v)

    def ratio(a, b):
        total = sums.get(a, 0) + sums.get(b, 0)
        return sums.get(a, 0) / total if total else 0

    return {
        "mem.cache.hit_ratio": ratio("hits", "misses"),
        "mem.dram.row_hit_ratio": ratio("row_hits", "row_misses"),
        "mem.accesses": sums.get("accesses", 0),
        "bus.transactions": sums.get("bus", 0),
        "noc.packets": sums.get("packets", 0),
        "remote.engine.blocks": sums.get("blocks", 0),
    }


# ----- the run --------------------------------------------------------

def check_digest(state_dir, workload, digest):
    """Outputs must be byte-identical across the runs of one build."""
    path = state_dir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if workload not in known:
        known[workload] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return known[workload] == digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--inject-wrong", type=int, default=0,
                    help="serve.plan: corrupt this many answers before "
                         "they are checked (tests the failure accounting)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    harness = build(build_dir)
    binary_id = hashlib.sha256(harness.read_bytes()).hexdigest()[:16]
    state_dir = build_dir / "state" / binary_id
    state_dir.mkdir(parents=True, exist_ok=True)

    rows = load_refs(args.workload)
    cmd = [str(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--state-dir", str(state_dir),
           "--inject-wrong", str(args.inject_wrong)]
    for ref in plan_refs(rows):
        cmd += ["--plan-ref", ref]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: harness timed out")
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: harness exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted = res["attempted"] + 1
    failed = res["failed"]
    if not check_digest(state_dir, args.workload, res["digest"]):
        failed += 1

    if args.trace == 0:
        wall = statistics.median(res["pass_s"])
        metrics = {
            "setup_s": statistics.median(res["setup_s"]),
            "wall_s": wall,
            "peak_rss_mb": res["peak_rss_mb"],
            "paper_err_pct": paper_error(rows, res["values"]),
            "ops_per_s": res["ops_per_pass"] / wall,
            "op_p50_us": res["op_p50_us"],
            "op_p99_us": res["op_p99_us"],
        }
        passes = len(res["pass_s"])
        op_samples = res["ops_per_pass"] * passes
        samples = {
            "setup_s": len(res["setup_s"]), "wall_s": passes,
            "peak_rss_mb": 1, "paper_err_pct": len(rows),
            "ops_per_s": passes, "op_p50_us": op_samples,
            "op_p99_us": op_samples,
        }
        units = END_TO_END
    else:
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({k: v for k, v in res["layers"].items()
                        if k in PER_LAYER})
        metrics.update(simulated_counts(res["stats"]))
        samples = dict.fromkeys(PER_LAYER, len(res["traced_pass_s"]))
        samples["machine.build_s"] = len(res["setup_s"])
        samples["serve.index_build_s"] = len(res["setup_s"])
        units = PER_LAYER

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "build_type": BUILD_TYPE,
                 "harness": binary_id},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "samples": samples,
        "pass_s": res["pass_s"],
        "traced_pass_s": res["traced_pass_s"],
        "digest": res["digest"],
        "harness_s": round(time.monotonic() - started, 3),
    }
    if args.trace == 0:
        record["paper_rows"] = [
            {k: row[k] for k in ("figure", "reference point", "paper",
                                 "model")} for row in rows]

    width = max(len(k) for k in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}"
              f"  (samples {samples[name]})")
    print(f"{'fail_frac':<{width}}  {failed / attempted:.6g} ratio"
          f"  (failed {failed} of {attempted})")
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
