"""The pred benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a checkout (it imports pred from ``./src``).  Workloads
are ``cli-pipeline``, ``solve-mix`` and ``reduce-large`` (see NOTES.md).  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced pass.  Earlier lines
print every metric by name with its unit, including the workload-specific
ones (``pipeline_ms.*``, ``solve_s.*``, ``roundtrip_s``, ``envelope_mb``,
``failed_ratio``), and the full report is written under ``perfbench/out/``.

Set-up is timed in fourteen extra fresh processes besides the measured one,
seven before it and seven after it, and ``setup_s`` is the median of the
fifteen.  The timed end-to-end metrics are scaled to a nominal host speed by
a reference routine timed next to each operation
(``workloads.set_host_factors``); the raw wall times are printed beside them.
The solve-mix oracle (HiGHS) runs in its own process before the workload,
outside every timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 7, 7
WORKER_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a Python child in its own session; on timeout kill it with all its children."""
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker(args, *extra) -> dict:
    proc = run_child([str(HERE / "workloads.py"), "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", str(args.seconds), *extra])
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quantile(values, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def source_digest() -> str:
    """Hash of the program and benchmark sources: counts must repeat per digest."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "pred").glob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def all_ops(raw: dict) -> list[dict]:
    return raw["ops"] + raw.get("untraced_ops", []) + raw.get("traced_ops", [])


def deterministic_counts(raw: dict) -> tuple[dict, list[str]]:
    """Each operation's counts and labels, and the operations whose counts change between passes.

    Every operation runs at least twice in a run (passes, or untraced and
    traced), so each run checks that the same input gives the same counts.
    """
    keep = ("label", "route_hops", "fold_configs", "envelope_bytes",
            "ilp_vars", "ilp_rows", "ilp_nonzeros", "failed_kind")
    counts, changed = {}, []
    for op in all_ops(raw):
        op = dict(op, failed_kind=None if op["failed"] is None else op["failed"].split(":")[0])
        mine = {k: op[k] for k in keep if k in op}
        if counts.setdefault(op["id"], mine) != mine:
            changed.append(op["id"])
    if "layers" in raw:
        counts["_layers"] = {k: v for k, v in raw["layers"].items() if unit_of(k) in ("count", "B")}
    return counts, sorted(set(changed))


def repeat_check(args, counts: dict) -> str | None:
    """Compare counts with an earlier run of the same sources, workload and seed."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}-trace{args.trace}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counts:
            changed = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
            return f"counts differ from an earlier run with the same seed: {changed[:5]}"
        return None
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def scaled_setup(raw: dict) -> float:
    """A set-up time scaled to the nominal host speed by the reference timed after it."""
    return raw["setup_s"] / raw["setup_host_factor"]


def op_ms(ops: list[dict], scaled: bool = False) -> dict[str, float]:
    """Each operation's median latency over the run's passes, wall or scaled to nominal host speed.

    The median, not the fastest pass: the host factor is itself a noisy
    reading, and the smallest of several scaled samples picks the pass whose
    reference read slowest as often as the pass that ran fastest.
    """
    samples: dict[str, list[float]] = {}
    for op in ops:
        if "ms" in op:
            samples.setdefault(op["id"], []).append(op["ms"] / op["host_factor"] if scaled else op["ms"])
    return {op_id: statistics.median(values) for op_id, values in samples.items()}


def end_to_end(raw: dict, setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "pass_s": sum(op_ms(raw["ops"], scaled=True).values()) / 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def workload_metrics(raw: dict, failed: int, attempted: int, setup_wall: list[float]) -> dict:
    """Metrics that apply to this workload only; printed and saved, not in the result line."""
    typical = op_ms(raw["ops"])
    named = {
        "failed_ratio": (failed / attempted, "ratio"),
        "op_ms.p50": (quantile(typical.values(), 0.5), "ms"),
        "op_ms.p90": (quantile(typical.values(), 0.9), "ms"),
    }
    family_of = {op["id"]: op["family"] for op in raw["ops"]}
    if raw["workload"] == "cli-pipeline":
        samples = [op["ms"] for op in raw["ops"]]
        named["pipeline_ms.p50"] = (quantile(samples, 0.5), "ms")
        named["pipeline_ms.p90"] = (quantile(samples, 0.9), "ms")
        named["pipelines"] = (len(samples), "count")
    elif raw["workload"] == "solve-mix":
        for family in gen.SOLVE_MIX:
            total = sum(ms for op_id, ms in typical.items() if family_of[op_id] == family)
            named[f"solve_s.{family}"] = (total / 1e3, "s")
    else:
        named["roundtrip_s"] = (sum(typical.values()) / 1e3, "s")
        first = [op for op in raw["ops"] if op["pass"] == 0]
        named["envelope_mb"] = (sum(op.get("envelope_bytes", 0) for op in first) / 1e6, "MB")
        for step in ("reduce", "encode", "parse", "replay", "extract", "evaluate"):
            named[f"roundtrip_s.{step}"] = (
                sum(op["steps_ms"][step] for op in first if "steps_ms" in op) / 1e3, "s"
            )
    named["pass_s.wall"] = (sum(typical.values()) / 1e3, "s")
    named["setup_s.wall"] = (statistics.median(setup_wall), "s")
    named["host_factor.median"] = (statistics.median(op["host_factor"] for op in raw["ops"]), "ratio")
    named["passes"] = (len(raw["passes"]), "count")
    named["pass_wall_s.median"] = (statistics.median(raw["passes"]), "s")
    return named


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pred" / "__init__.py").is_file():
        return fail(f"run from the root of a pred checkout: {ROOT / 'src' / 'pred'} is missing")
    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload, "why": gen.WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(), "source_digest": source_digest(),
        "loadavg_start": loadavg(), "sizes": gen.sizes(),
    }
    began = time.perf_counter()
    try:
        probes = [worker(args, "--setup-only") for _ in range(SETUP_PROBES_BEFORE)]
        extra = ["--trace", str(args.trace)]
        if args.workload == "solve-mix":
            oracle_path = OUT / f"oracle-seed{args.seed}.json"
            proc = run_child([str(HERE / "oracle.py"), "--seed", str(args.seed)])
            if proc.returncode != 0:
                raise RuntimeError(f"oracle exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            oracle_path.write_text(proc.stdout)
            extra += ["--oracle", str(oracle_path)]
        if args.trace:
            extra += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.json")]
        raw = worker(args, *extra)
        probes += [worker(args, "--setup-only") for _ in range(SETUP_PROBES_AFTER)]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(str(exc))
    probes.append(raw)
    setup = [scaled_setup(probe) for probe in probes]
    meta["loadavg_end"] = loadavg()
    meta["wall_s"] = time.perf_counter() - began

    ops = all_ops(raw)
    attempted = len(ops)
    failed = sum(op["failed"] is not None for op in ops)
    wrong = [f"{op['id']}: {op['failed']}" for op in ops if op["wrong"]]
    counts, changed = deterministic_counts(raw)
    if changed:
        wrong.append(f"counts differ between passes of this run: {changed[:5]}")
    mismatch = repeat_check(args, counts)
    if mismatch:
        wrong.append(mismatch)
    correct = not wrong and attempted > 0

    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in raw["layers"].items()}
    else:
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(raw, setup).items()}
    named = {}
    if not args.trace:
        named = workload_metrics(raw, failed, attempted, [probe["setup_s"] for probe in probes])
    report = {
        "meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
        "wrong": wrong, "failures": sorted({f"{op['id']}: {op['failed']}" for op in ops if op["failed"]}),
        "setup_s_samples": setup,
        "setup_s_wall_samples": [probe["setup_s"] for probe in probes],
        "metrics": as_json(metrics),
        "workload_metrics": as_json(named),
        "counts": counts,
        "passes": raw.get("passes"),
        "ops": [{k: v for k, v in op.items() if k != "witness"} for op in ops],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True, default=str))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {gen.WHY[args.workload]}")
    for key, (value, unit) in {**metrics, **named}.items():
        print(f"{key:32} {value:>16.6g} {unit}")
    for line in wrong[:20]:
        print(f"WRONG {line}")
    print(f"# full report: {OUT / name}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": as_json(metrics),
    }))
    return 0


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def unit_of(name: str) -> str:
    parts = name.split(".")
    if name.endswith("per_s"):
        return "1/s"
    if any(part.endswith("_ms") for part in parts):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
