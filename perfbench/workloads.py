"""One workload in one fresh process: set up, measure, check, report raw data.

    python3 perfbench/workloads.py --workload solve-mix --seed 1 --seconds 35 --trace 0

Started by ``run.py`` from the root of a checkout; imports pred from
``./src``.  The last stdout line is a JSON object of raw measurements that
``run.py`` turns into metrics.  The load is one closed-loop client: one
operation at a time, the next only after the previous one returns, and at
most one pred child process alive at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import gen
from spans import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
STAGE_TIMEOUT_S = 60
# The reference routine's input (a dense table, like the ILP rows pred builds)
# and its time on the 2-core measuring host in a quiet spell.
REFERENCE_TABLE = [[(i * j) % 5 - 2 for j in range(150)] for i in range(150)]
REFERENCE_NOMINAL_MS = 5.5


def import_pred():
    if not (SRC / "pred" / "__init__.py").is_file():
        raise SystemExit(f"no pred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pred
    import pred.cli

    if Path(pred.__file__).resolve().parent != (SRC / "pred").resolve():
        raise SystemExit(f"imported pred from {pred.__file__}, not {SRC}")
    return pred


def pred_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def document(case: dict) -> dict:
    return {"problem": case["problem"], "data": case["data"]}


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def reference_ms(repeats: int = 3) -> float:
    """Fastest of ``repeats`` runs of a fixed stdlib routine: how fast the host is right now.

    The routine uses no pred code (a JSON round trip of a dense table, tuple
    building and an arithmetic fold), so a change to pred cannot move it; the
    host's speed, which drifts by tens of percent over minutes on a shared
    machine, moves it and the measured operations alike.
    """
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        rows = [tuple(row) for row in json.loads(json.dumps(REFERENCE_TABLE))]
        sum(a * b for row in rows for a, b in zip(row, rows[0]))
        best = min(best, time.perf_counter() - began)
    return best * 1e3


# --- operations ----------------------------------------------------------------

def run_stages(stages, env) -> tuple[list[float], list]:
    """Run the stages as real processes, one after another, piping stdout on."""
    times, results = [], []
    data = b""
    for argv in stages:
        began = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pred", *argv], input=data, capture_output=True,
            env=env, timeout=STAGE_TIMEOUT_S, check=False,
        )
        times.append(time.perf_counter() - began)
        results.append(proc)
        if proc.returncode != 0:
            break
        data = proc.stdout
    return times, results


def main_stages(pred, stages) -> tuple[list[float], list]:
    """Run the same stages in-process through ``pred.cli.main``."""
    times, results = [], []
    data = ""
    for argv in stages:
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(data)
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pred.cli.main(list(argv))
        finally:
            sys.stdin = saved
        times.append(time.perf_counter() - began)
        results.append(subprocess.CompletedProcess(argv, code, out.getvalue().encode(), b""))
        if code != 0:
            break
        data = out.getvalue()
    return times, results


def check_pipeline(pipe, results, expected) -> str | None:
    if len(results) != len(pipe["stages"]) or results[-1].returncode != 0:
        last = results[-1]
        return f"stage {len(results)} exit {last.returncode}: {last.stderr.decode()[-200:]}"
    out = results[-1].stdout.decode()
    if "expect" in pipe:
        want = expected[pipe["expect"]]
        return None if out == want else f"stdout {out!r} != expected {want!r}"
    doc = pipe["check"]
    try:
        got = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"unparsable output: {exc}"
    return check.verdict(doc, check.brute_optimum(doc), got["value"]["payload"], got["solution"])


def solve_case(pred, case):
    """Solve one solve-mix case: ``(result, reason, excused)``.

    ``reason`` is None on success.  A failure is ``excused`` (counted, but not
    a wrong answer) only when the case is the one named as exhausting its node
    budget and it did; any other exception is a wrong answer.
    """
    kwargs = {"max_nodes": case["max_nodes"]} if "max_nodes" in case else {}
    try:
        return pred.solve(case["instance"], **kwargs), None, False
    except pred.BudgetExceededError as exc:
        return None, f"budget exhausted: {exc}", bool(case.get("budget_may_exhaust"))
    except Exception as exc:  # a crash is one failed operation, not a stopped run
        return None, f"{type(exc).__name__}: {exc}", False


def round_trip(pred, graph, ilp_key, instance, tracer=None) -> dict:
    """Reduce to ILP, encode, parse, replay-verify, extract all-zero, evaluate."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    marks = [time.perf_counter()]
    path = graph.find_path(instance.variant_key(), ilp_key)
    envelope = pred.reduce_along(path, instance)
    marks.append(time.perf_counter())
    with span("cli.envelope.encode"):
        text = json.dumps(pred.cli.envelope_to_document(envelope), sort_keys=True)
    marks.append(time.perf_counter())
    del envelope
    with span("cli.envelope.parse"):
        document = json.loads(text)
    marks.append(time.perf_counter())
    size = len(text)  # json.dumps escapes to ASCII, so characters are bytes
    del text
    replayed = pred.cli.envelope_from_document(document, graph)
    marks.append(time.perf_counter())
    zero = (0,) * replayed.target_instance.data.num_vars
    config = pred.extract_along(replayed, zero)
    marks.append(time.perf_counter())
    source_value = pred.evaluate(replayed.source_instance, config)
    marks.append(time.perf_counter())
    steps = ("reduce", "encode", "parse", "replay", "extract", "evaluate")
    return {
        "s": {k: b - a for k, a, b in zip(steps, marks, marks[1:])},
        "total_s": marks[-1] - marks[0],
        "bytes": size,
        "document": document,
        "config": config,
        "source_value": source_value,
    }


def check_round_trip(case, trip) -> str | None:
    target = trip["document"]["target"]
    zero = [0] * target["data"]["num_vars"]
    if not check.score(target, zero)[0]:
        return "all-zero target configuration is infeasible"
    _, own = check.score(case, trip["config"])
    if trip["source_value"].payload != own:
        return f"source evaluates to {trip['source_value'].render()}, checker says {own}"
    return None


# --- workloads ------------------------------------------------------------------

def pass_count(seconds: float, nominal_pass_s: float, minimum: int) -> int:
    """Whole passes that fit ``seconds`` at the workload's nominal pass time, at least ``minimum``.

    The count depends only on ``--seconds``, never on how fast this run goes,
    so two commits are measured with the same number of passes.  Every
    operation runs once per pass and run.py keeps each operation's median
    time, so a burst of load from other tenants has to hit most passes of an
    operation to move the result.
    """
    return max(minimum, int(seconds // nominal_pass_s))


def pass_order(cases: list, index: int) -> list:
    """Odd passes run the list backwards, so an operation's samples lie far apart in time."""
    return cases if index % 2 == 0 else cases[::-1]


class Workload:
    """A fixed list of operations, run pass after pass by one closed-loop client."""

    name = ""
    nominal_pass_s = 10.0
    min_passes = 2
    rusage_who = resource.RUSAGE_SELF  # whose peak RSS is the workload's

    def run_pass(self, ops: list, pass_index: int, tracer: Tracer | None = None,
                 reference=None) -> None:
        """Every operation once, appended to ``ops`` in the order run.

        With ``reference``, each operation's ``ref_ms`` is ``reference()``
        timed just before it.
        """
        raise NotImplementedError

    def measure(self, seconds: float, out: dict) -> None:
        passes = []
        for index in range(pass_count(seconds, self.nominal_pass_s, self.min_passes)):
            began = time.perf_counter()
            self.run_pass(out["ops"], index, reference=reference_ms)
            passes.append(time.perf_counter() - began)
        out["passes"] = passes
        out["peak_rss_mb"] = rss_mb(self.rusage_who)
        set_host_factors(out["ops"])

    def trace(self, tracer: Tracer, out: dict) -> None:
        """One untraced pass into ``ops``, then one traced pass into ``traced_ops``."""
        untraced_then_traced(
            tracer, out, lambda active: self.run_pass(out["traced_ops"] if active else out["ops"], 0, active)
        )


def set_host_factors(ops: list) -> None:
    """Give each operation how much slower than nominal the host ran around it.

    The factor is the mean of the reference timed just before the operation
    and the one timed just after it (the next operation's), over the nominal
    time.  run.py divides operation times by it.  On the same ten runs this
    pair tracked the host more closely than a median over wider windows.
    """
    refs = [op["ref_ms"] for op in ops]
    for i, op in enumerate(ops):
        op["host_factor"] = statistics.mean(refs[i:i + 2]) / REFERENCE_NOMINAL_MS


def untraced_then_traced(tracer: Tracer, out: dict, run_pass) -> None:
    """Time ``run_pass(None)``, then ``run_pass(tracer)`` with the tracer installed.

    The traced time leaves out the observers' own time, as the spans do.
    """
    out["traced_ops"] = []
    began = time.perf_counter()
    run_pass(None)
    untraced_s = time.perf_counter() - began
    tracer.install()
    observed = tracer.observer_ns
    began = time.perf_counter()
    try:
        run_pass(tracer)
    finally:
        traced_s = time.perf_counter() - began - (tracer.observer_ns - observed) / 1e9
        tracer.uninstall()
    out["trace_pass_s"] = {"untraced": untraced_s, "traced": traced_s}


class CliPipeline(Workload):
    name = "cli-pipeline"
    nominal_pass_s = 10.0
    rusage_who = resource.RUSAGE_CHILDREN  # the largest pred stage process

    def __init__(self, pred, seed):
        self.pred = pred
        self.seed = seed
        self.pipes = gen.cli_pipelines(seed)
        self.expected = json.loads((Path(__file__).parent / "expected_cli.json").read_text())
        self.env = pred_env()
        self.real = lambda stages: run_stages(stages, self.env)
        self.main = lambda stages: main_stages(pred, stages)

    @property
    def min_passes(self) -> int:
        return -(-gen.CLI_MIN_PIPELINES // len(self.pipes))

    def run_pass(self, ops, pass_index, tracer=None, reference=None, runner=None):
        """Every pipeline once, in an order shuffled per pass; real processes unless ``runner``."""
        order = list(self.pipes)
        random.Random(f"{self.seed}:order:{pass_index}").shuffle(order)
        for pipe in order:
            if tracer is not None:
                tracer.instance = pipe["id"]
            ref = reference() if reference else None
            ops.append(dict(self.one(pipe, runner or self.real, pass_index), ref_ms=ref))

    def one(self, pipe, runner, pass_index) -> dict:
        began = time.perf_counter()
        times, results = runner(pipe["stages"])
        elapsed = time.perf_counter() - began
        reason = check_pipeline(pipe, results, self.expected)
        solver = None
        if reason is None and "--pretty" not in pipe["stages"][-1]:
            solver = json.loads(results[-1].stdout)["solver"]
        reduce_bytes = [len(r.stdout) for a, r in zip(pipe["stages"], results) if a[0] == "reduce"]
        return {
            "id": pipe["id"], "family": "pipeline", "ms": elapsed * 1e3, "pass": pass_index,
            "failed": reason, "wrong": reason is not None, "label": solver,
            "stages": {a[0]: t * 1e3 for a, t in zip(pipe["stages"], times)},
            "envelope_bytes": sum(reduce_bytes),
        }

    def trace(self, tracer, out):
        """Real processes once for stage latency, then in-process untraced and traced."""
        self.run_pass(out["ops"], 0)
        out["untraced_ops"] = []
        untraced_then_traced(tracer, out, lambda active: self.run_pass(
            out["traced_ops"] if active else out["untraced_ops"], 0, active, runner=self.main
        ))


class SolveMix(Workload):
    name = "solve-mix"
    nominal_pass_s = 7.0

    def __init__(self, pred, seed):
        self.pred = pred
        self.oracle = None  # reference optima, loaded after set-up is timed
        registry = pred.default_graph().registry
        self.cases = gen.solve_mix(seed)
        for case in self.cases:
            case["instance"] = pred.instance_from_document(document(case), registry)

    def run_pass(self, ops, pass_index, tracer=None, reference=None):
        for case in pass_order(self.cases, pass_index):
            if tracer is not None:
                tracer.instance = case["id"]
            ref = reference() if reference else None
            began = time.perf_counter()
            result, reason, excused = solve_case(self.pred, case)
            elapsed = time.perf_counter() - began
            label = hops = witness = None
            if result is not None:
                label = self.pred.solver_label(result)
                hops = len(result.route.steps) if result.route else 0
                witness = list(result.witness) if result.witness is not None else None
                reason = check.verdict(case, self.oracle[case["id"]], result.value.payload, witness)
            configs = 1
            for d in case["instance"].config_dims():
                configs *= d
            ops.append({
                "id": case["id"], "family": case["family"], "ms": elapsed * 1e3,
                "pass": pass_index, "ref_ms": ref, "failed": reason, "wrong": reason is not None and not excused,
                "label": label, "route_hops": hops, "witness": witness,
                "fold_configs": configs if label == "brute-force" else 0,
            })


class ReduceLarge(Workload):
    name = "reduce-large"
    nominal_pass_s = 12.0

    def __init__(self, pred, seed):
        self.pred = pred
        self.graph = pred.default_graph()
        self.ilp_key = self.graph.registry.lookup("IntegerLinearProgram").key
        self.cases = gen.reduce_large(seed)
        for case in self.cases:
            case["instance"] = pred.instance_from_document(document(case), self.graph.registry)

    def run_pass(self, ops, pass_index, tracer=None, reference=None):
        for case in pass_order(self.cases, pass_index):
            if tracer is not None:
                tracer.instance = case["id"]
            op = {"id": case["id"], "family": case["family"], "pass": pass_index,
                  "ref_ms": reference() if reference else None}
            trip = None
            try:
                trip = round_trip(self.pred, self.graph, self.ilp_key, case["instance"], tracer)
                reason = check_round_trip(case, trip)
                op.update(check.ilp_size(trip["document"]["target"]["data"]))
                op.update(ms=trip["total_s"] * 1e3, steps_ms={k: v * 1e3 for k, v in trip["s"].items()},
                          envelope_bytes=trip["bytes"])
            except Exception as exc:  # a crash or an unreadable envelope is a wrong answer
                reason = f"{type(exc).__name__}: {exc}"
            op.update(failed=reason, wrong=reason is not None)
            ops.append(op)
            del trip


WORKLOADS = {w.name: w for w in (CliPipeline, SolveMix, ReduceLarge)}


# --- the traced run's probes ------------------------------------------------------

def probe_processes(env) -> dict:
    """Median wall time of a bare interpreter and in-process time of ``import pred``."""
    interp, imports = [], []
    for _ in range(5):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=STAGE_TIMEOUT_S)
        interp.append((time.perf_counter() - began) * 1e3)
    code = "import time; t = time.perf_counter(); import pred; print(time.perf_counter() - t)"
    for _ in range(5):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True,
            timeout=STAGE_TIMEOUT_S,
        )
        imports.append(float(proc.stdout) * 1e3)
    return {"interp_ms": statistics.median(interp), "import_ms": statistics.median(imports)}


def probe_in_process(pred, tracer, out) -> None:
    """README pipe and DecisionVC pipe through cli.main, plus one envelope round trip.

    Runs in every traced pass so each layer has spans on every workload.
    """
    graph = pred.default_graph()
    ilp_key = graph.registry.lookup("IntegerLinearProgram").key
    readme = pred.instance_from_document(
        {"problem": "MIS", "data": {"num_vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]]}},
        graph.registry,
    )
    pipes = [p for p in gen.cli_pipelines(0) if p["id"] in ("readme", "example:DecisionVC")]
    for pipe in pipes:
        tracer.instance = f"probe:{pipe['id']}"
        times, results = main_stages(pred, pipe["stages"])
        out.setdefault("probe_main_ms", []).append(
            {a[0]: t * 1e3 for a, t in zip(pipe["stages"], times)}
        )
    tracer.instance = "probe:round-trip"
    out["probe_envelope_bytes"] = round_trip(pred, graph, ilp_key, readme, tracer)["bytes"]


def layer_metrics(pred, tracer: Tracer, raw: dict) -> dict:
    """Per-layer totals over the traced pass (inclusive ms per span name) and probes."""
    inclusive, calls, self_ms = tracer.totals()
    ms = lambda name: inclusive.get(name, 0.0)
    counts = tracer.counts
    graph_build = []
    for _ in range(5):
        began = time.perf_counter()
        pred.graph.default_graph.__wrapped__()
        graph_build.append((time.perf_counter() - began) * 1e3)
    fold_ms = ms("model.fold_space")
    trace_s = raw["trace_pass_s"]
    stage = lambda ops, key: statistics.median(
        o["stages"][key] for o in ops if key in o.get("stages", {})
    )
    real_ops = raw["ops"] if raw["workload"] == "cli-pipeline" else raw["probe_stage_ops"]
    main_ops = raw["untraced_ops"] if raw["workload"] == "cli-pipeline" else raw["probe_main_ops"]
    return {
        "cli.interp_ms": raw["probe"]["interp_ms"],
        "cli.import_ms": raw["probe"]["import_ms"],
        **{f"cli.stage_ms.{k}": stage(real_ops, k) for k in ("create", "reduce", "solve")},
        **{f"cli.main_ms.{k}": stage(main_ops, k) for k in ("create", "reduce", "solve")},
        "graph.build_ms": statistics.median(graph_build),
        "graph.find_path_ms": ms("graph.find_path"),
        "graph.find_path.calls": calls.get("graph.find_path", 0),
        "graph.make_path_ms": ms("graph.make_path"),
        "graph.route_hops": counts.get("graph.route_hops", 0),
        "graph.reduce_along_ms": ms("graph.reduce_along"),
        "rules.ilp_vars": counts.get("rules.ilp_vars", 0),
        "rules.ilp_rows": counts.get("rules.ilp_rows", 0),
        "rules.ilp_nonzeros": counts.get("rules.ilp_nonzeros", 0),
        "cli.envelope.encode_ms": ms("cli.envelope.encode"),
        "cli.envelope.parse_ms": ms("cli.envelope.parse"),
        "cli.envelope.replay_ms": ms("cli.envelope_from_document"),
        "cli.envelope.bytes": raw["trace_envelope_bytes"],
        "problems.from_document_ms": ms("problems.from_document"),
        "problems.to_document_ms": ms("problems.to_document"),
        "solvers.solve_ms": ms("solvers.solve"),
        "solvers.solve_ilp_ms": ms("solvers.solve_ilp"),
        "solvers.solve_ilp.calls": calls.get("solvers.solve_ilp", 0),
        "solvers.dispatch.ilp": counts.get("solvers.dispatch.ilp", 0),
        "solvers.dispatch.brute": counts.get("solvers.dispatch.brute", 0),
        "solvers.budget_exhausted": counts.get("solvers.budget_exhausted", 0),
        "model.fold_ms": fold_ms,
        "model.fold_configs": counts.get("model.fold_configs", 0),
        "model.fold_configs_per_s": (
            counts.get("model.fold_configs", 0) / (fold_ms / 1e3) if fold_ms else 0.0
        ),
        "graph.extract_ms": ms("graph.extract_along"),
        "model.evaluate_ms": ms("model.evaluate"),
        **{f"self_ms.{layer}": value for layer, value in self_ms.items()},
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": trace_s["untraced"],
        "trace.traced_s": trace_s["traced"],
        "trace.overhead_pct": 100 * (trace_s["traced"] - trace_s["untraced"]) / trace_s["untraced"],
    }


def run_traced(pred, workload, raw, spans_path) -> None:
    """Probes, then the workload's untraced and traced passes, then per-layer totals."""
    env = pred_env()
    raw["probe"] = probe_processes(env)
    if not isinstance(workload, CliPipeline):
        readme = gen.cli_pipelines(0)[0]["stages"]
        raw["probe_stage_ops"] = []
        for _ in range(3):
            times, _ = run_stages(readme, env)
            raw["probe_stage_ops"].append({"stages": dict(zip(("create", "reduce", "solve"),
                                                              (t * 1e3 for t in times)))})
    probe_untraced = {}
    probe_in_process(pred, Tracer(), probe_untraced)
    raw["probe_main_ops"] = [{"stages": s} for s in probe_untraced["probe_main_ms"]]
    tracer = Tracer()
    workload.trace(tracer, raw)
    probe_traced = {}
    tracer.install()
    try:
        probe_in_process(pred, tracer, probe_traced)
    finally:
        tracer.uninstall()
    raw["trace_envelope_bytes"] = probe_traced["probe_envelope_bytes"] + sum(
        o.get("envelope_bytes", 0) for o in raw["traced_ops"]
    )
    raw["layers"] = layer_metrics(pred, tracer, raw)
    if spans_path:
        tracer.write(spans_path)


# --- entry point ---------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--oracle", help="JSON file of reference optima (solve-mix)")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    began = time.perf_counter()
    pred = import_pred()
    pred.default_graph()
    workload = WORKLOADS[args.workload](pred, args.seed)
    setup_s = time.perf_counter() - began
    host_factor = reference_ms(5) / REFERENCE_NOMINAL_MS
    raw = {"workload": args.workload, "setup_s": setup_s, "setup_host_factor": host_factor, "ops": []}
    if args.setup_only:
        print(json.dumps(raw))
        return 0

    if isinstance(workload, SolveMix):
        if not args.oracle:
            raise SystemExit("solve-mix needs --oracle: its answers are checked against it")
        workload.oracle = json.loads(Path(args.oracle).read_text())
    if args.trace:
        run_traced(pred, workload, raw, args.spans)
    else:
        workload.measure(args.seconds, raw)
    print(json.dumps(raw, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
