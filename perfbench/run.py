"""End-to-end and per-layer benchmark of qstar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qstar checkout; the program is imported from its
src/ directory.  Each workload is a closed loop: one client runs one
operation at a time, and every CLI operation starts in a fresh interpreter,
as a user's call does.  A run repeats whole rounds of the workload's
operations (inputs.py), stopping at the end of the round nearest to
--seconds (after one round at least), then checks every output with
checks.py.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics from the spans of the
traced rounds (tracing.py), with the tracing overhead.  --workload all
runs every workload in turn.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Results and spans are also
written under perfbench/out/.  The exit code is 1 when a check fails and 2
when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import mpmath

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("algnum.squarefree_kernel.calls", "count"),
    ("algnum.squarefree_kernel.self_s", "s"),
    ("algnum.squarefree_kernel.exhausted", "count"),
    ("algnum.squarefree_kernel.exhausted_s", "s"),
    ("algnum.identify_multiquadratic.calls", "count"),
    ("algnum.identify_multiquadratic.found", "count"),
    ("algnum.identify_multiquadratic.self_s", "s"),
    ("algnum.factor_rational.calls", "count"),
    ("algnum.factor_rational.self_s", "s"),
    ("algnum.quadratic_surd_roots.self_s", "s"),
    ("hyperelliptic.search_points.self_s", "s"),
    ("hyperelliptic.search_points.points", "count"),
    ("series.convolve.calls", "count"),
    ("series.convolve.self_s", "s"),
    ("series.convolve.products", "count"),
    ("series.j_expansion.calls", "count"),
    ("series.j_expansion.self_s", "s"),
    ("jpipeline.LevelContext.from_data.self_s", "s"),
    ("jpipeline.j_expression.self_s", "s"),
    ("jpipeline.j_polynomial_at_point.calls", "count"),
    ("jpipeline.j_polynomial_at_point.self_s", "s"),
    ("modular.load_dataset.self_s", "s"),
    ("modular.derive_equation.self_s", "s"),
    ("cli.point_report.calls", "count"),
    ("cli.point_report.self_s", "s"),
    ("cm.class_polynomial.calls", "count"),
    ("cm.class_polynomial.self_s", "s"),
    ("arith.exp_complex.calls", "count"),
    ("arith.exp_complex.self_s", "s"),
    ("cm.identify_cm.calls", "count"),
    ("cm.identify_cm.hits", "count"),
    ("cm.identify_cm.self_s", "s"),
    ("cm.identify_cm.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


class SetupError(Exception):
    """The benchmark cannot run here (no qstar source, or it fails to import)."""


@dataclass
class Child:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Round:
    """One pass over a workload's operations."""

    wall: float
    children: list
    op_walls: dict = field(default_factory=dict)  # op key -> seconds
    outputs: dict = field(default_factory=dict)  # op key -> output, successes only
    failed: list = field(default_factory=list)  # op keys
    spans: list = field(default_factory=list)


def run_child(argv: list, root: Path, env: dict) -> Child:
    """Run argv to completion; wall, CPU and peak RSS come from wait4."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child.stdout", "w+b") as out, open(OUT / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return Child(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            code=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
        )


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSTAR_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe(root: Path, env: dict) -> dict:
    """Import qstar once (which also writes its bytecode cache) and report it."""
    if not (root / "src" / "qstar" / "cli.py").is_file():
        raise SetupError(f"no qstar source under {root / 'src'}")
    code = (
        "import json, qstar, qstar.cli, qstar._backend as b; "
        "print(json.dumps({'file': qstar.__file__, 'compiled': b.COMPILED}))"
    )
    c = run_child([sys.executable, "-c", code], root, env)
    if c.code != 0:
        raise SetupError("importing qstar.cli failed:\n" + c.stderr.decode(errors="replace"))
    info = json.loads(c.stdout)
    src = (root / "src").resolve()
    if src not in Path(info["file"]).resolve().parents:
        raise SetupError(f"qstar was imported from {info['file']}, not from {src}")
    return info


def setup_times(root: Path, env: dict) -> list:
    """Fresh interpreter to `import qstar.cli` done, SETUP_REPEATS times."""
    return [run_child([sys.executable, "-c", "import qstar.cli"], root, env).wall
            for _ in range(SETUP_REPEATS)]


def run_round(workload: str, ops: list, root: Path, env: dict, trace: bool) -> Round:
    spans_file = OUT / "spans.json"
    spans_args = ["--spans", str(spans_file)] if trace else []
    t0 = time.perf_counter()
    rnd = Round(wall=0.0, children=[])
    if trace:
        spans_file.unlink(missing_ok=True)
    if workload == "class-sweep":
        ds = [str(op["D"]) for op in ops]
        argv = [sys.executable, str(CHILD), *spans_args, "sweep", *ds]
        c = run_child(argv, root, env)
        rnd.children.append(c)
        lines = {}
        for text in c.stdout.decode().splitlines():
            line = json.loads(text)
            lines[str(line["D"])] = line
        for op in ops:
            line = lines.get(op["key"])
            if line is None or "coeffs" not in line:
                rnd.failed.append(op["key"])
                continue
            rnd.op_walls[op["key"]] = line["s"]
            rnd.outputs[op["key"]] = (line["coeffs"], line["certified"])
        if trace and spans_file.exists():
            rnd.spans = json.loads(spans_file.read_text())
    else:
        for i, op in enumerate(ops):
            if trace:
                spans_file.unlink(missing_ok=True)
                argv = [sys.executable, str(CHILD), *spans_args, "cli", *op["args"]]
            else:
                argv = [sys.executable, "-m", "qstar.cli", *op["args"]]
            c = run_child(argv, root, env)
            rnd.children.append(c)
            rnd.op_walls[op["key"]] = c.wall
            if c.code != 0:
                rnd.failed.append(op["key"])
                continue
            rnd.outputs[op["key"]] = c.stdout
            if trace and spans_file.exists():
                for span in json.loads(spans_file.read_text()):
                    span["op"] = i
                    rnd.spans.append(span)
    rnd.wall = time.perf_counter() - t0
    return rnd


def check_outputs(workload: str, ops: list, rounds: list, root: Path) -> None:
    """Every output of every round; repeats of one operation must be identical."""
    table1, cm_table = checks.load_tables(root)
    for op in ops:
        outputs = [r.outputs[op["key"]] for r in rounds if op["key"] in r.outputs]
        if not outputs:
            continue
        checks.require(
            all(o == outputs[0] for o in outputs),
            f"{workload} {op['key']}: output differs between repetitions",
        )
        if workload == "class-sweep":
            coeffs, certified = outputs[0]
            checks.check_class_polynomial(op["D"], coeffs, certified)
            continue
        doc = json.loads(outputs[0])
        if workload == "identify-cm":
            checks.check_identify(doc, op["D"], op["hit"])
        else:
            checks.check_pipeline(doc, op["level"], table1, cm_table)


def end_to_end(setup: list, rounds: list) -> dict:
    """Times are means over the run's rounds; op_p50_s is the median, over
    the operations, of each one's mean.  The speed of a shared machine can
    jump for a minute at a time, and a mean over the run moves with the
    share of the run spent at each speed, where a median would jump with it."""
    op_walls = {}
    for r in rounds:
        for key, wall in r.op_walls.items():
            op_walls.setdefault(key, []).append(wall)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(r.wall for r in rounds),
        "op_p50_s": statistics.median(statistics.fmean(w) for w in op_walls.values()),
        "cpu_s": statistics.fmean(sum(c.cpu for c in r.children) for r in rounds),
        "peak_rss_mb": max(c.rss_mb for r in rounds for c in r.children),
    }


def per_layer(plain: list, traced: list) -> dict:
    """Medians over traced rounds; counts repeat exactly from round to round,
    and median_low keeps them whole."""
    layers = [tracing.layer_metrics(r.spans) for r in traced]
    out = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            m[name] for m in layers
        )
        for name, unit in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    env = child_env(root)
    info = probe(root, env)
    setup = setup_times(root, env)
    ops = inputs.operations(workload, seed)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(workload, ops, root, env, trace=False))
        if trace:
            traced.append(run_round(workload, ops, root, env, trace=True))
        # one more step of rounds if it ends nearer to --seconds than stopping now
        elapsed = time.perf_counter() - start
        step = elapsed / len(plain)
        if elapsed + step / 2 >= seconds:
            break
    failed = sum(len(r.failed) for r in plain + traced)
    attempted = len(ops) * len(plain + traced)
    error = None
    try:
        check_outputs(workload, ops, plain + traced, root)
    except checks.CheckError as exc:
        error = str(exc)
    if trace:
        values, units = per_layer(plain, traced), PER_LAYER
    else:
        values, units = end_to_end(setup, plain), END_TO_END
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(),
            "qstar_compiled": info["compiled"],
        },
        "check_error": error,
        "failed_ops": sorted({k for r in plain + traced for k in r.failed}),
        "setup_s": setup,
        "rounds": [{"wall_s": r.wall, "op_walls_s": r.op_walls} for r in plain],
        "traced_rounds": [{"wall_s": r.wall, "op_walls_s": r.op_walls} for r in traced],
        "notes": {"series.convolve.products": "computed from the argument lengths"},
        "result": result,
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = [{"ops": [op["key"] for op in ops], "spans": r.spans} for r in traced]
        (OUT / f"trace-{tag}.json").write_text(json.dumps(spans) + "\n")
    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"{attempted} operations attempted, {failed} failed, "
          + ("checks passed" if error is None else f"CHECK FAILED: {error}"))
    for name, unit in units:
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so that run_child ends the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
            if len(names) > 1:
                print(json.dumps(results[name]))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
