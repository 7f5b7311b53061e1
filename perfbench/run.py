"""Benchmark for shilov's product-law checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is ``annulus_product``,
``exact_growth``, ``cli_demos`` or ``all``.  Each repetition runs in its own
child interpreter (``child.py``), one at a time, with ``src`` on the path
and the inherited OPENBLAS/OMP/MKL thread variables removed, so the
libraries run at their own default thread counts.  Repetitions continue
while another one fits in ``--seconds``; extra set-up-only children bring
the set-up samples to at least five.  A crash, a kill or a timeout of a
child counts as one failed operation, and the run goes on.

With ``--trace 0`` it reports the medians of the end-to-end metrics over the
repetitions.  With ``--trace 1`` repetitions alternate between traced and
untraced children and it reports the per-layer spans of one traced
repetition, the remainder of the traced interval outside every span, and the
tracing overhead against the untraced repetitions (input generation plus the
run, so it can come out negative when the machine's speed drifts).

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric by name and unit, the undecided and failed ratios, and the
environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("annulus_product", "exact_growth", "cli_demos")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HARD_LIMIT_S = 170.0  # per workload; a child still running then is killed
SETUP_SAMPLES = 5

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# span layer -> the per-layer metrics reported for it
SPAN_METRICS = {
    "boundary.certify_peak": ("calls", "self_s", "p50_ms", "p90_ms"),
    "boundary.lbfgs": ("calls", "self_s"),
    "boundary.shilov_estimate": ("self_s",),
    "boundary.reverify": ("self_s",),
    "boundary.witnesses": ("self_s",),
    "boundary.verify_product": ("self_s",),
    "algebra.validate_algebra": ("calls", "self_s"),
    "characters.characters": ("calls", "self_s"),
    "function_algebras.as_algebra": ("self_s",),
    "function_algebras.check_admissible": ("self_s",),
    "function_algebras.check_natural": ("self_s",),
    "function_algebras.span_membership": ("calls", "self_s"),
    "function_algebras.build": ("self_s",),
    "spaces": ("self_s",),
    "cli.main": ("self_s",),
    "cli.validate_config": ("self_s",),
    "cli.run_config": ("self_s",),
    "reports.canonical_json": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}
PER_LAYER = [
    (f"{layer}.{stat}", STAT_UNITS[stat])
    for layer, stats in SPAN_METRICS.items() for stat in stats
] + [
    ("boundary.decided_ratio", "ratio"),
    ("algebra.validate_algebra.max_dim", "count"),
    ("trace.wall_s", "s"),
    ("trace.remainder_s", "s"),
    ("trace.overhead_s", "s"),
]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    paths = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_child(argv: list[str], root: Path, timeout: float):
    """Run one child; return (result dict, None) or (None, reason)."""
    try:
        proc = subprocess.run(
            argv, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return None, f"exit code {proc.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError:
        return None, f"unreadable child output: {lines[-1][:200]}"


def _child_argv(workload, seed, traced, size, setup_only=False) -> list[str]:
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced)), "--size", size,
            "--launch", repr(_now())]
    return argv + ["--setup-only"] if setup_only else argv


@dataclass
class Measurement:
    workload: str
    seed: int
    reps: list[dict] = field(default_factory=list)  # successful children
    setups: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def measure(workload: str, seed: int, seconds: float, traced: bool, root: Path,
            size: str = "full") -> Measurement:
    """Repeat the workload in fresh children for ``seconds``."""
    start = _now()
    deadline = start + HARD_LIMIT_S
    expected_src = str((root / "src" / "shilov").resolve())
    m = Measurement(workload, seed)
    min_reps = 2 if traced or workload == "cli_demos" else 1
    longest = 0.0
    children = 0
    while True:
        trace_this = traced and children % 2 == 0
        began = _now()
        result, problem = run_child(
            _child_argv(workload, seed, trace_this, size), root, deadline - began)
        longest = max(longest, _now() - began)
        children += 1
        if result is not None and result["src"] != expected_src:
            result, problem = None, f"imported shilov from {result['src']}"
        if result is None:
            m.attempted += 1
            m.failed += 1
            m.problems.append(f"child {children}: {problem}")
        else:
            result["traced"] = trace_this
            m.reps.append(result)
            m.attempted += result["attempted"]
            m.failed += result["failed"]
            m.problems.extend(result["failures"])
            if not trace_this:
                m.setups.append(result["setup_s"])
        now = _now()
        if now + longest > deadline or (children >= min_reps and now + longest > start + seconds):
            break
    _compare_digests(m)
    while not traced and len(m.setups) < SETUP_SAMPLES and _now() + 10.0 < deadline:
        result, problem = run_child(
            _child_argv(workload, seed, False, size, setup_only=True), root, deadline - _now())
        if result is None:
            m.attempted += 1
            m.failed += 1
            m.problems.append(f"set-up child: {problem}")
            break
        m.setups.append(result["setup_s"])
    return m


def _compare_digests(m: Measurement) -> None:
    """Outputs of one seed must be byte-identical across repetitions."""
    if not m.reps:
        return
    first = m.reps[0]["digests"]
    for k, rep in enumerate(m.reps[1:], start=2):
        for entry, digest in rep["digests"].items():
            if first.get(entry, digest) != digest:
                m.failed += 1
                m.problems.append(f"{entry}: output of repetition {k} differs from repetition 1")


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(m: Measurement) -> dict:
    plain = [r for r in m.reps if not r["traced"]]
    metrics = {name: _median([r[name] for r in plain]) for name, _ in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = _median(m.setups)
    return metrics


def per_layer(m: Measurement) -> dict:
    traced = sorted((r for r in m.reps if r["traced"]), key=lambda r: r["gen_s"] + r["wall_s"])
    plain = [r["gen_s"] + r["wall_s"] for r in m.reps if not r["traced"]]
    rep = traced[(len(traced) - 1) // 2]  # the median traced repetition
    trace = rep["trace"]
    metrics = {}
    for layer, stats in SPAN_METRICS.items():
        span = trace["spans"].get(layer, {"calls": 0, "self_s": 0.0, "durations": []})
        durations = sorted(span["durations"])
        for stat in stats:
            if stat in ("calls", "self_s"):
                metrics[f"{layer}.{stat}"] = span[stat]
            else:
                q = 0.5 if stat == "p50_ms" else 0.9
                metrics[f"{layer}.{stat}"] = (
                    1e3 * durations[min(int(q * len(durations)), len(durations) - 1)]
                    if durations else 0.0
                )
    statuses = trace["statuses"]
    total = sum(statuses.values())
    decided = total - statuses.get("undecided", 0)
    metrics["boundary.decided_ratio"] = decided / total if total else 0.0
    metrics["algebra.validate_algebra.max_dim"] = trace["max_algebra_dim"]
    traced_wall = rep["gen_s"] + rep["wall_s"]
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.remainder_s"] = traced_wall - sum(
        s["self_s"] for s in trace["spans"].values())
    metrics["trace.overhead_s"] = traced_wall - _median(plain)
    return metrics


def report(m: Measurement, traced: bool, root: Path) -> dict | None:
    """Print the human-readable lines for one workload; return its metrics."""
    plain = [r for r in m.reps if not r["traced"]]
    complete = plain and (len(plain) < len(m.reps) if traced else m.setups)
    certified = sum(r["certified"] for r in m.reps)
    undecided = sum(r["undecided"] for r in m.reps)
    print(f"workload {m.workload}  seed {m.seed}  trace {int(traced)}  "
          f"repetitions {len(m.reps)}  set-up samples {len(m.setups)}")
    metrics = None
    if complete:
        metrics = per_layer(m) if traced else end_to_end(m)
        units = dict(PER_LAYER if traced else END_TO_END)
        for name, value in metrics.items():
            print(f"  {name:<42} {value:>14.6g} {units[name]}")
        if not traced:
            print("  samples " + json.dumps({
                name: [round(r[name], 6) for r in plain] for name, _ in END_TO_END
                if name != "setup_s"} | {"setup_s": [round(s, 6) for s in m.setups]}))
    print(f"  {'undecided_ratio':<42} {undecided / certified if certified else 0.0:>14.6g} "
          f"ratio ({undecided} of {certified} candidate certifications)")
    print(f"  {'failed_ratio':<42} {m.failed / max(m.attempted, 1):>14.6g} "
          f"ratio ({m.failed} of {m.attempted} operations)")
    for problem in m.problems[:10]:
        print(f"  FAILED: {problem}")
    if m.reps:
        print("  env " + json.dumps(m.reps[-1].get("env", {}) | {"src_lines": src_lines(root)}))
    return metrics


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark shilov's product-law checks.")
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs exist for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shilov" / "__init__.py").is_file():
        print("run from the root of a shilov checkout: src/shilov is missing", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name in names:
        m = measure(name, args.seed, args.seconds, bool(args.trace), root, args.size)
        metrics = report(m, bool(args.trace), root)
        attempted += m.attempted
        failed += m.failed
        correct = correct and m.failed == 0 and metrics is not None
        if metrics is None:
            continue
        for metric, value in metrics.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined[key] = {"value": value, "unit": units[metric]}
    if not combined:
        print("no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
