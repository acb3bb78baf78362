"""ccwkit benchmark: certified CLI pipelines and the exact-search oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: ccwkit is imported from its `src` directory.
One process and one thread drive `ccwkit.cli.main` in-process as a closed
loop with a single caller: each command starts when the previous one
returns.  Every input is generated from --seed, and every output is checked
by code in this directory that does not call the library.

--trace 0 runs one checked warm-up pass over the workload's steps, then
repeats untraced passes, step by step, until S seconds have passed since the
warm-up began.  Between set-ups and commands it times a fixed calibration
loop (speed.py) and scales each set-up and command time to the loop's
reference speed, so that drift in the machine's speed cancels out.  Each
step's time is the median of its scaled, timed repeats, and run_s is the sum
of those medians: the time of one typical pass at the reference speed.
--trace 1 does the same, then one more pass with spans around each layer's
public functions, and prints the per-layer metrics.  The last line of
stdout is one JSON object; the lines before it are a readable report.  The
exit code is 0 when every output checked out, 1 when one did not, 2 on a
usage or set-up error.
DESIGN.md in this directory explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from speed import Speedometer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
PIPELINE_CMDS = ("factorize", "verify", "separate", "audit")

# name -> unit.  BENCHMARK.json gates END_TO_END; the rest are reported.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "output_bytes": "bytes"}
WORKLOAD_METRICS = {
    "run_wall_s": "s",
    "calibration_ms": "ms",
    "failed_ratio": "ratio",
    **{f"{c}_s": "s" for c in PIPELINE_CMDS},
    "verdict_ms_p50": "ms",
    "verdict_ms_p95": "ms",
    "budgeted_s": "s",
    "decided_share": "ratio",
}


def import_ccwkit():
    """(Re-)import ccwkit from the checkout, dropping any earlier import so
    that each set-up repetition pays the import again."""
    for name in [m for m in sys.modules if m == "ccwkit" or m.startswith("ccwkit.")]:
        del sys.modules[name]
    return importlib.import_module("ccwkit.cli")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_step(step, work: Path, tracer: Tracer | None, index: int, check: bool = True) -> dict:
    """Run one CLI command, time it, and, if `check`, check what it wrote.
    Unchecked runs are held to the digests of a checked one instead."""
    cli = sys.modules["ccwkit.cli"]
    bytes_read = sum(p.stat().st_size for p in step.reads)
    before = [p.stat().st_mtime_ns if p.exists() else None for p in step.writes]
    if tracer:
        tracer.cmd = index
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    problems = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(step.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        problems.append("raised " + traceback.format_exc(limit=-3))
    seconds = time.perf_counter() - start
    if rc != 0:
        problems.append(f"exit code {rc}: {err.getvalue().strip()[:200]}")
    digests, written = {}, 0
    for p, mtime in zip(step.writes, before):
        if not p.exists() or p.stat().st_mtime_ns == mtime:
            problems.append(f"did not write {p.name}")
        else:
            data = p.read_bytes()
            written += len(data)
            digests[str(p.relative_to(work))] = sha256(data)
    if out.getvalue():
        digests[f"{index:03d}-{step.cmd}.stdout"] = sha256(out.getvalue().encode())
    decided = None
    if check and not problems:
        try:
            found, decided = step.check(out.getvalue())
            problems += found
        except Exception as exc:  # a malformed output is a failed check
            problems.append(f"check raised {exc!r}")
    return {"cmd": step.cmd, "slice": step.slice, "start": start, "seconds": seconds,
            "problems": problems, "digests": digests, "read": bytes_read,
            "written": written, "decided": decided}


def run_pass(steps, work: Path, tracer: Tracer | None = None,
             speed: Speedometer | None = None) -> list[dict]:
    records = []
    for i, step in enumerate(steps):
        records.append(run_step(step, work, tracer, i))
        if speed:
            speed.maybe_sample()
    return records


def timed_passes(steps, work: Path, deadline: float, speed: Speedometer) -> list[list[dict]]:
    """Unchecked passes until `deadline`, which is looked at before every
    step, so the last pass may stop part way."""
    passes = []
    while time.perf_counter() < deadline:
        records = []
        for i, step in enumerate(steps):
            if time.perf_counter() >= deadline:
                break
            records.append(run_step(step, work, None, i, check=False))
            speed.maybe_sample()
        passes.append(records)
    return passes


def typical_pass(warmup: list[dict], timed: list[list[dict]], key: str) -> list[dict]:
    """The warm-up records with each step's time replaced by the median of its
    timed repeats' `key` (the warm-up's where the run left no repeat)."""
    typical = []
    for i, rec in enumerate(warmup):
        times = [p[i][key] for p in timed if i < len(p)]
        typical.append({**rec, "seconds": statistics.median(times) if times else rec[key]})
    return typical


def pass_metrics(records: list[dict]) -> dict[str, float | None]:
    """End-to-end metrics of one pass; None where the workload has no such step."""
    m: dict[str, float | None] = {
        "run_s": sum(r["seconds"] for r in records),
        "output_bytes": float(sum(r["written"] for r in records)),
        "bytes_read": float(sum(r["read"] for r in records)),
    }
    for c in PIPELINE_CMDS:
        times = [r["seconds"] for r in records if r["cmd"] == c]
        m[f"{c}_s"] = sum(times) if times else None
    ccw = [r for r in records if r["cmd"] == "ccw"]
    verdicts = [r["seconds"] * 1000 for r in ccw if r["slice"] == "decidable"]
    budgeted = [r["seconds"] for r in ccw if r["slice"] == "budget"]
    m["verdict_ms_p50"] = statistics.median(verdicts) if verdicts else None
    m["verdict_ms_p95"] = statistics.quantiles(verdicts, n=100)[94] if len(verdicts) >= 200 else None
    m["budgeted_s"] = sum(budgeted) if budgeted else None
    m["decided_share"] = sum(bool(r["decided"]) for r in ccw) / len(ccw) if ccw else None
    return m


def compare_digests(passes: list[list[dict]]) -> None:
    """Outputs must not change between passes over the same inputs, so every
    pass is held to the checked first one."""
    for records in passes[1:]:
        for first, rec in zip(passes[0], records):
            if rec["digests"] != first["digests"]:
                rec["problems"].append("outputs differ from the first pass")


def record_digests(workload: str, seed: int, records: list[dict]) -> str:
    """Store the sha256 of every output under .perfbench-out/digests and say
    whether an earlier run with this workload and seed wrote the same ones."""
    files = {k: v for r in records for k, v in r["digests"].items()}
    combined = sha256(json.dumps(files, sort_keys=True).encode())
    path = OUT / "digests" / f"{workload}-seed{seed}.json"
    note = "first run with this seed"
    if path.exists():
        try:
            earlier = json.loads(path.read_text()).get("combined")
        except (OSError, ValueError):
            earlier = None
        note = "same as the previous run" if earlier == combined else "DIFFERENT from the previous run"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "combined": combined,
                                "files": files}, indent=1, sort_keys=True) + "\n")
    return f"{combined} over {len(files)} outputs ({note})"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ccwkit" / "__init__.py").is_file():
        print(f"error: no ccwkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    return measure(args, src, OUT / f"work-{args.workload}")


def measure(args, src: Path, work: Path) -> int:
    speed = Speedometer()
    setup = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = time.perf_counter()
        cli = import_ccwkit()
        steps = WORKLOADS[args.workload](args.seed, work)
        setup.append((start, time.perf_counter() - start))
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: ccwkit imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + args.seconds
    speed.sample()
    warmup = run_pass(steps, work, speed=speed)
    timed = timed_passes(steps, work, deadline, speed)
    passes = [warmup, *timed]
    for rec in (r for p in passes for r in p):
        rec["ref_seconds"] = speed.at_reference(rec["start"], rec["seconds"])
    untraced = pass_metrics(typical_pass(warmup, timed, "ref_seconds"))
    untraced["run_wall_s"] = pass_metrics(typical_pass(warmup, timed, "seconds"))["run_s"]
    untraced["calibration_ms"] = speed.median_s() * 1000
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(steps, work, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        tracer.write(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    compare_digests(passes)

    attempted = sum(len(p) for p in passes)
    failures = [(i, r) for i, p in enumerate(passes) for r in p if r["problems"]]
    untraced["failed_ratio"] = len(failures) / attempted
    untraced["setup_s"] = statistics.median(speed.at_reference(*s) for s in setup)
    untraced["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    repeats = [sum(i < len(p) for p in timed) for i in range(len(steps))]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(steps)} commands"
          f" per pass, a checked warm-up pass, then {min(repeats)} to {max(repeats)} timed"
          f" repeats per command (medians), {len(speed.times)} calibration samples,"
          f" {SETUP_REPEATS} set-ups")
    for i, r in failures[:20]:
        print(f"FAIL pass {i + 1} {r['cmd']}: {'; '.join(r['problems'])}")
    units = {**END_TO_END, **WORKLOAD_METRICS}
    for name, unit in units.items():
        value = untraced[name]
        print(f"{name:<16} {'n/a' if value is None else f'{value:.6g}'} {unit}")
    n_verdicts = sum(r["slice"] == "decidable" for r in passes[0])
    if n_verdicts:
        print(f"verdict samples  {n_verdicts} per pass")
    print("digest           " + record_digests(args.workload, args.seed, passes[0]))

    if tracer:
        metrics = tracer.layer_metrics()
        metrics["cli.bytes_read"] = untraced["bytes_read"]
        metrics["cli.bytes_written"] = untraced["output_bytes"]
        metrics["trace.overhead_ratio"] = pass_metrics(traced)["run_s"] / untraced["run_wall_s"]
        metrics.update({k: untraced[k] or 0.0 for k in WORKLOAD_METRICS})
        for name, value in metrics.items():
            print(f"{name:<44} {value:.6g}")
        result = {name: {"value": value, "unit": layer_unit(name, units)}
                  for name, value in metrics.items()}
    else:
        result = {name: {"value": untraced[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 1 if failures else 0


def layer_unit(name: str, units: dict[str, str]) -> str:
    if name in units:
        return units[name]
    if name.endswith(".self_s"):
        return "s"
    if name.startswith("cli.bytes"):
        return "bytes"
    if name.endswith((".scaling", ".overhead_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
