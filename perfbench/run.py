"""The repo benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload venue --seed 7 --seconds 42 --trace 0
    python3 perfbench/run.py --workload trace --trace 1      # per-layer run
    python3 perfbench/run.py --all                           # every workload
    python3 perfbench/run.py --record-digests                # refresh the check

One run measures one workload for ``--seconds`` seconds.  It repeats the
workload, each repetition a fresh interpreter (``child.py``) with a fresh
result-cache directory, and reports medians over the repetitions.  With
``--trace 0`` it reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` it alternates traced and untraced
repetitions and reports the per-layer metrics.  Every repetition's output
is checked (see README.md); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(HERE))

from attribution import check_nesting, layer_metrics, layer_self_times, read_spans  # noqa: E402
from workloads import EXPECTED_DIGESTS_FILE, WORKLOADS, expected_digest  # noqa: E402

DEFAULT_SEED = 7
#: The seed whose digests are recorded besides the default one.
HELD_OUT_SEED = 20211
#: Fewest measured repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3
#: Extra set-up-only launches per end-to-end run (``setup_s`` samples).
SETUP_PROBES = 2
#: Longest one child may take before the run gives up on it.
CHILD_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "self_s": "s",
    "calls": "count",
    "frame_plans_built": "count",
    "plans_per_decision": "ratio",
    "synth_calls": "count",
    "synth_reuse": "ratio",
    "visibility_calls": "count",
    "frustum_builds": "count",
    "grouping_decisions": "count",
    "frames_played": "count",
    "events_fired": "count",
    "host_us_per_event": "us",
    "packets_sent": "count",
    "goodput_ratio": "ratio",
    "frame_delivery_ratio": "ratio",
    "room_ticks": "count",
    "study_calls": "count",
    "events_recorded": "count",
    "trace_mb": "MB",
    "analyze_s": "s",
    "check_s": "s",
    "units": "count",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}

#: Attribution sanity orderings (from a cProfile of each workload):
#: workload -> (description, predicate over the per-layer metrics).
SANITY = {
    "venue": (
        "mac has the largest layer self time",
        lambda m: _largest_layer(m) == "mac",
    ),
    "trace": (
        "obs has the largest layer self time",
        lambda m: _largest_layer(m) == "obs",
    ),
    "session": (
        "pointcloud + geometry self time exceeds mac",
        lambda m: m["pointcloud.self_s"] + m["geometry.self_s"] > m["mac.self_s"],
    ),
}


def _largest_layer(metrics: dict[str, float]) -> str:
    layers = {k[: -len(".self_s")]: v for k, v in metrics.items() if k.endswith(".self_s")}
    return max(sorted(layers), key=layers.__getitem__)


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


class Child:
    """Launches repetitions, each in its own temp directory."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = TMP_ROOT / f"{workload}-{os.getpid()}"
        self.count = 0

    def launch(self, mode: str) -> dict[str, Any]:
        """Run one repetition; returns its result (spans already folded)."""
        self.count += 1
        tmp = self.tmp / f"rep-{self.count}"
        tmp.mkdir(parents=True)
        env = dict(os.environ)
        env.update(
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        env.pop("REPRO_CACHE_DIR", None)
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--tmp", str(tmp), "--mode", mode,
        ]
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--launch", repr(launch)],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode == 3:
                raise ProgramMissing(proc.stderr.strip().removeprefix("perfbench: "))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                return {"error": f"child exited {proc.returncode}"}
            if proc.stderr:
                sys.stderr.write(proc.stderr[-4000:])
            result = json.loads((tmp / "result.json").read_text())
            result["launch_s"] = time.monotonic() - launch
            if mode == "traced":
                spans = read_spans(tmp / "spans.bin")
                result["nesting"] = check_nesting(spans)
                per_layer, unattributed, root = layer_self_times(spans)
                result["closure_s"] = abs(sum(per_layer.values()) + unattributed - root)
                result["root_s"] = root
                result["layers"] = layer_metrics(
                    spans, result.pop("counters", {}), result.get("extras", {})
                )
            return result
        except subprocess.TimeoutExpired:
            return {"error": f"child timed out after {CHILD_TIMEOUT_S}s"}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def _check(workload: str, seed: int, rep: dict[str, Any]) -> int:
    """Failed units of one repetition after the output check."""
    if "error" in rep:
        return -1
    failed = int(rep["failed"])
    expected = expected_digest(workload, seed)
    if failed == 0 and expected is not None and rep["digest"] != expected:
        print(f"{workload} seed {seed}: digest {rep['digest'][:12]} != "
              f"recorded {expected[:12]}", file=sys.stderr)
        return int(rep["units"])
    return failed


def measure(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """An end-to-end run: medians of wall, set-up and peak RSS."""
    child = Child(workload, seed)
    try:
        child.launch("setup")  # compile bytecode; not measured
        start = time.monotonic()
        setups = [child.launch("setup") for _ in range(SETUP_PROBES)]
        reps: list[dict[str, Any]] = []
        while len(reps) < MIN_REPS or _time_left(start, seconds, reps):
            reps.append(child.launch("run"))
    finally:
        child.close()
    attempted, failed = _tally(workload, seed, reps)
    good = [r for r in reps if "error" not in r]
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good + setups if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    metrics = {
        name: {"value": statistics.median(samples[name]) if samples[name] else 0.0,
               "unit": unit}
        for name, unit in END_TO_END
    }
    return {
        "correct": failed == 0 and bool(good),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": len(reps),
        "samples": samples,
    }


def measure_layers(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """A traced run: per-layer medians plus the tracing overhead."""
    child = Child(workload, seed)
    traced: list[dict[str, Any]] = []
    plain: list[dict[str, Any]] = []
    try:
        child.launch("setup")
        start = time.monotonic()
        while (
            len(traced) < 2 or len(plain) < 2
            or _time_left(start, seconds, traced + plain)
        ):
            if len(traced) <= len(plain):
                traced.append(child.launch("traced"))
            else:
                plain.append(child.launch("run"))
    finally:
        child.close()
    attempted, failed = _tally(workload, seed, traced + plain)
    good_traced = [r for r in traced if "error" not in r]
    good_plain = [r for r in plain if "error" not in r]
    digests = {r["digest"] for r in good_traced + good_plain}
    problems = []
    if len(digests) > 1:
        problems.append("traced and untraced repetitions disagree on the output")
    for rep in good_traced:
        problems += rep["nesting"]
        if rep["closure_s"] > 1e-6 * max(1.0, rep["root_s"]):
            problems.append(f"self times miss the root span by {rep['closure_s']:.3g}s")
    names = list(good_traced[0]["layers"]) if good_traced else []
    metrics = {
        name: {
            "value": statistics.median(r["layers"][name] for r in good_traced),
            "unit": _unit(name),
        }
        for name in names
    }
    if good_traced and good_plain:
        overhead = statistics.median(r["wall_s"] for r in good_traced) / statistics.median(
            r["wall_s"] for r in good_plain
        )
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and bool(good_traced) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": len(traced),
    }


def _unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _time_left(start: float, seconds: float, reps: list[dict[str, Any]]) -> bool:
    """Whether one more repetition fits in the run's time budget.

    ``start`` is when the first measured launch began; a repetition is
    assumed to take as long as the longest one so far.
    """
    elapsed = time.monotonic() - start
    longest = max((r.get("launch_s", 0.0) for r in reps), default=0.0)
    return elapsed + longest <= seconds


def _tally(workload: str, seed: int, reps: list[dict[str, Any]]) -> tuple[int, int]:
    """(units attempted, units failed) over the repetitions."""
    known = max((int(r.get("units", 0)) for r in reps), default=1) or 1
    attempted = failed = 0
    for rep in reps:
        units = int(rep.get("units", known))
        bad = _check(workload, seed, rep)
        attempted += units
        failed += units if bad < 0 else bad
    return attempted, failed


def _print_summary(workload: str, seed: int, result: dict[str, Any]) -> None:
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"workload {workload}  seed {seed}  repetitions {result['reps']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_frac':30s} {frac:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} units)")
    for name, values in result.get("samples", {}).items():
        print(f"  {name} samples: " + " ".join(f"{v:.4g}" for v in values))
    if workload in SANITY and any(k.endswith(".self_s") for k in result["metrics"]):
        text, holds = SANITY[workload]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"  sanity: {text}: {'holds' if holds(values) else 'DOES NOT HOLD'}")


def record_digests() -> int:
    """Record the default and held-out seed digests of every workload."""
    table: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            child = Child(workload, seed)
            try:
                rep = child.launch("run")
            finally:
                child.close()
            if "error" in rep or rep["failed"]:
                print(f"{workload} seed {seed}: failed, nothing recorded", file=sys.stderr)
                return 1
            table[workload][str(seed)] = rep["digest"]
            print(f"{workload} seed {seed}: {rep['digest']}")
    EXPECTED_DIGESTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.record_digests:
            return record_digests()
        if not args.all and not args.workload:
            parser.error("give --workload NAME or --all")
        run = measure_layers if args.trace else measure
        names = list(WORKLOADS) if args.all else [args.workload]
        results = {}
        for name in names:
            results[name] = run(name, args.seed, args.seconds)
            _print_summary(name, args.seed, results[name])
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
