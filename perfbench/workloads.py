"""The benchmark's workloads: what one repetition of each one runs.

Every repetition is one serial batch job in a fresh interpreter, driven
through the program's public entry points:

* ``venue``   -- ``venue_scale`` at default scale (10 rooms, ~11k
  sessions, 4 shards) through ``repro.runner``;
* ``session`` -- ``policy_comparison`` at small scale (12 closed-loop
  units over 3 policy stacks) through ``repro.runner``;
* ``trace``   -- for :data:`TRACE_SEEDS` consecutive seeds, ``repro trace
  loss_sweep --stream``, ``repro obs analyze --stream --json`` and
  ``repro obs check --spec tools/ci_slo.json --json``, through
  ``repro.cli.main``.

A repetition has two phases.  ``setup`` imports the program, populates the
experiment registry and resolves the work units; ``execute`` runs them and
returns an :class:`Outcome` whose digest the output check compares with
the digests recorded in ``expected_digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Consecutive loss_sweep seeds one ``trace`` repetition records.
TRACE_SEEDS = 3

#: The SLO spec CI gates traces with.
SLO_SPEC = Path(__file__).resolve().parent.parent / "tools" / "ci_slo.json"

EXPECTED_DIGESTS_FILE = Path(__file__).with_name("expected_digests.json")


@dataclass
class Outcome:
    """What one repetition produced and how much of it failed."""

    digest: str
    units: int
    failed: int
    extras: dict[str, Any] = field(default_factory=dict)


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


class RunnerWorkload:
    """One registered experiment run serially through ``repro.runner``."""

    def __init__(self, experiment: str, scale: str) -> None:
        self.experiment = experiment
        self.scale = scale

    def setup(self, seed: int, tmp: Path) -> dict[str, Any]:
        from repro.runner import get_experiment, resolve_params

        experiment = get_experiment(self.experiment)
        params = resolve_params(experiment, {"seed": seed}, scale=self.scale)
        specs = list(experiment.decompose(params))
        return {"experiment": experiment, "params": params, "specs": specs, "tmp": tmp}

    def execute(self, state: dict[str, Any], tracer: Any) -> Outcome:
        from repro.runner import ResultCache, canonical_json, run_specs

        experiment, params, specs = state["experiment"], state["params"], state["specs"]
        cache = ResultCache(state["tmp"] / "cache")
        pairs, failed = [], 0
        for spec in specs:
            try:
                (report,) = run_specs([spec], workers=1, cache=cache)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            pairs.append((spec, report.result))
        if failed:
            return Outcome("", len(specs), failed)
        merged = experiment.merge(params, pairs)
        if not isinstance(merged, dict) or not merged:
            return Outcome("", len(specs), len(specs))
        extras = {}
        if tracer is not None:
            tracer.collect_metrics()
            extras["synth_keys"] = len(tracer.synth_keys)
        return Outcome(_sha256(canonical_json(merged).encode()), len(specs), 0, extras)


class TraceWorkload:
    """The observability tier as CI drives it: trace, analyze, check."""

    STEPS = ("trace", "analyze", "check")

    def __init__(self, scale: str = "default") -> None:
        self.scale = scale

    def setup(self, seed: int, tmp: Path) -> dict[str, Any]:
        import repro.cli
        import repro.obs.cli  # noqa: F401  (imported here so setup pays for it)
        from repro.runner import get_experiment, resolve_params

        experiment = get_experiment("loss_sweep")
        seeds = [seed + k for k in range(TRACE_SEEDS)]
        for s in seeds:
            experiment.decompose(resolve_params(experiment, {"seed": s}, self.scale))
        if not SLO_SPEC.is_file():
            raise FileNotFoundError(f"SLO spec {SLO_SPEC} missing")
        return {"cli": repro.cli, "seeds": seeds, "tmp": tmp, "spec": SLO_SPEC}

    def execute(self, state: dict[str, Any], tracer: Any) -> Outcome:
        tmp, spec = state["tmp"], state["spec"]
        chunks: list[bytes] = []
        failed = 0
        extras = {"events_recorded": 0, "trace_bytes": 0}
        for seed in state["seeds"]:
            trace = tmp / f"loss_sweep-{seed}.jsonl"
            analyze = tmp / f"analyze-{seed}.json"
            slo = tmp / f"slo-{seed}.json"
            argv = {
                "trace": ["trace", "loss_sweep", "--stream", "--seed", str(seed),
                          "--scale", self.scale, "--out", str(trace), "--quiet"],
                "analyze": ["obs", "analyze", "--stream", "--quiet",
                            "--json", str(analyze), str(trace)],
                "check": ["obs", "check", "--spec", str(spec),
                          "--json", str(slo), str(trace)],
            }
            for step in self.STEPS:
                out = io.StringIO()
                span = (
                    tracer.span(f"perfbench:obs-{step}")
                    if tracer is not None
                    else contextlib.nullcontext()
                )
                try:
                    with span, contextlib.redirect_stdout(out):
                        status = state["cli"].main(argv[step])
                except (Exception, SystemExit):
                    traceback.print_exc(file=sys.stderr)
                    status = -1
                if tracer is not None:
                    tracer.collect_metrics()
                if status != 0 or (step == "check" and not _slo_passed(slo)):
                    print(f"trace seed {seed}: `repro {' '.join(argv[step])}` "
                          f"exited {status}", file=sys.stderr)
                    failed += 1
                elif step == "trace":
                    found = re.search(r"trace: (\d+) event", out.getvalue())
                    extras["events_recorded"] += int(found.group(1)) if found else 0
                    extras["trace_bytes"] += trace.stat().st_size
            chunks += [_read(analyze), _read(slo)]
        units = len(state["seeds"]) * len(self.STEPS)
        return Outcome("" if failed else _sha256(*chunks), units, failed, extras)


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""


def _slo_passed(path: Path) -> bool:
    try:
        return json.loads(path.read_text())["ok"] is True
    except (OSError, ValueError, KeyError, TypeError):
        return False


WORKLOADS: dict[str, Any] = {
    "venue": RunnerWorkload("venue_scale", "default"),
    "session": RunnerWorkload("policy_comparison", "small"),
    "trace": TraceWorkload(),
}


def expected_digest(workload: str, seed: int) -> str | None:
    """The recorded digest for (workload, seed), or None when unrecorded."""
    try:
        table = json.loads(EXPECTED_DIGESTS_FILE.read_text())
    except OSError:
        return None
    return table.get(workload, {}).get(str(seed))
