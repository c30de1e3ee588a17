"""``repro bench`` — a perf-trajectory harness for the experiment runner.

Runs registered experiments through the deterministic runner with the
:class:`~repro.obs.profile.PhaseProfiler` wrapped around the plan /
execute / merge phases, samples peak RSS, and writes one trajectory point
as ``BENCH_<n>.json`` (monotonically numbered, so a directory of them is
a perf history)::

    python -m repro bench loss_sweep table1 --scale small
    python -m repro bench loss_sweep --compare BENCH_1.json --tolerance 0.2
    python -m repro bench --kernels --compare BENCH_2.json

``--compare`` re-runs the same measurement and exits non-zero when any
experiment's wall time regressed beyond the tolerance against the
baseline file — the CI hook that keeps the runner's performance honest
across PRs.

``--kernels`` additionally (or, with no experiments named, exclusively)
times the vectorized hot-path kernels against their retained scalar
references — pairwise viewport IoU at venue scale, the batched occlusion
cull, and the codebook gain sweep — and records each kernel's measured
speedup plus its ``min_speedup`` floor.  ``--compare`` gates *speedup
against the baseline's floor*, not wall time, so the kernel gate is
machine-independent: a slower CI box passes as long as the vectorized
path still beats the scalar one by the required factor.

Measurement uses ``time.perf_counter`` only (monotonic elapsed time; the
repo's D1xx lint permits it, wall-clock *timestamps* stay banned), and
the output deliberately carries no timestamp: the trajectory index ``n``
is the ordering.  Benchmarking never touches experiment results — the
runner path is exactly the one ``repro run`` uses.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Mapping

from .profile import PhaseProfiler

__all__ = [
    "BENCH_SCHEMA",
    "KERNEL_MIN_SPEEDUP",
    "run_bench",
    "run_kernel_bench",
    "run_stream_rss_bench",
    "next_bench_path",
    "write_bench",
    "validate_bench",
    "compare_bench",
    "main",
]

BENCH_SCHEMA = "repro.bench/1"
_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

_REQUIRED_TOP = ("schema", "scale", "workers", "experiments", "total_wall_s")
_REQUIRED_EXPERIMENT = (
    "name", "units", "cached_units", "cache_hit_rate", "wall_s",
    "units_per_s", "phases",
)
_REQUIRED_KERNEL = (
    "name", "scalar_wall_s", "vectorized_wall_s", "speedup", "min_speedup",
)

# Machine-independent speedup floors the --compare gate enforces: the
# vectorized kernel must beat its scalar reference by at least this
# factor on whatever box runs the bench.  The pairwise floor is the
# acceptance criterion for the venue-scale work (>= 5x at 1,000 users);
# the other two are deliberately conservative.
KERNEL_MIN_SPEEDUP = {
    "pairwise_similarity_1000": 5.0,
    "occlusion_mask": 1.5,
    "beam_gains": 1.5,
}


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None if unsupported."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def run_bench(
    experiment_names: list[str],
    scale: str = "small",
    workers: int = 1,
    use_cache: bool = True,
    cache_dir: str | None = None,
) -> dict[str, Any]:
    """Measure the named experiments; returns a ``repro.bench/1`` document.

    Each experiment goes through the standard decompose → run → merge
    pipeline with per-phase wall time accumulated by a
    :class:`PhaseProfiler`; units/sec and the cache hit rate come from the
    runner's own reports.
    """
    from ..runner.cache import ResultCache
    from ..runner.executor import run_specs
    from ..runner.registry import get_experiment, resolve_params

    cache = (
        ResultCache(cache_dir) if use_cache and cache_dir is not None
        else ResultCache() if use_cache
        else None
    )
    entries: list[dict[str, Any]] = []
    total_wall = 0.0
    for name in experiment_names:
        experiment = get_experiment(name)
        profiler = PhaseProfiler()
        with profiler.phase("plan"):
            params = resolve_params(experiment, None, scale=scale)
            specs = list(experiment.decompose(params))
        with profiler.phase("execute"):
            reports = run_specs(specs, workers=workers, cache=cache)
        with profiler.phase("merge"):
            experiment.merge(params, [(r.spec, r.result) for r in reports])
        wall_s = sum(profiler.wall_s(p) for p in profiler.names())
        cached = sum(1 for r in reports if r.cached)
        units = len(specs)
        entries.append(
            {
                "name": name,
                "units": units,
                "cached_units": cached,
                "cache_hit_rate": (cached / units) if units else 0.0,
                "wall_s": round(wall_s, 6),
                "units_per_s": round(units / wall_s, 6) if wall_s > 0 else 0.0,
                "phases": profiler.to_jsonable(),
            }
        )
        total_wall += wall_s
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "workers": workers,
        "experiments": entries,
        "total_wall_s": round(total_wall, 6),
    }
    peak = _peak_rss_bytes()
    if peak is not None:
        doc["peak_rss_bytes"] = peak
    validate_bench(doc)
    return doc


_RSS_CHILD_CODE = """\
import resource
import sys

from repro.obs.cli import main

rc = main(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak = int(peak) if sys.platform == "darwin" else int(peak) * 1024
print("PEAK_RSS_BYTES=%d" % peak)
sys.exit(rc)
"""


def run_stream_rss_bench(
    experiment: str = "venue_scale", scale: str = "small"
) -> dict[str, Any]:
    """Peak RSS of a streamed vs. batch trace of one experiment.

    ``ru_maxrss`` is a process-lifetime high-water mark, so the two
    measurements need separate address spaces: each mode runs ``repro
    trace`` in a child interpreter that reports its own peak before
    exiting.  The streamed child flushes events incrementally (the
    bounded-memory recorder) while the batch child retains the whole
    timeline — the delta between the two is exactly what the streaming
    tier buys, and the ``--stream-rss`` gate holds the streamed peak at
    or below the batch peak (within ``--tolerance``).
    """
    import os
    import subprocess
    import tempfile

    import repro

    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )

    def _measure(stream: bool) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            argv = [
                sys.executable, "-c", _RSS_CHILD_CODE,
                experiment, "--scale", scale, "--quiet",
                "--out", str(Path(tmp) / "trace.jsonl"),
            ]
            if stream:
                argv.append("--stream")
            proc = subprocess.run(
                argv, env=env, capture_output=True, text=True
            )
        if proc.returncode != 0:
            raise RuntimeError(
                f"rss child failed ({proc.returncode}): "
                f"{proc.stderr.strip()[-500:]}"
            )
        for line in reversed(proc.stdout.splitlines()):
            if line.startswith("PEAK_RSS_BYTES="):
                return int(line.partition("=")[2])
        raise RuntimeError("rss child printed no PEAK_RSS_BYTES line")

    batch = _measure(stream=False)
    streamed = _measure(stream=True)
    return {
        "experiment": experiment,
        "scale": scale,
        "batch_rss_bytes": batch,
        "streamed_rss_bytes": streamed,
        "ratio": round(streamed / batch, 4) if batch > 0 else None,
    }


def run_kernel_bench(num_users: int = 1000) -> list[dict[str, Any]]:
    """Time the vectorized kernels against their scalar references.

    Returns one entry per kernel: wall seconds for the scalar reference
    path and the vectorized path over identical inputs, the measured
    speedup, and the machine-independent ``min_speedup`` floor the
    ``--compare`` gate holds future runs to.  ``num_users`` sizes the
    pairwise-similarity population (1,000 is the venue-scale acceptance
    point; tests shrink it).
    """
    from time import perf_counter

    import numpy as np

    from ..core.similarity import group_iou, pairwise_iou_matrix
    from ..mmwave import Codebook, PhasedArray
    from ..pointcloud import CellGrid, VisibilityConfig, synthesize_video
    from ..pointcloud.visibility import (
        _occlusion_mask,
        _occlusion_mask_reference,
    )
    from ..traces import generate_user_study

    entries: list[dict[str, Any]] = []

    def _entry(name: str, scalar_s: float, vectorized_s: float) -> None:
        speedup = (
            scalar_s / vectorized_s if vectorized_s > 0 else float("inf")
        )
        floor = KERNEL_MIN_SPEEDUP.get(
            name, KERNEL_MIN_SPEEDUP["pairwise_similarity_1000"]
        )
        entries.append(
            {
                "name": name,
                "scalar_wall_s": round(scalar_s, 6),
                "vectorized_wall_s": round(vectorized_s, 6),
                "speedup": round(speedup, 3),
                "min_speedup": floor,
            }
        )

    # -- pairwise viewport IoU over a venue-scale population ----------------
    rng = np.random.default_rng(0)
    maps = []
    for _ in range(num_users):
        size = int(rng.integers(40, 120))
        maps.append(
            frozenset(
                int(c) for c in rng.choice(600, size=size, replace=False)
            )
        )
    t0 = perf_counter()
    scalar_iou = [
        [group_iou([maps[i], maps[j]]) for j in range(i + 1, len(maps))]
        for i in range(len(maps))
    ]
    t1 = perf_counter()
    matrix = pairwise_iou_matrix(maps)
    t2 = perf_counter()
    # Same numbers either way — a bench that diverged would be lying.
    if matrix[0, 1] != scalar_iou[0][0]:
        raise RuntimeError(
            "vectorized pairwise IoU diverged from the scalar reference"
        )
    _entry(f"pairwise_similarity_{num_users}", t1 - t0, t2 - t1)

    # -- batched occlusion cull over one frame's frustums -------------------
    video = synthesize_video("medium", num_frames=1, points_per_frame=6000,
                             seed=0)
    grid = CellGrid.covering(video.bounds, 0.5, margin=0.05)
    study = generate_user_study(num_users=8, duration_s=2.0, seed=0)
    occ = grid.occupancy(video[0])
    config = VisibilityConfig()
    cell_ids = occ.cell_ids
    nominal, lows, highs, centers = occ.cell_arrays
    frustums = [t.pose_at(1.0).frustum() for t in study.traces]
    repeats = 20  # single pass is ~ms-scale; repeat to swamp timer jitter
    t0 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            _occlusion_mask_reference(
                grid, cell_ids, nominal, frustum, config
            )
    t1 = perf_counter()
    for _ in range(repeats):
        for frustum in frustums:
            _occlusion_mask(
                centers, lows, highs, nominal, frustum, config,
                grid.cell_size,
            )
    t2 = perf_counter()
    _entry("occlusion_mask", t1 - t0, t2 - t1)

    # -- codebook gain sweep over many directions ---------------------------
    codebook = Codebook(array=PhasedArray(), num_az=64)
    directions = [
        (float(az), float(el))
        for az, el in zip(
            rng.uniform(-np.pi, np.pi, size=100),
            rng.uniform(-0.4, 0.4, size=100),
        )
    ]
    t0 = perf_counter()
    for az, el in directions:
        codebook.gains_toward_reference(az, el)
    t1 = perf_counter()
    for az, el in directions:
        codebook.gains_toward(az, el)
    t2 = perf_counter()
    _entry("beam_gains", t1 - t0, t2 - t1)

    return entries


def next_bench_path(out_dir: Path | str = ".") -> Path:
    """The next free ``BENCH_<n>.json`` path under ``out_dir`` (n from 1)."""
    out_dir = Path(out_dir)
    taken = []
    if out_dir.is_dir():
        for child in out_dir.iterdir():
            match = _BENCH_NAME.match(child.name)
            if match:
                taken.append(int(match.group(1)))
    index = max(taken, default=0) + 1
    return out_dir / f"BENCH_{index}.json"


def write_bench(doc: Mapping[str, Any], out_dir: Path | str = ".") -> Path:
    """Validate and write one trajectory point; returns its path."""
    validate_bench(doc)
    path = next_bench_path(out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return path


def validate_bench(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` listing every schema problem in ``doc``."""
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise ValueError("bench document must be a JSON object")
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema") not in (None, BENCH_SCHEMA):
        problems.append(
            f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    experiments = doc.get("experiments")
    if not isinstance(experiments, list):
        problems.append("'experiments' must be a list")
        experiments = []
    for i, entry in enumerate(experiments):
        if not isinstance(entry, Mapping):
            problems.append(f"experiments[{i}] must be an object")
            continue
        for key in _REQUIRED_EXPERIMENT:
            if key not in entry:
                problems.append(f"experiments[{i}] missing key {key!r}")
        wall = entry.get("wall_s")
        if isinstance(wall, (int, float)) and wall < 0:
            problems.append(f"experiments[{i}].wall_s must be non-negative")
        rate = entry.get("cache_hit_rate")
        if isinstance(rate, (int, float)) and not 0.0 <= rate <= 1.0:
            problems.append(
                f"experiments[{i}].cache_hit_rate must be in [0, 1]"
            )
    kernels = doc.get("kernels", [])
    if not isinstance(kernels, list):
        problems.append("'kernels' must be a list when present")
        kernels = []
    for i, entry in enumerate(kernels):
        if not isinstance(entry, Mapping):
            problems.append(f"kernels[{i}] must be an object")
            continue
        for key in _REQUIRED_KERNEL:
            if key not in entry:
                problems.append(f"kernels[{i}] missing key {key!r}")
        for key in ("scalar_wall_s", "vectorized_wall_s"):
            wall = entry.get(key)
            if isinstance(wall, (int, float)) and wall < 0:
                problems.append(f"kernels[{i}].{key} must be non-negative")
        floor = entry.get("min_speedup")
        if isinstance(floor, (int, float)) and floor <= 0:
            problems.append(f"kernels[{i}].min_speedup must be positive")
    stream_rss = doc.get("stream_rss")
    if stream_rss is not None:
        if not isinstance(stream_rss, Mapping):
            problems.append("'stream_rss' must be an object when present")
        else:
            for key in (
                "experiment", "scale", "batch_rss_bytes",
                "streamed_rss_bytes",
            ):
                if key not in stream_rss:
                    problems.append(f"stream_rss missing key {key!r}")
            for key in ("batch_rss_bytes", "streamed_rss_bytes"):
                rss = stream_rss.get(key)
                if isinstance(rss, (int, float)) and rss <= 0:
                    problems.append(f"stream_rss.{key} must be positive")
    if problems:
        raise ValueError("invalid bench document: " + "; ".join(problems))


def compare_bench(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: float = 0.2,
) -> list[str]:
    """Regressions of ``current`` vs. ``baseline``.

    Returns one message per experiment (present in both documents) whose
    wall time exceeds the baseline's by more than ``tolerance`` (a
    fraction: 0.2 = 20%), plus one per kernel whose measured speedup fell
    below the *baseline's* ``min_speedup`` floor — a ratio, so the kernel
    gate holds on any machine.  Empty list = no regression.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    validate_bench(current)
    validate_bench(baseline)
    base_by_name = {e["name"]: e for e in baseline["experiments"]}
    regressions: list[str] = []
    for entry in current["experiments"]:
        base = base_by_name.get(entry["name"])
        if base is None:
            continue
        cur_wall = float(entry["wall_s"])
        base_wall = float(base["wall_s"])
        if cur_wall > base_wall * (1.0 + tolerance):
            ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
            shown = "inf" if ratio == float("inf") else f"{ratio:.2f}x"
            regressions.append(
                f"{entry['name']}: wall {cur_wall:.3f}s vs baseline "
                f"{base_wall:.3f}s ({shown}, tolerance "
                f"{(1.0 + tolerance):.2f}x)"
            )
    base_kernels = {
        e["name"]: e for e in baseline.get("kernels", [])
    }
    for entry in current.get("kernels", []):
        base = base_kernels.get(entry["name"])
        if base is None:
            continue
        speedup = float(entry["speedup"])
        floor = float(base["min_speedup"])
        if speedup < floor:
            regressions.append(
                f"{entry['name']}: vectorized speedup {speedup:.2f}x fell "
                f"below the baseline floor {floor:.2f}x"
            )
    return regressions


def build_parser() -> argparse.ArgumentParser:
    """The ``repro bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Benchmark registered experiments through the deterministic "
            "runner and write a BENCH_<n>.json perf-trajectory point."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names to benchmark (default: every registered one)",
    )
    parser.add_argument(
        "--scale",
        choices=["default", "small"],
        default="small",
        help="parameter scale (default: small — bench is about the runner, "
             "not the physics)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="directory for the BENCH_<n>.json point (default: cwd)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache (hit rate reports as 0)",
    )
    parser.add_argument(
        "--kernels",
        action="store_true",
        help="also time the vectorized kernels against their scalar "
             "references; with no experiments named, bench kernels only",
    )
    parser.add_argument(
        "--stream-rss",
        nargs="?",
        const="venue_scale",
        default=None,
        metavar="EXPERIMENT",
        help="also measure streamed-vs-batch trace peak RSS for this "
             "experiment (default: venue_scale) in child processes; exit 1 "
             "if the streamed peak exceeds the batch peak beyond "
             "--tolerance; with no experiments named, measure RSS only",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="a previous BENCH_<n>.json; exit 1 if wall time regressed "
             "beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional wall-time growth for --compare "
             "(default: 0.2 = 20%%)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro bench`` (returns a process exit status)."""
    from ..runner.registry import experiment_names

    args = build_parser().parse_args(argv)
    if (args.kernels or args.stream_rss) and not args.experiments:
        names = []  # kernels-only / rss-only point
    else:
        names = args.experiments or experiment_names()
    try:
        doc = run_bench(
            names,
            scale=args.scale,
            workers=args.workers,
            use_cache=not args.no_cache,
        )
    except KeyError as err:
        raise SystemExit(str(err)) from None
    if args.kernels:
        kernels = run_kernel_bench()
        doc["kernels"] = kernels
        doc["total_wall_s"] = round(
            doc["total_wall_s"]
            + sum(k["scalar_wall_s"] + k["vectorized_wall_s"] for k in kernels),
            6,
        )
    rss_regressed = False
    if args.stream_rss:
        try:
            stream_rss = run_stream_rss_bench(
                args.stream_rss, scale=args.scale
            )
        except (KeyError, RuntimeError) as err:
            raise SystemExit(str(err)) from None
        doc["stream_rss"] = stream_rss
        rss_regressed = stream_rss["streamed_rss_bytes"] > (
            stream_rss["batch_rss_bytes"] * (1.0 + args.tolerance)
        )
    path = write_bench(doc, args.out_dir)
    for entry in doc["experiments"]:
        print(
            f"{entry['name']}: {entry['units']} unit(s) in "
            f"{entry['wall_s']:.3f}s ({entry['units_per_s']:.2f}/s, "
            f"cache hit rate {entry['cache_hit_rate'] * 100:.0f}%)"
        )
    for entry in doc.get("kernels", []):
        print(
            f"kernel {entry['name']}: scalar {entry['scalar_wall_s']:.3f}s, "
            f"vectorized {entry['vectorized_wall_s']:.3f}s -> "
            f"{entry['speedup']:.1f}x (floor {entry['min_speedup']:.1f}x)"
        )
    if "stream_rss" in doc:
        rss = doc["stream_rss"]
        mib = 1024 * 1024
        print(
            f"stream rss ({rss['experiment']}, {rss['scale']}): batch "
            f"{rss['batch_rss_bytes'] / mib:.1f} MiB, streamed "
            f"{rss['streamed_rss_bytes'] / mib:.1f} MiB "
            f"(ratio {rss['ratio']})"
        )
    print(f"bench point written to {path}")
    if rss_regressed:
        print(
            "RSS REGRESSION: streamed trace peak exceeds the batch peak "
            f"beyond tolerance {args.tolerance}"
        )
        return 1
    if args.compare:
        try:
            baseline = json.loads(
                Path(args.compare).read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read baseline {args.compare}: {exc}")
        regressions = compare_bench(doc, baseline, tolerance=args.tolerance)
        if regressions:
            print(f"PERF REGRESSION vs {args.compare}:")
            for message in regressions:
                print(f"  {message}")
            return 1
        print(f"no regression vs {args.compare} (tolerance {args.tolerance})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
