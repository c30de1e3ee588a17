"""One repetition of one workload, in the fresh interpreter it needs.

    python3 perfbench/child.py --workload venue --seed 7 --tmp DIR \
        --launch T --mode run|traced|setup

``run.py`` starts this script once per repetition, so every repetition
starts with cold in-process caches.  ``--launch`` is the parent's
``time.monotonic()`` just before the launch (the clock is system-wide), so
``setup_s`` counts interpreter start-up too.  The result is written as
JSON to ``DIR/result.json``; a traced repetition also writes its spans to
``DIR/spans.bin``.  Exit status 3 means the program is not in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(3)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "traced", "setup"), default="run")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    tracer = None
    if args.mode == "traced":
        import layers
        from repro.obs import metrics

        layers.import_program()
        tracer = layers.Tracer()
        tracer.install()
        metrics.REGISTRY.reset()
        metrics.REGISTRY.enable()
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(args.seed, args.tmp)
    setup_s = time.monotonic() - args.launch
    result: dict = {"setup_s": setup_s}
    if args.mode != "setup":
        if tracer is not None:
            tracer.clear()
        root = tracer.span(layers.ROOT) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with root:
            outcome = workload.execute(state, tracer)
        wall_s = time.perf_counter() - t0
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            digest=outcome.digest,
            units=outcome.units,
            failed=outcome.failed,
            extras=outcome.extras,
        )
        if tracer is not None:
            tracer.write(args.tmp / "spans.bin")
            result["counters"] = tracer.metrics
    (args.tmp / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
