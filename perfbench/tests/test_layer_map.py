"""Self-test of the layer map, the patching and the span bookkeeping.

Runs the workloads in-process at small scale (the sanity orderings at the
scale the benchmark runs), with the tracer installed the way a traced
repetition installs it.
"""

from __future__ import annotations

import inspect
from pathlib import Path

import pytest

import layers
from attribution import check_nesting, layer_metrics, layer_self_times, read_spans
from workloads import RunnerWorkload, TraceWorkload

ENTRIES = [entry for layer in layers.LAYERS for entry in layers.LAYER_MAP[layer]]

SMALL = {
    "venue": RunnerWorkload("venue_scale", "small"),
    "session": RunnerWorkload("policy_comparison", "small"),
    "trace": TraceWorkload("small"),
}
FULL = {
    "venue": RunnerWorkload("venue_scale", "default"),
    "session": RunnerWorkload("policy_comparison", "small"),
    "trace": TraceWorkload("default"),
}


@pytest.fixture(scope="module", autouse=True)
def program():
    layers.import_program()


@pytest.fixture
def tracer():
    from repro.obs import metrics

    tracer = layers.Tracer()
    tracer.install()
    metrics.REGISTRY.reset()
    metrics.REGISTRY.enable()
    try:
        yield tracer
    finally:
        tracer.uninstall()
        metrics.REGISTRY.disable()
        metrics.REGISTRY.reset()


def test_every_layer_has_entry_points():
    assert set(layers.LAYER_MAP) == set(layers.LAYERS)
    assert all(layers.LAYER_MAP[layer] for layer in layers.LAYERS)
    assert len(ENTRIES) == len(set(ENTRIES)), "an entry point is listed twice"


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_point_resolves(entry):
    try:
        layers.resolve(entry)
    except layers.LayerMapError as exc:
        pytest.fail(f"layer map entry point is gone: {exc}")
    assert layers.layer_of(entry) in layers.LAYERS


def test_resolve_names_the_missing_symbol():
    with pytest.raises(layers.LayerMapError, match="plan_frame_renamed"):
        layers.resolve("repro.mac.scheduler:plan_frame_renamed")


def test_every_binding_is_patched(tracer):
    assert set(tracer.originals) == set(ENTRIES)
    for entry, original in tracer.originals.items():
        left = [where for where, _, _ in layers.bindings_of(original)]
        assert not left, f"{entry}: unpatched binding(s) {left}"
        owner, attr, raw = layers.resolve(entry)
        if inspect.isclass(owner):
            assert layers._function_of(raw) is not original, f"{entry}: class attribute not patched"


def test_uninstall_restores_every_binding():
    tracer = layers.Tracer()
    before = {entry: layers.resolve(entry)[2] for entry in ENTRIES}
    tracer.install()
    tracer.uninstall()
    after = {entry: layers.resolve(entry)[2] for entry in ENTRIES}
    assert before == after
    for entry, original in tracer.originals.items():
        assert list(layers.bindings_of(original)) or inspect.isclass(
            layers.resolve(entry)[0]
        ), f"{entry}: original binding not restored"


def _traced(workload, seed: int, tmp: Path, tracer) -> tuple:
    state = workload.setup(seed, tmp)
    tracer.clear()
    with tracer.span(layers.ROOT):
        outcome = workload.execute(state, tracer)
    spans = read_spans(tracer.write(tmp / "spans.bin"))
    return outcome, spans


def _plain(workload, seed: int, tmp: Path):
    return workload.execute(workload.setup(seed, tmp), None)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_spans_nest_and_self_times_close(name, tmp_path, tracer):
    outcome, spans = _traced(SMALL[name], 7, tmp_path, tracer)
    assert outcome.failed == 0
    assert len(spans) > 1
    assert check_nesting(spans) == []
    per_layer, unattributed, root = layer_self_times(spans)
    assert root > 0
    assert sum(per_layer.values()) + unattributed == pytest.approx(root, rel=1e-9, abs=1e-9)
    assert all(value >= -1e-9 for value in per_layer.values())
    metrics = layer_metrics(spans, tracer.metrics, outcome.extras)
    assert metrics["unattributed_s"] == pytest.approx(unattributed)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_change_the_output(name, tmp_path, tracer):
    traced, _ = _traced(SMALL[name], 11, tmp_path / "traced", tracer)
    tracer.uninstall()
    plain = _plain(SMALL[name], 11, tmp_path / "plain")
    assert traced.digest and traced.digest == plain.digest


@pytest.mark.parametrize(
    "name, holds",
    [
        ("venue", lambda m: max(_self(m), key=_self(m).get) == "mac"),
        ("trace", lambda m: max(_self(m), key=_self(m).get) == "obs"),
        ("session", lambda m: m["pointcloud.self_s"] + m["geometry.self_s"] > m["mac.self_s"]),
    ],
)
def test_attribution_sanity_at_benchmark_scale(name, holds, tmp_path, tracer):
    outcome, spans = _traced(FULL[name], 7, tmp_path, tracer)
    metrics = layer_metrics(spans, tracer.metrics, outcome.extras)
    assert holds(metrics), {k: round(v, 3) for k, v in metrics.items() if k.endswith("self_s")}


def _self(metrics: dict[str, float]) -> dict[str, float]:
    return {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_s")}


def test_benchmark_json_names_every_emitted_metric(tmp_path, tracer):
    import json

    import run

    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    outcome, spans = _traced(SMALL["venue"], 7, tmp_path, tracer)
    emitted = set(layer_metrics(spans, tracer.metrics, outcome.extras)) | {"trace_overhead"}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(declared) == emitted
    for name, unit in declared.items():
        assert run.PER_LAYER_UNITS[name.rsplit(".", 1)[-1]] == unit, name
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(run.END_TO_END)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
