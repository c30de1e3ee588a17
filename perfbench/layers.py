"""The layer map and the span tracer of the benchmark's traced run.

Every layer of the stack (a ``repro.<subpackage>``) is listed with the
entry points other layers and the experiments call into it.  The tracer
wraps each entry point in a timing span kept in memory, so per-layer self
time is measured from outside the program: nothing under ``src/`` knows
it is being traced.

Three kinds of call are timed:

* a layer entry point from :data:`LAYER_MAP` -- a span of that layer;
* a generator handed to ``Environment.process`` -- each resume becomes a
  span of the layer whose module defined the generator, so the event
  loop's callbacks into core, net or scenario code are charged to their
  owners, not to ``sim``;
* glue -- the registered experiments' callables, the top-level CLI and
  the workload's own steps.  Glue spans belong to no layer; their self
  time is reported as ``unattributed_s``.

Wrapping replaces every module-level binding of a wrapped function (a
``from .scheduler import plan_frame`` elsewhere holds its own reference),
the value in any module-level dict that holds it, bound-method aliases of
it, and the class attribute for methods, properties, classmethods and
staticmethods.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from types import MethodType
from typing import Any, Callable, Iterator

LAYERS = (
    "sim",
    "net",
    "mac",
    "mmwave",
    "pointcloud",
    "geometry",
    "core",
    "scenario",
    "traces",
    "prediction",
    "obs",
    "runner",
)

#: Span name of the workload's root span (glue).
ROOT = "perfbench:root"

# Entry points are "module:qualname".  Generator functions are not listed:
# their bodies run when the event loop resumes them, which the
# Environment.process proxy times.  Tiny accessors called tens of
# thousands of times from inside their own layer are left out too: the
# wrapper would cost more than the call and move nothing between layers.
LAYER_MAP: dict[str, tuple[str, ...]] = {
    "sim": (
        "repro.sim.engine:Environment.run",
        "repro.sim.engine:Environment.run_until_empty",
        "repro.sim.engine:Environment.process",
        "repro.sim.engine:Environment.timeout",
        "repro.sim.engine:Environment.event",
        "repro.sim.engine:all_of",
        "repro.sim.engine:any_of",
    ),
    "net": (
        "repro.net.transport:TransportSimulator.__init__",
        "repro.net.transport:TransportSimulator.frame_outcome",
        "repro.net.transport:TransportSimulator.link_per",
        "repro.net.transport:TransportSimulator.reseed",
        "repro.net.transport:FrameOutcome.effective_fps",
        "repro.net.arq:simulate_block_arq",
        "repro.net.arq:expected_transmissions",
        "repro.net.packetization:packetize_cells",
        "repro.net.packetization:packetize_demand",
        "repro.net.errormodel:per_for_rss",
        "repro.net.errormodel:per_for_sinr",
        "repro.net.errormodel:sample_packet_failures",
    ),
    "mac": (
        "repro.mac.scheduler:plan_frame",
        "repro.mac.scheduler:multicast_frame_time",
        "repro.mac.scheduler:unicast_frame_time",
        "repro.mac.scheduler:overlap_bytes",
        "repro.mac.scheduler:FramePlan.total_time_s",
        "repro.mac.scheduler:FramePlan.solo_users",
        "repro.mac.scheduler:FramePlan.achievable_fps",
        "repro.mac.wlan:WlanCapacityModel.aggregate_mbps",
        "repro.mac.events:apply_recovery",
        "repro.mac.events:RecoveryPolicy.proactive_default",
    ),
    "mmwave": (
        "repro.mmwave.blockage:compute_blockage_timeline",
        "repro.mmwave.blockage:BlockageTimeline.events",
        "repro.mmwave.blockage:link_blockers",
        "repro.mmwave.beams:design_multicast_beam",
        "repro.mmwave.beams:best_common_beam",
        "repro.mmwave.beams:best_unicast_beam",
        "repro.mmwave.raytrace:trace_paths",
        "repro.mmwave.sinr:sinr_db",
        "repro.mmwave.mcs:mcs_for_rss",
    ),
    "pointcloud": (
        "repro.pointcloud.synthesis:synthesize_video",
        "repro.pointcloud.synthesis:synthesize_frame",
        "repro.pointcloud.visibility:compute_visibility",
        "repro.pointcloud.visibility:compute_visibility_batch",
        "repro.pointcloud.visibility:VisibilityResult.visible_set",
        "repro.pointcloud.visibility:VisibilityResult.visible_fraction",
        "repro.pointcloud.cells:CellGrid.covering",
        "repro.pointcloud.cells:CellGrid.occupancy",
        "repro.pointcloud.compression:CompressionModel.cell_bytes",
        "repro.pointcloud.video:PointCloudVideo.bounds",
        "repro.pointcloud.video:PointCloudVideo.translated",
        "repro.pointcloud.octree:build_octree",
    ),
    "geometry": (
        "repro.geometry.frustum:Frustum.__init__",
        "repro.geometry.frustum:Frustum.intersects_aabbs",
        "repro.geometry.aabb:AABB.of_points",
        "repro.geometry.aabb:AABB.union",
        "repro.geometry.quaternion:Quaternion.look_at",
        "repro.geometry.quaternion:Quaternion.from_euler",
        "repro.geometry.quaternion:Quaternion.slerp",
        "repro.geometry.quaternion:Quaternion.rotate",
        "repro.geometry.rays:VerticalCylinder.blocks",
    ),
    "core": (
        "repro.core.session:StreamingSession.__init__",
        "repro.core.session:StreamingSession.run",
        "repro.core.rates:CapacityRateProvider.multicast_rate_mbps",
        "repro.core.rates:CapacityRateProvider.unicast_rate_mbps",
        "repro.core.grouping:no_grouping",
        "repro.core.grouping:greedy_similarity_grouping",
        "repro.core.grouping:exhaustive_grouping",
        "repro.core.grouping:qoe_aware_grouping",
        "repro.core.similarity:pairwise_iou_matrix",
        "repro.core.similarity:compute_visibility_maps",
        "repro.core.utility:allocate_qualities",
        "repro.core.utility:assignment_utility",
        "repro.core.utility:quality_rate_table",
        "repro.core.qoe:QoEReport.summary",
    ),
    "scenario": (
        "repro.scenario.shard:run_shard",
        "repro.scenario.shard:ShardEngine.run",
        "repro.scenario.planner:shard_rooms",
        "repro.scenario.planner:merge_shard_results",
        "repro.scenario.planner:venue_summary",
        "repro.scenario.population:room_sessions",
        "repro.scenario.population:room_schedule",
        "repro.scenario.spec:VenueSpec.uniform",
    ),
    "traces": (
        "repro.traces.userstudy:generate_user_study",
        "repro.traces.userstudy:UserStudy.positions_at",
        "repro.traces.behavior:generate_trace",
        "repro.traces.trace:Trace.pose_at",
        "repro.traces.pose:Pose.frustum",
        "repro.traces.analytics:study_statistics",
    ),
    "prediction": (
        "repro.prediction.metrics:evaluate_predictor",
        "repro.prediction.metrics:evaluate_joint_predictor",
        "repro.prediction.blockage:BlockageForecaster.forecast_at",
        "repro.prediction.blockage:BlockageForecaster.forecast_session",
        "repro.prediction.blockage:score_forecasts",
        "repro.prediction.linear:LastValuePredictor.predict",
        "repro.prediction.linear:LinearRegressionPredictor.predict",
        "repro.prediction.mlp:MlpViewportPredictor.predict",
        "repro.prediction.multiuser:JointViewportPredictor.predict",
    ),
    "obs": (
        "repro.obs.cli:main",
        "repro.obs.cli:obs_main",
        "repro.obs.trace:TraceEventType.emit",
        "repro.obs.stream:stream_analyze",
        "repro.obs.spans:load_events",
        "repro.obs.spans:reconstruct",
        "repro.obs.slo:evaluate_spec",
    ),
    "runner": (
        "repro.runner.executor:run_specs",
        "repro.runner.executor:run_experiment",
        "repro.runner.executor:_execute_one",
        "repro.runner.registry:get_experiment",
        "repro.runner.registry:resolve_params",
        "repro.runner.cache:ResultCache.get",
        "repro.runner.cache:ResultCache.put",
    ),
}

#: Entry points whose span marks one unit of a per-layer count.
UNIT_ENTRY = "repro.runner.executor:_execute_one"
SYNTH_ENTRY = "repro.pointcloud.synthesis:synthesize_video"
PROCESS_ENTRY = "repro.sim.engine:Environment.process"

#: Glue modules: imported before patching, timed as unattributed.
GLUE_MODULES = ("repro.cli", "repro.experiments")


class LayerMapError(LookupError):
    """A layer-map entry point no longer resolves to a callable."""


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or None for glue."""
    module = name.split(":", 1)[0]
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def import_program() -> None:
    """Import every module of every layer plus the glue modules.

    Patching has to see every module-level binding, so nothing that binds
    a wrapped function may be imported after :meth:`Tracer.install`.
    """
    for module in GLUE_MODULES:
        importlib.import_module(module)
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)


def resolve(entry: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw)`` for one ``module:qualname`` entry point.

    ``owner`` is the module or class holding the attribute and ``raw`` the
    attribute as stored there (a function, property, classmethod or
    staticmethod).  Raises :class:`LayerMapError` naming the entry point
    when any part of the path is gone.
    """
    module_name, _, qualname = entry.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerMapError(f"{entry}: module {module_name} not importable ({exc})")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if not inspect.isclass(owner):
            raise LayerMapError(f"{entry}: {part!r} is not a class in {module_name}")
    attr = parts[-1]
    raw = (
        owner.__dict__.get(attr)
        if inspect.isclass(owner)
        else getattr(owner, attr, None)
    )
    if raw is None:
        raise LayerMapError(f"{entry}: no attribute {attr!r} on {owner.__name__}")
    func = _function_of(raw)
    if func is None:
        raise LayerMapError(f"{entry}: {type(raw).__name__} is not wrappable")
    if inspect.isgeneratorfunction(func):
        raise LayerMapError(
            f"{entry}: generator function; its body runs under "
            "Environment.process and is timed there"
        )
    return owner, attr, raw


def _function_of(raw: Any) -> Callable | None:
    """The plain function behind a class attribute, or None."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__
    if isinstance(raw, property):
        return raw.fget
    if inspect.isfunction(raw):
        return raw
    return None


def _rebuild(raw: Any, func: Callable) -> Any:
    """``raw`` with its function replaced by ``func``."""
    if isinstance(raw, classmethod):
        return classmethod(func)
    if isinstance(raw, staticmethod):
        return staticmethod(func)
    if isinstance(raw, property):
        return property(func, raw.fset, raw.fdel, raw.__doc__)
    return func


def program_modules() -> list[Any]:
    """Every loaded ``repro`` module, in name order."""
    return [
        sys.modules[name]
        for name in sorted(sys.modules)
        if (name == "repro" or name.startswith("repro."))
        and sys.modules[name] is not None
    ]


def _binds(value: Any, func: Callable) -> bool:
    """Whether ``value`` is ``func`` or a bound-method alias of it."""
    return value is func or (inspect.ismethod(value) and value.__func__ is func)


def bindings_of(func: Callable) -> Iterator[tuple[str, Any, Any]]:
    """Every module-level binding of ``func``: ``(where, container, key)``.

    Covers module attributes, the values of module-level dicts, and
    bound-method aliases such as ``snapshot = REGISTRY.snapshot``.
    """
    for module in program_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if _binds(value, func):
                yield f"{module.__name__}.{key}", namespace, key
            elif isinstance(value, dict):
                for inner, item in list(value.items()):
                    if _binds(item, func):
                        yield f"{module.__name__}.{key}[{inner!r}]", value, inner


class _GeneratorProxy:
    """Times each resume of a simulation process's generator.

    ``repro.sim`` drives a process only through ``send``.
    """

    __slots__ = ("_generator", "_span")

    def __init__(self, generator: Any, span: Callable) -> None:
        self._generator = generator
        self._span = span

    def send(self, value: Any) -> Any:
        return self._span(self._generator.send, value)


class Tracer:
    """Spans (name, start, end, parent) kept in memory until the run ends.

    Spans are stored column-wise in typed arrays.  A span's parent is the
    span open when it began (-1 for the root), so the spans form a forest
    that nests by construction; :func:`attribution.check_nesting` verifies
    it on the written file.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = [-1]
        self._undo: list[tuple[Any, Any, Any]] = []
        self.originals: dict[str, Callable] = {}
        self.synth_keys: set[str] = set()
        self.metrics: dict[str, Any] = {}

    # -- recording -----------------------------------------------------------

    def intern(self, name: str) -> int:
        """The id of a span name, assigned on first use."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _timer(self, name: str) -> Callable:
        """``call(fn, *args, **kwargs)`` running ``fn`` inside a span."""
        nid = self.intern(name)
        stack = self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        clock = time.perf_counter

        def call(fn: Callable, *args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return call

    def clear(self) -> None:
        """Drop every recorded span (the set-up's) before the root opens."""
        if len(self._stack) != 1:
            raise RuntimeError("cannot clear spans while one is open")
        for column in (self.name_id, self.start, self.end, self.parent):
            del column[:]
        self.synth_keys.clear()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A glue span around a block of the workload's own code."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` timed as span ``name``."""
        call = self._timer(name)
        if name == PROCESS_ENTRY:
            return self._wrap_process(call, func)
        if name == SYNTH_ENTRY:
            keys = self.synth_keys

            @functools.wraps(func)
            def synth_wrapper(*args: Any, **kwargs: Any) -> Any:
                keys.add(repr((args, sorted(kwargs.items()))))
                return call(func, *args, **kwargs)

            return synth_wrapper

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return call(func, *args, **kwargs)

        return wrapper

    def _wrap_process(self, call: Callable, func: Callable) -> Callable:
        resume_timers: dict[str, Callable] = {}

        def resume_timer(generator: Any) -> Callable:
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__", "?") if frame else "?"
            name = f"{module}:{getattr(generator, '__qualname__', '?')}"
            timer = resume_timers.get(name)
            if timer is None:
                timer = resume_timers[name] = self._timer(name)
            return timer

        @functools.wraps(func)
        def process_wrapper(env: Any, generator: Any) -> Any:
            proxy = _GeneratorProxy(generator, resume_timer(generator))
            return call(func, env, proxy)

        return process_wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point and every registered experiment."""
        for layer in LAYERS:
            for entry in LAYER_MAP[layer]:
                owner, attr, raw = resolve(entry)
                func = _function_of(raw)
                wrapped = self.wrap(entry, func)
                self.originals[entry] = func
                if inspect.isclass(owner):
                    self._set(owner, attr, _rebuild(raw, wrapped))
                for _, container, key in list(bindings_of(func)):
                    value = container[key]
                    if inspect.ismethod(value):
                        self._set_item(container, key, MethodType(wrapped, value.__self__))
                    else:
                        self._set_item(container, key, wrapped)
        self._wrap_glue()

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append(("attr", owner, (attr, owner.__dict__[attr])))
        setattr(owner, attr, value)

    def _set_item(self, container: dict, key: Any, value: Any) -> None:
        self._undo.append(("item", container, (key, container[key])))
        container[key] = value

    def _wrap_glue(self) -> None:
        from repro import cli
        from repro.runner import registry

        for name, experiment in list(registry._REGISTRY.items()):
            fields = {
                field: self.wrap(f"repro.experiments:{name}.{field}", getattr(experiment, field))
                for field in ("run_one", "decompose", "merge", "format_result")
            }
            self._set_item(registry._REGISTRY, name, dataclasses.replace(experiment, **fields))
        main = cli.main
        wrapped = self.wrap("repro.cli:main", main)
        for _, container, key in list(bindings_of(main)):
            self._set_item(container, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        while self._undo:
            kind, owner, (key, value) = self._undo.pop()
            if kind == "attr":
                setattr(owner, key, value)
            else:
                owner[key] = value

    # -- metrics and output ---------------------------------------------------

    def collect_metrics(self) -> None:
        """Fold the program's counters into the run total and reset them.

        ``repro trace`` resets the registry when it starts, so counters are
        collected after every step that may have recorded some.
        """
        from repro.obs import metrics

        snap = metrics.REGISTRY.snapshot()
        self.metrics = metrics.merge_snapshots([self.metrics, snap])
        metrics.REGISTRY.reset()

    def write(self, path: Path) -> Path:
        """Write the spans as four arrays after a small JSON header."""
        from attribution import write_spans

        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} span(s) still open")
        return write_spans(
            path, self.names, self.name_id, self.start, self.end, self.parent
        )
