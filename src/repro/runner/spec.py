"""Work-unit description for the parallel experiment runner.

A :class:`RunSpec` names one independent unit of work: an experiment, a
parameter point, and a seed.  Specs are immutable, hashable, picklable,
and have a canonical JSON form — the executor keys, orders, dedupes, and
caches runs by spec, never by completion order, which is what makes
``--parallel N`` bit-identical to the serial path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..defaults import DEFAULT_SEED

__all__ = ["RunSpec", "canonical_json", "DEFAULT_SEED"]

def _freeze(value: Any) -> Any:
    """Normalize a parameter value to a hashable, JSON-stable form."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    raise TypeError(
        f"RunSpec parameter values must be scalars or (nested) sequences, "
        f"got {type(value).__name__}: {value!r}"
    )


def _thaw(value: Any) -> Any:
    """JSON form of a frozen value (tuples become lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """One experiment run: name + parameter point + seed."""

    experiment: str
    params: tuple[tuple[str, Any], ...] = field(default_factory=tuple)
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("RunSpec.experiment must be a non-empty name")
        frozen = tuple(
            sorted((str(k), _freeze(v)) for k, v in self.params)
        )
        names = [k for k, _ in frozen]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in {names}")
        object.__setattr__(self, "params", frozen)
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def make(cls, experiment: str, seed: int = DEFAULT_SEED, **params: Any) -> "RunSpec":
        """The usual constructor: ``RunSpec.make("table1", num_users=3)``."""
        return cls(experiment=experiment, params=tuple(params.items()), seed=seed)

    @property
    def params_dict(self) -> dict[str, Any]:
        return dict(self.params)

    def get(self, name: str, default: Any = None) -> Any:
        return self.params_dict.get(name, default)

    def key(self) -> str:
        """Compact human-readable identity, e.g. ``table1[num_users=3]@7``."""
        inner = ",".join(f"{k}={_thaw(v)!r}".replace("'", "") for k, v in self.params)
        return f"{self.experiment}[{inner}]@{self.seed}"

    def sort_key(self) -> tuple[str, str, int]:
        """Stable total order over specs (used for deterministic merging)."""
        return (self.experiment, canonical_json(self.to_jsonable()), self.seed)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "params": {k: _thaw(v) for k, v in self.params},
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "RunSpec":
        return cls.make(
            payload["experiment"],
            seed=payload.get("seed", DEFAULT_SEED),
            **payload.get("params", {}),
        )

    def digest(self, version: str) -> str:
        """Cache key: sha256 over the canonical (spec, code version) pair."""
        body = canonical_json({"spec": self.to_jsonable(), "version": version})
        return hashlib.sha256(body.encode("utf-8")).hexdigest()
