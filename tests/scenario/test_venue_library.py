"""The per-process venue library: content built once, shared by every shard.

``ShardEngine`` takes its :class:`ArchetypeLibrary` from
:func:`venue_library`, a small memo keyed on the frozen ``VenueSpec``, so
a serial multi-shard run synthesizes each quality's content and generates
the archetype study once rather than once per shard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.venue_scale import run_venue_scale
from repro.scenario import ShardEngine, VenueSpec, shard
from repro.scenario.shard import venue_library


@pytest.fixture
def cold_library():
    venue_library.cache_clear()
    yield
    venue_library.cache_clear()


def _counting(monkeypatch, name: str) -> Counter:
    calls: Counter = Counter()
    original = getattr(shard, name)

    def counted(*args, **kwargs):
        calls[(args, tuple(sorted(kwargs.items())))] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(shard, name, counted)
    return calls


def test_serial_four_shard_run_builds_content_once_per_key(
    monkeypatch, cold_library
):
    synth = _counting(monkeypatch, "synthesize_video")
    study = _counting(monkeypatch, "generate_user_study")
    merged = run_venue_scale(
        {"num_rooms": 4, "num_shards": 4}, scale="small", workers=1
    )
    assert merged["venue"]["rooms"] == 4
    assert len(synth) == 1 and set(synth.values()) == {1}
    assert len(study) == 1 and set(study.values()) == {1}


def _venue(**overrides) -> VenueSpec:
    return VenueSpec.uniform(
        3, 8, initial_users=4, quality="medium", duration_s=3.0, seed=23,
        archetypes=3, **overrides,
    )


def test_every_shard_of_a_venue_shares_one_library(cold_library):
    venue = _venue()
    engines = [ShardEngine(venue, (ri,)) for ri in range(venue.num_rooms)]
    assert all(e.library is engines[0].library for e in engines)
    assert engines[0].library is venue_library(venue)
    # An equal spec built separately hits the same entry.
    assert venue_library(_venue()) is engines[0].library


@pytest.mark.parametrize("field, value", [("seed", 24), ("cell_size", 0.25)])
def test_venues_differing_in_a_content_field_get_different_libraries(
    cold_library, field, value
):
    venue = _venue()
    other = replace(venue, **{field: value})
    assert venue_library(other) is not venue_library(venue)
    assert getattr(venue_library(other).venue, field) == value
