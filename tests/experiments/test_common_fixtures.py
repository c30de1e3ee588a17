"""Fixture-cache hygiene: every parameter lands in the cache key.

The memoized fixtures in ``experiments.common`` sit under every runner, so
a silent cache-key alias (positional vs. keyword call, int vs. float, a
typo'd quality) would hand two different parameter points the same cached
object.  These tests pin the normalization front doors that prevent that,
plus ``clear_fixture_caches`` — the hook parallel workers rely on to
rebuild state safely.
"""

from __future__ import annotations

import json

import pytest

from repro.defaults import DEFAULT_SEED
from repro.experiments.common import (
    DEFAULT_SEED as COMMON_SEED,
    clear_fixture_caches,
    default_study,
    default_video,
    study_in_room,
)
from repro.scenario import VenueSpec, run_shard
from repro.scenario.shard import venue_library


def test_default_seed_has_one_source():
    assert COMMON_SEED is DEFAULT_SEED


def test_positional_and_keyword_calls_share_one_entry():
    a = default_video("low", 30, 1000)
    b = default_video(quality="low", points_per_frame=1000, num_frames=30)
    assert a is b


def test_numeric_normalization_prevents_aliasing():
    # bool is an int subclass and floats equal ints hash alike — both must
    # normalize to the same key as their canonical int form.
    a = default_study(num_users=4, duration_s=2, seed=DEFAULT_SEED)
    b = default_study(num_users=4, duration_s=2.0, seed=DEFAULT_SEED)
    assert a is b


def test_different_parameters_get_different_objects():
    a = default_study(num_users=4, duration_s=2.0)
    b = default_study(num_users=4, duration_s=2.0, seed=DEFAULT_SEED + 1)
    assert a is not b
    assert study_in_room(num_users=4, duration_s=2.0) is not a


def test_unknown_quality_is_rejected_not_cached():
    with pytest.raises(ValueError, match="unknown quality"):
        default_video("ultra")


def test_clear_fixture_caches_forces_rebuild():
    before = default_video("low", 30, 1000)
    assert default_video("low", 30, 1000) is before
    clear_fixture_caches()
    after = default_video("low", 30, 1000)
    assert after is not before


def test_clear_fixture_caches_rebuilds_venue_library_bit_identically():
    venue = VenueSpec.uniform(
        2, 8, initial_users=4, quality="medium", duration_s=3.0, seed=23,
        archetypes=3,
    )
    before = venue_library(venue)
    first = run_shard(venue, (0, 1))
    assert venue_library(venue) is before
    clear_fixture_caches()
    second = run_shard(venue, (0, 1))
    assert venue_library(venue) is not before
    assert json.dumps(second, sort_keys=True) == json.dumps(first, sort_keys=True)
