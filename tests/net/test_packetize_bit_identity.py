"""``packetize_cells`` against its original unit-per-cell body.

The reference is the pre-change body, copied verbatim: packetize each cell
into a :class:`PacketizedUnit` and add the units left to right.  The
accumulator version must give the same packet count and the same float
bits, and raise the same error on a negative cell.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packetization import (
    PacketizationConfig,
    PacketizedUnit,
    packetize_bytes,
    packetize_cells,
)


def _ref_packetize_cells(
    cell_bytes: dict[int, float],
    config: PacketizationConfig = PacketizationConfig(),
) -> PacketizedUnit:
    """Packetize a per-cell demand map; cells never share a PDU."""
    unit = PacketizedUnit(num_packets=0, app_bytes=0.0, wire_bytes=0.0)
    for nbytes in cell_bytes.values():
        unit = unit + packetize_bytes(nbytes, config)
    return unit


def _bits(unit: PacketizedUnit) -> tuple:
    return (
        type(unit.num_packets),
        unit.num_packets,
        type(unit.app_bytes),
        struct.pack("<d", unit.app_bytes),
        type(unit.wire_bytes),
        struct.pack("<d", unit.wire_bytes),
    )


def _assert_identical(cells, config=PacketizationConfig()):
    expected = _ref_packetize_cells(cells, config)
    got = packetize_cells(cells, config)
    assert got == expected
    assert _bits(got) == _bits(expected)


_configs = st.builds(
    lambda header, payload: PacketizationConfig(
        mtu_bytes=header + payload, header_bytes=header
    ),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=9000),
)
_bytes = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.integers(min_value=0, max_value=10**7),
    st.sampled_from([0.0, -0.0, 0, 1456.0, 2912, 1e-300, 5e-324]),
)


@given(
    st.dictionaries(st.integers(min_value=0, max_value=500), _bytes,
                    max_size=80),
    _configs,
)
@settings(max_examples=400, deadline=None)
def test_matches_reference_on_generated_maps(cells, config):
    _assert_identical(cells, config)


def test_empty_map():
    _assert_identical({})
    assert packetize_cells({}) == PacketizedUnit(0, 0.0, 0.0)


def test_zero_bytes_and_exact_payload_multiples():
    cfg = PacketizationConfig(mtu_bytes=144, header_bytes=44)  # payload 100
    _assert_identical({0: 0.0, 1: -0.0, 2: 0}, cfg)
    _assert_identical({i: 100.0 * i for i in range(10)}, cfg)
    _assert_identical({0: 100, 1: 200, 2: 300}, cfg)
    assert packetize_cells({0: 100.0, 1: 200.0}, cfg).num_packets == 3


def test_huge_values():
    _assert_identical({0: 1e300, 1: 1.0, 2: 1e300})
    _assert_identical({0: 1e16, 1: 1.0, 2: 3.0, 3: 1e16})
    _assert_identical({0: 10**20, 1: 7})


def test_negative_bytes_raise_the_same_error():
    cells = {0: 10.0, 1: -1.0, 2: 5.0}
    with pytest.raises(ValueError) as ref:
        _ref_packetize_cells(cells)
    with pytest.raises(ValueError) as got:
        packetize_cells(cells)
    assert str(got.value) == str(ref.value) == "nbytes must be non-negative"
