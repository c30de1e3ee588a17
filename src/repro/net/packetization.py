"""Split a frame's per-cell byte demands into MTU-sized PDUs.

The fluid scheduler moves fractional bytes; a real link moves packets.  A
cell is the smallest independently decodable unit (the codec operates per
cell), so each cell's bytes are packetized separately — a cell never shares
a PDU with another cell, and the last PDU of a cell is short rather than
padded.  Every PDU carries ``header_bytes`` of IP/UDP/RTP-style framing on
the wire, which is where the packetization tax on small cells comes from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mac.scheduler import UserDemand

__all__ = [
    "DEFAULT_MTU_BYTES",
    "DEFAULT_HEADER_BYTES",
    "PacketizationConfig",
    "PacketizedUnit",
    "packet_count",
    "packetize_bytes",
    "packetize_cells",
    "packetize_demand",
]

DEFAULT_MTU_BYTES = 1500
DEFAULT_HEADER_BYTES = 44  # IP (20) + UDP (8) + RTP-ish media framing (16)


@dataclass(frozen=True)
class PacketizationConfig:
    """MTU and per-PDU header overhead."""

    mtu_bytes: int = DEFAULT_MTU_BYTES
    header_bytes: int = DEFAULT_HEADER_BYTES

    def __post_init__(self) -> None:
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")
        if self.mtu_bytes <= self.header_bytes:
            raise ValueError("mtu_bytes must exceed header_bytes")

    @property
    def payload_bytes(self) -> int:
        """Application bytes one PDU can carry."""
        return self.mtu_bytes - self.header_bytes


@dataclass(frozen=True)
class PacketizedUnit:
    """One transmission unit (a frame, or one user's share of it) as PDUs."""

    num_packets: int
    app_bytes: float  # payload actually requested by the application
    wire_bytes: float  # payload + per-PDU headers, what the link carries

    def __add__(self, other: "PacketizedUnit") -> "PacketizedUnit":
        return PacketizedUnit(
            num_packets=self.num_packets + other.num_packets,
            app_bytes=self.app_bytes + other.app_bytes,
            wire_bytes=self.wire_bytes + other.wire_bytes,
        )

    @property
    def overhead_fraction(self) -> float:
        """Wire bytes per app byte, minus one (0 for an empty unit)."""
        if self.app_bytes <= 0:
            return 0.0
        return self.wire_bytes / self.app_bytes - 1.0

    def airtime_s(self, rate_mbps: float) -> float:
        """Seconds to carry this unit's wire bytes at ``rate_mbps``."""
        if self.wire_bytes <= 0:
            return 0.0
        if rate_mbps <= 0:
            return float("inf")
        return self.wire_bytes * 8.0 / (rate_mbps * 1e6)


def packet_count(nbytes: float, payload_bytes: int) -> int:
    """PDUs needed to carry ``nbytes`` of payload."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if payload_bytes <= 0:
        raise ValueError("payload_bytes must be positive")
    return int(math.ceil(nbytes / payload_bytes))


def packetize_bytes(
    nbytes: float, config: PacketizationConfig = PacketizationConfig()
) -> PacketizedUnit:
    """Packetize one contiguous byte run (one cell, or one FEC block)."""
    n = packet_count(nbytes, config.payload_bytes)
    return PacketizedUnit(
        num_packets=n,
        app_bytes=float(nbytes),
        wire_bytes=float(nbytes) + n * config.header_bytes,
    )


def packetize_cells(
    cell_bytes: dict[int, float],
    config: PacketizationConfig = PacketizationConfig(),
) -> PacketizedUnit:
    """Packetize a per-cell demand map; cells never share a PDU.

    The sum of :func:`packetize_bytes` over the cells, accumulated left to
    right with the same float additions, without a unit per cell.
    """
    payload = config.payload_bytes
    header = config.header_bytes
    packets = 0
    app = 0.0
    wire = 0.0
    for nbytes in cell_bytes.values():
        n = packet_count(nbytes, payload)
        packets += n
        app += float(nbytes)
        wire += float(nbytes) + n * header
    return PacketizedUnit(num_packets=packets, app_bytes=app, wire_bytes=wire)


def packetize_demand(
    demand: UserDemand, config: PacketizationConfig = PacketizationConfig()
) -> PacketizedUnit:
    """Packetize one user's whole frame demand."""
    return packetize_cells(demand.cell_bytes, config)
