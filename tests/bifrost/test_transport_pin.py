"""Pin of the delivery engine's observable behaviour over a fault grid.

Every cell delivers the same nine slices (three of each kind, staggered
availability, varied sizes) under one distribution mode (origin fan-out
or P2P), one per-hop corruption rate and one partition layout, and
hashes what the transport did: each arrival with its simulated time,
the order and times of the arrival callbacks, the retransmission,
failover and detour counts, wire/payload/origin bytes, the lifetime
counters, every link's ``delivery_failures`` and the ``(region, slice)``
pair of every failure.  The traced cell adds every span's name, track,
start and end.

How many deliveries a loss costs (``abandoned``, ``miss_ratio``) is not
pinned here: this pin holds the transport's events, not its loss unit.
A digest that moves means the transport's behaviour moved: fix the
change, do not re-pin.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bifrost.channels import TopologyConfig, build_topology
from repro.bifrost.slices import Slice
from repro.bifrost.transport import BifrostTransport, TransportConfig
from repro.indexing.types import IndexEntry, IndexKind
from repro.obs.tracer import Tracer
from repro.simulation.kernel import Simulator

KINDS = (IndexKind.INVERTED, IndexKind.FORWARD, IndexKind.SUMMARY)

PARTITIONS = {
    "none": [],
    "origin-north": [("origin", "north")],
    "north-isolated": [
        ("origin", "north"), ("east", "north"), ("south", "north"),
    ],
}

GOLDEN = {
    "origin-fanout/0.0/none": "32b15b76a648aabfc7e0b585447b228517b93050ff35a572920788dab620bdbf",
    "origin-fanout/0.0/origin-north": "828e0ac8c2ce29a27d83a67db0ab6604e9629f0769eb09a08d3689dd05c71423",
    "origin-fanout/0.0/north-isolated": "cca6fb88b6cc60d348ac447d6cb3e195ceab315db761b7c94306ca3272f0a6e7",
    "origin-fanout/0.3/none": "ca9895f622d0e0190774dd227e2e06c9bafb1a9480f875ff67e19f7f56beb2e8",
    "origin-fanout/0.3/origin-north": "f91143f37018b25804a41498f0f48dd4f722cee583ac09016513bfea655ac9d6",
    "origin-fanout/0.3/north-isolated": "2415e4378e3d5427a8d2f784889445288959720da417d3a6e61ce04dbda16b82",
    "origin-fanout/0.97/none": "f0c086edabef00b904a680ef81632be9dcb5ed3e3a48f8413d69b2e468fc9fa8",
    "origin-fanout/0.97/origin-north": "15e4736d86dbe8cb0f3f37cf3c4e1fd2b9d1a32e27013f2d41a17e71b091c69e",
    "origin-fanout/0.97/north-isolated": "33301746d5376786cff6286042987b8b590e9224e894304ccbf61155dc4990a0",
    "p2p/0.0/none": "da8122f28a0ca390920da41e85a78fb3383f6c18c9642a27e60a50e6734654b1",
    "p2p/0.0/origin-north": "d1e35d015d9cd590e0613820a6c63fa1b535affcfe603215cbc07fdbee499480",
    "p2p/0.0/north-isolated": "c7a13d850db8bf73e506dbd4fc393989010d2a7046df2763c9e666f85ab03e92",
    "p2p/0.3/none": "060941de67a3b81f22a2fb9dc974682a0ed71460d24dda2d9636b302fce9bde0",
    "p2p/0.3/origin-north": "f1c849889d018e9919124b1df2823db8905e3059aa52cf7b68888feab293f971",
    "p2p/0.3/north-isolated": "98ef4c814d497d01fadc739094e51a3720abceba86579ab2f88cbb633d38c176",
    "p2p/0.97/none": "e54410bc8f16c71037290bc2e4a883216e9eb294c59b51287828687d326568b8",
    "p2p/0.97/origin-north": "c8a9605e0d762703097ebc000191d5151071e18bd6a45cedaccbfcce9a9a4976",
    "p2p/0.97/north-isolated": "b07b25f192ac1d5f1ad24bf1ddddd9ed84642afadb2f141ec00d560892d9767d",
    "p2p/0.3/origin-north/spans": "b251c446085c3141e0e59c12d775598fa787839df02f769eec5b42c11be55cab",
}


def make_slices():
    slices = []
    for i in range(9):
        kind = KINDS[i % 3]
        value = bytes([i]) * (8000 + 3000 * i)
        slices.append(
            Slice.pack(
                f"s{i}", 1, kind, [IndexEntry(kind, b"key%d" % i, value)],
                available_at=0.01 * i,
            )
        )
    return slices


def deliver_cell(distribution, corruption, partition, traced=False):
    """One cell's delivery: the transport, its report and the arrival
    callbacks as ``(dc, slice_id, simulated time)``."""
    sim = Simulator()
    topology = build_topology(sim, TopologyConfig(backbone_bps=5e7))
    for source, destination in PARTITIONS[partition]:
        topology.partition_link(source, destination)
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            distribution=distribution,
            corruption_probability=corruption,
            seed=11,
        ),
        tracer=Tracer(sim) if traced else None,
    )
    callbacks = []
    report = transport.deliver_version(
        make_slices(),
        on_arrival=lambda dc, item: callbacks.append(
            (dc, item.slice_id, sim.now)
        ),
    )
    return transport, report, callbacks


def run_cell(distribution, corruption, partition, traced=False):
    transport, report, callbacks = deliver_cell(
        distribution, corruption, partition, traced
    )
    topology = transport.topology
    links = {**topology.backbone, **topology.intra}
    for pair, streams in topology.streams.items():
        for stream, link in streams.items():
            links[(*pair, stream)] = link
    payload = {
        "arrivals": sorted(
            (dc, slice_id, at) for (dc, slice_id), at in report.arrivals.items()
        ),
        "callbacks": callbacks,
        "retransmissions": report.retransmissions,
        "relay_failovers": report.relay_failovers,
        "detoured": report.detoured,
        "bytes_sent": report.bytes_sent,
        "payload_bytes_sent": report.payload_bytes_sent,
        "origin_bytes_sent": report.origin_bytes_sent,
        "lifetime": [
            transport.total_retransmissions,
            transport.total_relay_failovers,
            transport.total_wire_bytes_sent,
            transport.total_payload_bytes_sent,
        ],
        "delivery_failures": sorted(
            ("/".join(key), link.delivery_failures)
            for key, link in links.items()
            if link.delivery_failures
        ),
        "failures": [
            (region, slice_id) for region, slice_id, _ in report.failures
        ],
    }
    if traced:
        payload["spans"] = [
            (span.name, span.track, span.start_s, span.end_s)
            for span in transport.tracer.spans
        ]
    return payload


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


CELLS = [
    (distribution, corruption, partition)
    for distribution in ("origin-fanout", "p2p")
    for corruption in (0.0, 0.3, 0.97)
    for partition in PARTITIONS
]


@pytest.mark.parametrize("distribution,corruption,partition", CELLS)
def test_transport_pin(distribution, corruption, partition):
    payload = run_cell(distribution, corruption, partition)
    name = f"{distribution}/{corruption}/{partition}"
    assert _digest(payload) == GOLDEN[name], name


def test_transport_pin_traced():
    payload = run_cell("p2p", 0.3, "origin-north", traced=True)
    spans = payload.pop("spans")
    # Tracing changes nothing the transport does...
    untraced = run_cell("p2p", 0.3, "origin-north")
    assert payload == untraced
    # ...and its spans sit where they always did.
    assert _digest(spans) == GOLDEN["p2p/0.3/origin-north/spans"]


@pytest.mark.parametrize("distribution,corruption,partition", CELLS)
def test_a_loss_counts_in_the_unit_of_an_arrival(
    distribution, corruption, partition
):
    transport, report, _ = deliver_cell(distribution, corruption, partition)
    topology = transport.topology
    due = sum(
        len(topology.receivers(region, item.kind))
        for item in make_slices()
        for region in topology.regions
    )
    assert report.deliveries + report.abandoned == due
    assert transport.total_abandoned == report.abandoned
