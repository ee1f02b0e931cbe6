"""Network substrate: geography, latency, bandwidth, transport, topology."""

from .bandwidth import (
    DOWNLOAD_BANDWIDTH_TRACE,
    UPLOAD_FRACTION,
    BandwidthModel,
    LinkBandwidths,
)
from .geo import (
    US_REGION,
    GeoPoint,
    Metro,
    Region,
    pairwise_distances,
    place_datacenters,
)
from .latency import (
    DEFAULT_ACCESS_TRACE,
    GENERAL_NETWORK_BUDGET_MS,
    GENERAL_RESPONSE_BUDGET_MS,
    LOL_PING_TRACE,
    PLAYOUT_PROCESSING_MS,
    LatencyModel,
)
from .topology import Topology, build_topology
from .transport import PathSpec, TransportModel

__all__ = [
    "DOWNLOAD_BANDWIDTH_TRACE",
    "UPLOAD_FRACTION",
    "BandwidthModel",
    "LinkBandwidths",
    "US_REGION",
    "GeoPoint",
    "Metro",
    "Region",
    "pairwise_distances",
    "place_datacenters",
    "DEFAULT_ACCESS_TRACE",
    "GENERAL_NETWORK_BUDGET_MS",
    "GENERAL_RESPONSE_BUDGET_MS",
    "LOL_PING_TRACE",
    "PLAYOUT_PROCESSING_MS",
    "LatencyModel",
    "Topology",
    "build_topology",
    "PathSpec",
    "TransportModel",
]
