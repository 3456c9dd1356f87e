"""Unit tests for the classic and extended Roofline models."""

import math

import pytest

from repro.core import (
    ExtendedRoofline,
    LimitingFactor,
    RooflineModel,
    RooflinePoint,
    render_roofline_ascii,
    render_table2,
    roofline_for_cluster,
)
from repro.cluster import Cluster
from repro.cluster.cluster import thunderx_cluster_spec, tx1_cluster_spec
from repro.errors import AnalysisError, ConfigurationError
from repro.units import gbit_s, gbyte_s, gflops


def tx1_model(network="10G"):
    return roofline_for_cluster(Cluster(tx1_cluster_spec(4, network)))


# -- classic roofline ---------------------------------------------------------------


def test_classic_memory_bound_region():
    model = RooflineModel("m", peak_flops=gflops(16), memory_bandwidth=gbyte_s(20))
    oi = 0.1
    assert model.attainable(oi) == pytest.approx(gbyte_s(20) * oi)
    assert model.is_memory_bound(oi)


def test_classic_compute_bound_region():
    model = RooflineModel("m", peak_flops=gflops(16), memory_bandwidth=gbyte_s(20))
    assert model.attainable(100.0) == gflops(16)
    assert not model.is_memory_bound(100.0)


def test_classic_ridge_point_continuity():
    model = RooflineModel("m", peak_flops=gflops(16), memory_bandwidth=gbyte_s(20))
    ridge = model.ridge_point
    assert model.attainable(ridge) == pytest.approx(gflops(16))


def test_classic_validation():
    with pytest.raises(ConfigurationError):
        RooflineModel("bad", peak_flops=0.0, memory_bandwidth=1.0)
    with pytest.raises(ConfigurationError):
        RooflineModel("bad", peak_flops=math.nan, memory_bandwidth=1.0)
    model = RooflineModel("m", peak_flops=1.0, memory_bandwidth=1.0)
    with pytest.raises(ConfigurationError):
        model.attainable(0.0)
    with pytest.raises(ConfigurationError):
        model.attainable(math.nan)


# -- extended roofline ---------------------------------------------------------------


def test_extended_three_way_min():
    model = ExtendedRoofline(
        "x", peak_flops=gflops(16),
        memory_bandwidth=gbyte_s(20), network_bandwidth=gbit_s(3.3),
    )
    # Very low NI: network roof binds.
    assert model.attainable(100.0, 0.1) == pytest.approx(gbit_s(3.3) * 0.1)
    # Very low OI: memory roof binds.
    assert model.attainable(0.1, 1000.0) == pytest.approx(gbyte_s(20) * 0.1)
    # Both high: compute roof binds.
    assert model.attainable(1000.0, 1e6) == gflops(16)


def test_extended_limiting_factor():
    model = ExtendedRoofline(
        "x", peak_flops=gflops(16),
        memory_bandwidth=gbyte_s(20), network_bandwidth=gbit_s(1.0),
    )
    assert model.limiting_factor(100.0, 1.0) is LimitingFactor.NETWORK
    assert model.limiting_factor(0.1, 1e6) is LimitingFactor.OPERATIONAL
    assert model.limiting_factor(1e4, 1e6) is LimitingFactor.COMPUTE


def test_faster_network_lifts_the_network_roof():
    """The core claim of Fig. 4: the 10 GbE roof sits above the 1 GbE roof."""
    ten, one = tx1_model("10G"), tx1_model("1G")
    ni = 10.0  # a network-hungry workload
    assert ten.attainable(100.0, ni) > one.attainable(100.0, ni)
    # And a network-limited point at 1G can become operational-limited at 10G.
    oi, ni = 0.5, 40.0
    assert one.limiting_factor(oi, ni) is LimitingFactor.NETWORK
    assert ten.limiting_factor(oi, ni) is LimitingFactor.OPERATIONAL


def test_network_does_not_change_intensities():
    """Intensities are workload properties; only the roofs move (§III-B.3)."""
    point10 = RooflinePoint("hpl", 5.0, 40.0, gflops(8), tx1_model("10G"))
    point1 = RooflinePoint("hpl", 5.0, 40.0, gflops(8), tx1_model("1G"))
    assert point10.operational_intensity == point1.operational_intensity
    assert point10.network_intensity == point1.network_intensity
    assert point10.attainable > point1.attainable


def test_ridges():
    model = tx1_model()
    assert model.memory_ridge() == pytest.approx(model.peak_flops / model.memory_bandwidth)
    assert model.network_ridge() == pytest.approx(model.peak_flops / model.network_bandwidth)
    assert model.network_ridge() > model.memory_ridge()  # network roof is lower


def test_percent_of_peak():
    model = tx1_model()
    point = RooflinePoint("w", 100.0, 1000.0, model.peak_flops / 2, model)
    assert point.percent_of_peak == pytest.approx(50.0)


def test_roofline_for_cluster_requires_gpu():
    with pytest.raises(AnalysisError):
        roofline_for_cluster(Cluster(thunderx_cluster_spec()))


def test_extended_validation():
    with pytest.raises(ConfigurationError):
        ExtendedRoofline("bad", 0.0, 1.0, 1.0)
    # NaN compares false both ways, so a `<= 0` check lets it through.
    for args in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        with pytest.raises(ConfigurationError):
            ExtendedRoofline("x", *args)
    model = tx1_model()
    with pytest.raises(ConfigurationError):
        model.attainable(1.0, 0.0)
    with pytest.raises(ConfigurationError):
        model.attainable(math.nan, 1.0)
    with pytest.raises(ConfigurationError):
        model.attainable(1.0, math.nan)


# -- rendering ------------------------------------------------------------------------


def test_render_roofline_contains_roof_and_points():
    model = tx1_model()
    points = [
        RooflinePoint("hpl", 5.0, 40.0, gflops(8), model),
        RooflinePoint("jacobi", 1.0, 500.0, gflops(2), model),
    ]
    art = render_roofline_ascii(model, points)
    assert "/" in art and "-" in art  # slanted memory roof + flat compute roof
    assert "H = hpl" in art
    assert "J = jacobi" in art
    assert "limit=" in art


def test_render_table2_rows():
    model10, model1 = tx1_model("10G"), tx1_model("1G")
    table = render_table2(
        {
            "10G": [RooflinePoint("hpl", 5.0, 40.0, gflops(8), model10)],
            "1G": [RooflinePoint("hpl", 5.0, 40.0, gflops(3), model1)],
        }
    )
    lines = table.splitlines()
    assert len(lines) == 3
    assert "hpl" in lines[1] and "hpl" in lines[2]
    assert "network" in lines[0]
