"""E3 -- Table 8: full sorting networks, n ∈ {4, 7, 10#, 10d}, B ∈ {2..16}.

Regenerates all 48 cells of the paper's Table 8 (4 networks x 4 widths
x 3 designs): gate count, area, delay -- measured on flattened netlists
-- next to the published values.  Reproduction criteria:

* "here" gate counts and areas exact (they factorise as
  size(network) x 2-sort(B) cost);
* orderings preserved: here < [2] everywhere, Bin-comp smallest;
* 10-sortd faster but larger than 10-sort# within each (design, B);
* the abstract's headline: ~48%/~72% delay/area improvement over [2]
  at 10 channels, B = 16 (delay in shape, area near-exact).
"""

import pytest

from repro.analysis.compare import measure_network
from repro.analysis.published import NETWORK_SIZES, TABLE7, TABLE8, improvement_pct
from repro.analysis.tables import render_grouped, render_table

WIDTHS = (2, 4, 8, 16)
NETWORKS = ("4-sort", "7-sort", "10-sort#", "10-sortd")
DESIGNS = ("this-paper", "date17", "bincomp")


def _measure_all():
    return {
        (design, label, width): measure_network(design, label, width)
        for width in WIDTHS
        for label in NETWORKS
        for design in DESIGNS
    }


@pytest.fixture(scope="module")
def measurements():
    return _measure_all()


def test_table8(benchmark, emit, measurements):
    benchmark.pedantic(lambda: measure_network("this-paper", "4-sort", 2),
                       rounds=1, iterations=1)
    groups = []
    for width in WIDTHS:
        rows = []
        for label in NETWORKS:
            for design in DESIGNS:
                row = measurements[(design, label, width)]
                p = row.published
                rows.append(
                    [
                        label, design,
                        row.measured.gate_count,
                        f"{row.measured.area_um2:.1f}",
                        f"{row.measured.delay_ps:.0f}",
                        p.gates, f"{p.area_um2:.1f}", f"{p.delay_ps:.0f}",
                    ]
                )
        groups.append(
            (
                f"B = {width}",
                render_table(
                    ["network", "design", "#gates", "area", "delay",
                     "paper #g", "paper area", "paper delay"],
                    rows,
                ),
            )
        )
    emit("table8", render_grouped(
        "Table 8 -- n-channel MC sorting networks: measured vs published",
        groups,
    ))


def test_table8_exact_gate_counts(measurements):
    """'here' rows: gates exact, area within 0.2% of Table 8."""
    for width in WIDTHS:
        for label in NETWORKS:
            row = measurements[("this-paper", label, width)]
            assert row.measured.gate_count == TABLE8["this-paper"][label][width].gates
            assert abs(row.area_deviation_pct) < 0.2, (label, width)


def test_table8_factorisation(measurements):
    """Network cost = comparator count x 2-sort cost (structural check)."""
    for width in WIDTHS:
        for label in NETWORKS:
            row = measurements[("this-paper", label, width)]
            assert (
                row.measured.gate_count
                == NETWORK_SIZES[label] * TABLE7["this-paper"][width].gates
            )


def test_table8_orderings(measurements):
    """Who-beats-whom, per cell group -- the table's qualitative story."""
    for width in WIDTHS:
        for label in NETWORKS:
            ours = measurements[("this-paper", label, width)].measured
            theirs = measurements[("date17", label, width)].measured
            binary = measurements[("bincomp", label, width)].measured
            assert binary.gate_count < ours.gate_count < theirs.gate_count
            # Bin-comp area at B = 2 exceeds ours due to its MUX2/XNOR2
            # cell mix (same caveat as Table 7; see the README's
            # "Substitutions" section).
            if width >= 4:
                assert binary.area_um2 < ours.area_um2
            assert ours.area_um2 < theirs.area_um2
            assert ours.delay_ps < theirs.delay_ps


def test_table8_depth_vs_size_tradeoff(measurements):
    """10-sortd is faster but larger than 10-sort# (both MC designs)."""
    for width in WIDTHS:
        for design in ("this-paper", "date17"):
            size_opt = measurements[(design, "10-sort#", width)].measured
            depth_opt = measurements[(design, "10-sortd", width)].measured
            assert depth_opt.delay_ps < size_opt.delay_ps, (design, width)
            assert depth_opt.gate_count > size_opt.gate_count


def test_headline_improvements(measurements, emit):
    """Abstract: 48.46% delay and 71.58% area improvement over [2]
    (10 channels, B = 16, depth-optimal network)."""
    ours = measurements[("this-paper", "10-sortd", 16)].measured
    theirs = measurements[("date17", "10-sortd", 16)].measured
    delay_saved = improvement_pct(ours.delay_ps, theirs.delay_ps)
    area_saved = improvement_pct(ours.area_um2, theirs.area_um2)
    emit(
        "headline",
        f"Headline (10-sortd, B=16) vs [2]-reconstruction:\n"
        f"  delay saved: {delay_saved:.2f}%   (paper: 48.46%)\n"
        f"  area  saved: {area_saved:.2f}%   (paper: 71.58%)",
    )
    # The area headline reproduces almost exactly; the delay improvement
    # has the right sign but is under-stated because our [2]
    # reconstruction is faster than the genuine DATE'17 netlists
    # (see the README's "Substitutions" section).
    assert delay_saved > 12.0
    assert area_saved > 60.0
