"""E1 -- Figure 1: area, delay, and gate count of 2-sort(B), ours vs [2].

Figure 1 plots the same quantities as Table 7 restricted to the two MC
designs, as three bar groups over B ∈ {2, 4, 8, 16}.  This bench
regenerates the three data series and checks the improvement factors
the paper highlights (abstract: up to 71.58% area / 48.46% delay at
B = 16 for the sorting networks; at the 2-sort level the gate-count
ratio reaches ~3.3x).
"""

import pytest

from repro.analysis.compare import PAPER_WIDTHS, measure_two_sort
from repro.analysis.published import TABLE7, improvement_pct
from repro.analysis.tables import render_table


def _series():
    data = {}
    for design in ("this-paper", "date17"):
        data[design] = {w: measure_two_sort(design, w).measured for w in PAPER_WIDTHS}
    return data


def test_figure1(benchmark, emit):
    data = benchmark.pedantic(_series, rounds=1, iterations=1)

    rows = []
    for width in PAPER_WIDTHS:
        ours, theirs = data["this-paper"][width], data["date17"][width]
        rows.append(
            [
                f"B={width}",
                ours.gate_count, theirs.gate_count,
                f"{theirs.gate_count / ours.gate_count:.2f}x",
                f"{ours.area_um2:.1f}", f"{theirs.area_um2:.1f}",
                f"{improvement_pct(ours.area_um2, theirs.area_um2):.1f}%",
                f"{ours.delay_ps:.0f}", f"{theirs.delay_ps:.0f}",
                f"{improvement_pct(ours.delay_ps, theirs.delay_ps):.1f}%",
            ]
        )
    emit(
        "figure1",
        render_table(
            ["B", "#g ours", "#g [2]", "ratio",
             "area ours", "area [2]", "saved",
             "delay ours", "delay [2]", "saved"],
            rows,
            title="Figure 1 -- 2-sort(B) scaling: this paper vs [2]",
        ),
    )

    # Shape assertions: improvements grow with B and are large at B=16.
    area_saved = [
        improvement_pct(
            data["this-paper"][w].area_um2, data["date17"][w].area_um2
        )
        for w in PAPER_WIDTHS
    ]
    assert area_saved[-1] > 60.0
    gate_ratio_16 = (
        data["date17"][16].gate_count / data["this-paper"][16].gate_count
    )
    published_ratio_16 = (
        TABLE7["date17"][16].gates / TABLE7["this-paper"][16].gates
    )
    # our reconstruction's ratio within 15% of the published 3.30x
    assert abs(gate_ratio_16 - published_ratio_16) / published_ratio_16 < 0.15
    # Delay improvement direction holds but is smaller than the paper's
    # 34.7% at the 2-sort level: our [2] reconstruction is *faster* than
    # the real DATE'17 netlists (depth 25 vs an implied ~38 levels), so
    # it under-states the paper's win.  See the README's
    # "Substitutions" section.
    delay_saved_16 = improvement_pct(
        data["this-paper"][16].delay_ps, data["date17"][16].delay_ps
    )
    assert delay_saved_16 > 12.0
