"""E2 -- Table 7: 2-sort(B) gate count / area / delay, three designs.

Regenerates the paper's Table 7 rows (B ∈ {2, 4, 8, 16} x {this paper,
[2], Bin-comp}) and prints measured values next to the published ones.
Reproduction criteria: "this paper" gate counts and areas exact;
orderings between designs (who is smallest/fastest) preserved.
"""

import pytest

from repro.analysis.compare import PAPER_WIDTHS, table7_rows
from repro.analysis.published import TABLE7
from repro.analysis.tables import render_table

DESIGN_LABEL = {
    "this-paper": "This paper",
    "date17": "[2] (DATE'17, reconstruction)",
    "bincomp": "Bin-comp",
}


def _rows():
    return table7_rows()


def test_table7(benchmark, emit):
    rows = benchmark.pedantic(_rows, rounds=1, iterations=1)

    table_rows = []
    for row in rows:
        design = row.label.split()[0]
        p = row.published
        table_rows.append(
            [
                row.label,
                row.measured.gate_count,
                f"{row.measured.area_um2:.3f}",
                f"{row.measured.delay_ps:.0f}",
                p.gates,
                f"{p.area_um2:.3f}",
                f"{p.delay_ps:.0f}",
            ]
        )
    emit(
        "table7",
        render_table(
            ["circuit", "#gates", "area[µm²]", "delay[ps]",
             "paper #g", "paper area", "paper delay"],
            table_rows,
            title="Table 7 -- 2-sort(B): measured vs published",
        ),
    )

    by_key = {
        (row.label.split()[0], width): row
        for row, width in zip(rows, [w for w in PAPER_WIDTHS for _ in range(3)])
    }
    # 'This paper' gate counts exact; area within 0.2%.
    for width in PAPER_WIDTHS:
        ours = by_key[("this-paper", width)]
        assert ours.measured.gate_count == TABLE7["this-paper"][width].gates
        assert abs(ours.area_deviation_pct) < 0.2
    # Shape: bincomp < this-paper < date17 in gates (all B) and in area
    # (B >= 4; at B = 2 our Bin-comp carries 4 MUX2 + 2 XNOR2 cells,
    # whose area outweighs 13 small cells -- the paper's synthesised
    # 8-gate version was leaner; see the README's "Substitutions"
    # section).
    for width in PAPER_WIDTHS:
        b = by_key[("bincomp", width)].measured
        o = by_key[("this-paper", width)].measured
        d = by_key[("date17", width)].measured
        assert b.gate_count < o.gate_count < d.gate_count
        if width >= 4:
            assert b.area_um2 < o.area_um2 < d.area_um2
        assert o.delay_ps < d.delay_ps
