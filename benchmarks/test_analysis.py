"""Static-analysis benchmark: lint wall-time per shipped model.

The lint gate runs before every campaign when ``lint_model=True``, so its
cost must stay negligible next to packet generation (Table 3's dominant
stage).  This benchmark records per-program structural and semantic (SMT)
pass times; the semantic stage dominates because it symbolically walks the
pipeline once per parser profile in two entry-state modes.

Scale-independent: the analyzer's input is the model, not the workload.
"""

from conftest import print_table

from repro.analysis import analyze_program
from repro.p4.programs import (
    build_cerberus_program,
    build_tor_program,
    build_toy_program,
    build_wan_program,
)

PROGRAMS = [
    ("toy_router", build_toy_program),
    ("sai_tor", build_tor_program),
    ("sai_wan", build_wan_program),
    ("cerberus", build_cerberus_program),
]


def test_analyzer_wall_time_smoke():
    rows = []
    for name, build in PROGRAMS:
        report = analyze_program(build())
        assert report.semantic_ran
        assert not report.diagnostics, [repr(d) for d in report.diagnostics]
        rows.append(
            (
                name,
                f"{report.structural_seconds * 1e3:.1f}",
                f"{report.semantic_seconds * 1e3:.1f}",
                f"{(report.structural_seconds + report.semantic_seconds) * 1e3:.1f}",
            )
        )
        # The gate must stay cheap: a full lint of any shipped model is
        # well under the cost of a single fuzz batch (seconds).
        assert report.structural_seconds + report.semantic_seconds < 10.0

    print_table(
        "Model lint wall-time (ms)",
        ("program", "structural", "semantic (SMT)", "total"),
        rows,
    )

