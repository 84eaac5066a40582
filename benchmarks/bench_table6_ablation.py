"""Table 6 — ablation study over PURPLE (ChatGPT profile).

Regenerates: full pipeline, −Schema Pruning, −Steiner Tree (RESDSQL-style
pruning), −Demonstration Selection (random demos), −Database Adaption,
and +Oracle Skeleton.  The τ_p sweep lives in ``bench_fig12_robustness.py``.
"""

import pytest

from benchmarks.common import PAPER_TABLE6, pct, print_table
from repro.llm import CHATGPT

ABLATIONS = (
    ("PURPLE (ChatGPT)", {}),
    ("-Schema Pruning", {"use_pruning": False}),
    ("-Steiner Tree", {"use_steiner": False}),
    ("-Demonstration Selection", {"use_selection": False}),
    ("-Database Adaption", {"use_adaption": False}),
    ("+Oracle Skeleton", {}),  # handled specially below
)


@pytest.fixture(scope="session")
def table6_reports(zoo, reports, corpus):
    out = {}
    for name, overrides in ABLATIONS:
        if name == "+Oracle Skeleton":
            pipeline = zoo.purple(CHATGPT, seed=1)  # distinct cache key
            pipeline.set_oracle_skeletons(corpus.dev)
            out[name] = reports.report("table6/oracle", pipeline)
            pipeline.oracle_skeletons = {}
        elif not overrides:
            out[name] = reports.report(
                "table4/PURPLE (ChatGPT)", zoo.purple(CHATGPT), with_ts=True
            )
        else:
            out[name] = reports.report(
                f"table6/{name}", zoo.purple(CHATGPT, **overrides)
            )
    return out


def test_table6_ablation(benchmark, table6_reports, record):
    base = table6_reports["PURPLE (ChatGPT)"]

    def run():
        rows = []
        for name, _ in ABLATIONS:
            rep = table6_reports[name]
            em, ex = rep.em, rep.ex
            if name == "PURPLE (ChatGPT)":
                rows.append((name, pct(em), pct(ex), "/".join(
                    map(str, PAPER_TABLE6[name]))))
            else:
                rows.append(
                    (
                        name,
                        f"{pct(em)} ({pct(em - base.em)})",
                        f"{pct(ex)} ({pct(ex - base.ex)})",
                        "/".join(map(str, PAPER_TABLE6[name])),
                    )
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Table 6 — ablation study (measured | paper EM/EX)",
        ["Strategy", "EM%", "EX%", "paper"],
        rows,
    )
    record(
        "table6",
        {n: [table6_reports[n].em, table6_reports[n].ex] for n, _ in ABLATIONS},
    )

    r = table6_reports
    # Demonstration selection is by far the biggest EM contributor
    # (paper: -17.0 EM, the largest drop).
    drops = {
        name: base.em - r[name].em
        for name, _ in ABLATIONS
        if name.startswith("-")
    }
    assert drops["-Demonstration Selection"] == max(drops.values())
    assert drops["-Demonstration Selection"] > 0.05

    # Every removed module costs EM (all paper deltas are negative).
    for name, drop in drops.items():
        assert drop > -0.02, name

    # Adaption is mainly an EX mechanism (paper: -3.0 EX vs -1.4 EM).
    adaption_ex_drop = base.ex - r["-Database Adaption"].ex
    assert adaption_ex_drop > 0.01

    # The oracle skeleton helps (paper: +2.7 EM / +2.0 EX).
    assert r["+Oracle Skeleton"].em >= base.em
    assert r["+Oracle Skeleton"].ex >= base.ex - 0.01
