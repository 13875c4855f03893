"""Quick-mode integration checks for the matrix-based experiments."""

import pytest

from repro.config import RunConfig
from repro.experiments.runner import run_experiment

QUICK = RunConfig(quick=True)


@pytest.fixture(scope="module")
def fig5():
    return run_experiment("fig5", QUICK)


@pytest.fixture(scope="module")
def fig8():
    return run_experiment("fig8", QUICK)


def test_fig5_structure(fig5):
    # quick mode: 2 apps x 1 config x 3 techniques.
    assert len(fig5.rows) == 6
    techniques = {row[2] for row in fig5.rows}
    assert techniques == {"proc", "spml", "epml"}
    for row in fig5.rows:
        assert int(row[3]) >= 1  # at least one GC cycle everywhere


def test_fig6_reuses_fig5_matrix_cache(fig5):
    import time

    t0 = time.time()
    out = run_experiment("fig6", QUICK)
    assert time.time() - t0 < 5.0  # cache hit, no re-simulation
    assert len(out.rows) == 6


def test_fig7_fig9_share_criu_matrix(fig8):
    out7 = run_experiment("fig7", QUICK)
    out9 = run_experiment("fig9", QUICK)
    apps7 = {row[0] for row in out7.rows}
    apps9 = {row[0] for row in out9.rows}
    assert apps7 == apps9 == {"baby", "histogram"}


def test_fig8_md_mw_sum_below_total(fig8):
    for app, tech, md, mw, total in fig8.rows:
        md_v = float(str(md).replace(",", ""))
        mw_v = float(str(mw).replace(",", ""))
        total_v = float(str(total).replace(",", ""))
        assert md_v + mw_v <= total_v + 1e-6


def test_fig10_11_quick_structure():
    out = run_experiment("fig10_11", QUICK)
    assert len(out.rows) == 10  # 5 VM counts x 2 techniques
    assert [row[0] for row in out.rows] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
