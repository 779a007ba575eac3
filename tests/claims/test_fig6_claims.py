"""EXPERIMENTS.md, Fig. 6: one test per claim row, at the printed precision."""

import pytest

from repro.analysis.report import fig6


@pytest.fixture(scope="module")
def utilization(paper_pipeline):
    """% utilization keyed by (partners P, messages M, sleep cycles B)."""
    return {
        (obs.config.partners, obs.config.messages, obs.config.sleep_cycles): (
            obs.utilization * 100
        )
        for obs in fig6(paper_pipeline)[0]
    }


def series(utilization, vary):
    """Utilization along axis ``vary`` (0=P, 1=M, 2=B), per fixed other two."""
    out = {}
    for key in sorted(utilization, key=lambda key: key[vary]):
        fixed = tuple(value for axis, value in enumerate(key) if axis != vary)
        out.setdefault(fixed, []).append(utilization[key])
    return out


def test_catalog_covers_a_broad_range(utilization):
    assert len(utilization) == 40
    assert f"{min(utilization.values()):.1f}" == "0.3"
    assert f"{max(utilization.values()):.1f}" == "93.5"


def test_utilization_falls_with_sleep_at_every_p_m(utilization):
    for (p, m), values in series(utilization, vary=2).items():
        assert all(a >= b for a, b in zip(values, values[1:])), (p, m, values)


def test_utilization_rises_with_partners_at_every_b_m(utilization):
    for (m, b), values in series(utilization, vary=0).items():
        assert all(a <= b for a, b in zip(values, values[1:])), (m, b, values)
    assert f"{utilization[(1, 1, 2.5e7)]:.1f}" == "0.3"
    assert f"{utilization[(17, 1, 2.5e7)]:.0f}" == "26"
    assert f"{utilization[(1, 1, 2.5e4)]:.0f}" == "84"
    assert f"{utilization[(17, 1, 2.5e4)]:.0f}" == "93"


def test_utilization_rises_with_messages_except_the_saturated_corner(utilization):
    gains = {
        (p, b): values[1] - values[0]
        for (p, b), values in series(utilization, vary=1).items()
    }
    dips = {key: gain for key, gain in gains.items() if gain < 0}
    assert sorted(dips) == [(14, 2.5e4), (17, 2.5e4)]
    assert [f"{-gain:.1f}" for _, gain in sorted(dips.items())] == ["0.2", "0.3"]
    # Like P, M matters most at long sleeps.
    long_sleep = [gain for (p, b), gain in gains.items() if b == 2.5e7]
    short_sleep = [gain for (p, b), gain in gains.items() if b == 2.5e4]
    assert f"{min(long_sleep):.0f}" == "16" and f"{max(long_sleep):.0f}" == "46"
    assert f"{max(short_sleep):.0f}" == "7"


def test_heaviest_configs_top_out_below_saturation(utilization):
    top = max(utilization.values())
    assert 92.0 <= top <= 94.0
    assert f"{top:.1f}" == "93.5"
