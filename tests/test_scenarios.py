"""The scenario harness: how a detail row tests its bound, and planted
faults that must fail a scenario and be named in its detail lines."""

import math

import pytest

from finslerlab import alphabeta, constructions, core, scenarios
from finslerlab.errors import DegenerateValue


def test_a_row_prints_the_bound_it_tests():
    assert scenarios._row("20 instances: max identity residual", 1.2e-16,
                          "< 1e-7") == (
        "20 instances: max identity residual 1.200e-16 (< 1e-7)", True)
    assert scenarios._row("flipped sign: max residual", 3.605e-2,
                          "> 1e-4, sensitivity") == (
        "flipped sign: max residual 3.605e-02 (> 1e-4, sensitivity)", True)
    assert scenarios._row("reversibility residual", 0.1037, "> 1e-3",
                          ".4f") == ("reversibility residual 0.1037 (> 1e-3)",
                                     True)


@pytest.mark.parametrize("value, bound", [
    (math.nan, "< 1e-7"),
    (math.nan, "> 1e-4"),
    (math.inf, "> 1e-4, sensitivity"),
    (math.inf, "< 1e-7"),
    (1e-7, "< 1e-7"),
    (1e-4, "> 1e-4, sensitivity"),
    (1e-3, "> 1e-3"),
])
def test_a_row_fails_on_nan_on_inf_above_and_at_its_limit(value, bound):
    assert scenarios._row("residual", value, bound)[1] is False


def test_a_nan_flipped_residual_fails_the_identity_suite(monkeypatch):
    original = alphabeta.ricci_identity_residuals
    calibrated = alphabeta.curvature_term_sign()

    def planted(rd, ab, sign):
        residuals, sign = original(rd, ab, sign)
        if sign == -calibrated:
            residuals = (math.nan, *residuals[1:])
        return residuals, sign

    monkeypatch.setattr(scenarios, "ricci_identity_residuals", planted)
    result = scenarios.scenario_covariant_identity_suite()
    assert result.passed is False
    assert "flipped sign: max residual nan (> 1e-4, sensitivity)" in (
        result.details)


def test_a_rejection_that_evaluated_nothing_fails(monkeypatch):
    # every point's tensor data fails, so the structure residuals fold
    # over nothing, read inf, and must not count as a rejection
    monkeypatch.setattr(
        constructions, "ab_tensor_rows", lambda alpha, beta, points: [
            DegenerateValue("planted") for _ in points])
    result = scenarios.scenario_non_einstein_rejection()
    assert result.passed is False
    assert ("Randers structure equations: verdict False, closedness "
            "residual inf (> 1e-3)") in result.details


def test_a_skipped_direction_fails_and_is_named(monkeypatch):
    original = core.EinsteinTable.spreads

    def planted(self, points):
        spreads, skipped = original(self, points)
        return spreads, skipped + ["x=[0.5, 0.5]: planted skip"]

    monkeypatch.setattr(core.EinsteinTable, "spreads", planted)
    result = scenarios.scenario_rotational_family_curvature()
    assert result.passed is False
    assert "  x=[0.5, 0.5]: planted skip" in result.details
    # every bounded row is in bounds, so the skip must be what fails
    assert "skipped:" in result.details
