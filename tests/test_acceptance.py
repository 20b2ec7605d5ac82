"""Acceptance gate: every bundled verification scenario at its stated
tolerance, one test per criterion, with a printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the residual tables,
or ``finslerlab verify-paper`` for the same rows from the CLI.
"""

from finslerlab import scenarios


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] {result.anchor}: {result.description}")
    for line in result.details:
        print(f"    {line}")
    assert result.passed, f"{result.anchor}: " + " | ".join(result.details)


def test_criterion_1_rotational_family_curvature():
    _report(scenarios.scenario_rotational_family_curvature())


def test_criterion_2_family_curvature_consistency():
    _report(scenarios.scenario_family_curvature_consistency())


def test_criterion_3_spray_cross_validation():
    _report(scenarios.scenario_spray_cross_validation())


def test_criterion_4_randers_ricci_formula():
    _report(scenarios.scenario_randers_ricci_formula())


def test_criterion_5_covariant_identity_suite():
    _report(scenarios.scenario_covariant_identity_suite())


def test_criterion_6_positivity_criterion():
    # The closed-form positivity case split must agree with sampling the
    # three convexity inequalities at 201 slopes on all 60 (p, b^2) pairs,
    # which straddle each case boundary; any divergent pair is listed in
    # the failure output.  See the constructions test suite for each route
    # checked against the fundamental tensor's eigenvalues.
    _report(scenarios.scenario_positivity_criterion())


def test_criterion_7_flat_parallel_family():
    _report(scenarios.scenario_flat_parallel_family())


def test_criterion_8_non_einstein_rejection():
    _report(scenarios.scenario_non_einstein_rejection())


def test_criterion_9_killing_rescale():
    _report(scenarios.scenario_killing_rescale())


def test_criterion_10_derivative_soundness():
    _report(scenarios.scenario_derivative_soundness())


def test_scenario_registry_complete():
    results = scenarios.run_scenarios()
    assert len(results) == 10
    anchors = [r.anchor for r in results]
    assert len(set(anchors)) == 10
    assert all(type(r.passed) is bool for r in results)
