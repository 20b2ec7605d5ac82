"""Scenario verdicts and detail lines pinned to recorded SHA-256 digests.

Each digest is of the scenario's verdict and its detail lines, one per
line, with the ``runtime:`` lines dropped, as the engine produced them
before the scenarios' samples were evaluated in batches across points.
Every residual a detail line prints is therefore checked against that
engine, digit for digit, and not only against another run of the current
code.
"""

import hashlib

import pytest

from finslerlab import scenarios


def scenario_digest(result):
    """SHA-256 of the verdict and the detail lines, ``runtime:`` lines out."""
    lines = [str(result.passed)]
    lines += [line for line in result.details
              if not line.startswith("runtime:")]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


GOLDEN = {
    "scenario_rotational_family_curvature":
        "2d1b9e8e1e0ec0220f7de4a0ee20a02e42c3bf2386998a3e5da27ab685f0b8b6",
    "scenario_family_curvature_consistency":
        "335d0cc8c65b33818df64aaf0f2f8ac814ff0a20fabd5dfdb6222cfd6f238374",
    "scenario_spray_cross_validation":
        "aad57b4481723e72c91beedd0d4228cb4d974e10624a3c566e9f4dc5ef683f43",
    "scenario_randers_ricci_formula":
        "b5ea71118ebf1c507a163f6d46eb273167c1b3fcca2f1f05eb591425ee23b6d2",
    "scenario_covariant_identity_suite":
        "4f289d5e1753eff16d38d037b7da34bd03731efb5702cf9c651914c797f932d8",
    "scenario_positivity_criterion":
        "985b1119c0f1671895e9fd6de2c6db945075df87898ed70fecec6949eb2b3992",
    "scenario_flat_parallel_family":
        "c12a51d7301d0fa9801e2144800898f52f03806360b5f9f12d6b250bc8dc5940",
    "scenario_non_einstein_rejection":
        "2f7ef03ba2b68b5a7e10b25622e61d89af4dd496b993193a16984aafaf59c2d2",
    "scenario_killing_rescale":
        "89e1d478c5c210e4b781c79f9bbcf93b80770133918cd641d6c28d3804063bd2",
    "scenario_derivative_soundness":
        "8ca987efa2bfd1707b56852c6427dfe23854ed73313cc21447a99c5aeec84360",
}


@pytest.mark.parametrize("fn", scenarios.SCENARIOS,
                         ids=[fn.__name__ for fn in scenarios.SCENARIOS])
def test_scenario_lines_match_the_recorded_digest(fn):
    assert scenario_digest(fn()) == GOLDEN[fn.__name__]
