"""Scenario verdicts and detail lines pinned to recorded SHA-256 digests.

Each digest is of the scenario's verdict and its detail lines, one per
line, with the ``runtime:`` lines dropped, as the engine produced them
before the scenarios' samples were evaluated in batches across points.
Every residual a detail line prints is therefore checked against that
engine, digit for digit, and not only against another run of the current
code.

A detail line prints three digits of a maximum, so it cannot see one entry
drift.  ``RESIDUALS`` pins each list of residuals a scenario folds with
``scenarios.worst`` -- every finite-difference error of
derivative-soundness, every relative spray difference of
spray-cross-validation, and so on -- by its length and the SHA-256 of its
float64 bytes, as the engine produced them before the oracles evaluated
their samples in batches.
"""

import hashlib

import numpy as np
import pytest

from finslerlab import core, scenarios


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


RESIDUALS = {
    "scenario_rotational_family_curvature": [
        (10, "c56b0fc302b8f83e0e33307e596e960879debfcba356046312d5a7bd06177b35"),
        (10, "cafd0b7076f9165577c13ec35840315b782c66b3d1262df120465176e2580b33"),
    ],
    "scenario_family_curvature_consistency": [
        (84, "f9b92d94f534b03555003ae79a473bee3054fae10833d514de887f2111cb7d6a"),
    ],
    "scenario_spray_cross_validation": [
        (100, "5000bb8b01163a4cbf6b67fc8a4631e1ff83c683fa3b424a9a95d936c3d8844c"),
        (100, "edd3efb726e731682b5b5794652077b803b469a328ca7bf2466d16d51a0847e6"),
        (100, "f533edd0d72f818a719879347e5a5567136636092f0597a81b7fcf2c8e29b02f"),
        (100, "c142ead6329bd4ea9ff745b3364bfbf7d9ca7b8a82c68dd419d30a09d3d76d0b"),
        (100, "2c187af54bcaf27d651875d041e8ce0b67813954e72dde2c943e274b25bce7a8"),
    ],
    "scenario_randers_ricci_formula": [
        (50, "9ee6068d977ac616528d430206b5e96c5aedb3611299427ee17c1e743aa58d56"),
        (10, "91a245ec400c00b411618fb2e641ce80f74cf036efb043decc8b0221599e9127"),
        (10, "a358fa45f85eda45e7293caf7be2eef730ba911d0573e77b94e10c4dd9f87241"),
    ],
    "scenario_covariant_identity_suite": [
        (80, "3c67a7b2bf663ea5b747e5d9a6f37009ec6c0c92f6f8ce1df1fac65c2aaa51de"),
    ],
    "scenario_positivity_criterion": [],
    "scenario_flat_parallel_family": [
        (250, "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8"),
        (250, "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8"),
    ],
    "scenario_non_einstein_rejection": [],
    "scenario_killing_rescale": [
        (10, "77050ae8671eb3170b6d15aae5ccde7d994abde44ff26fd61b4afbd35fb48849"),
        (10, "1b085a4a60cfa305d3749c96eb82552b351b86586187a4bbc0b630d5492ffc81"),
    ],
    "scenario_derivative_soundness": [
        (6900, "7256df8a7d76372c7241903ebdd518168756063bf27fa61656c3e39310fca8f0"),
        (2800, "37d9457326b2982d19bf7de7aa7692ddb1f295cd72f849a8cc6cdfe199fcf0ff"),
    ],
}


@pytest.fixture(scope="module", params=scenarios.SCENARIOS,
                ids=[fn.__name__ for fn in scenarios.SCENARIOS])
def ran(request):
    """``(name, result, residual lists)`` of one scenario run, the lists
    in the order the scenario folds them with ``scenarios.worst``."""
    folded = []

    def recording(values):
        values = list(values)
        folded.append(values)
        return core.worst(values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "worst", recording)
        result = request.param()
    return request.param.__name__, result, folded


def test_scenario_lines_match_the_recorded_digest(ran):
    name, result, _ = ran
    assert scenario_digest(result) == GOLDEN[name]


def test_every_residual_matches_the_recorded_digest(ran):
    name, _, folded = ran
    assert [(len(values),
             hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest())
            for values in folded] == RESIDUALS[name]
