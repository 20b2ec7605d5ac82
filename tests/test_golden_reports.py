"""Report bytes pinned to recorded SHA-256 digests.

The digests are of ``report.json_dumps(runner.run(manifest))`` as the
engine produced them before the Einstein scalars of a point's directions
were evaluated in one batch.  Any engine change that alters one bit of a
report -- a sample value, a residual, a skip text -- changes a digest, so
bit identity with that engine is checked here, not only by comparing runs
of the current code with each other.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from finslerlab import report, runner
from finslerlab.manifest import load_manifest, validate_manifest

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def funk_manifest(dim, seed):
    """The Funk-ball Randers manifest of the unit ball in R^dim at three
    seed-drawn points with |x| <= 0.5, 16 directions each."""
    rng = random.Random(seed)
    xs = [f"x{i + 1}" for i in range(dim)]
    den = "(1-" + "-".join(f"{x}^2" for x in xs) + ")"
    a = [[(f"(1-" + "-".join(f"{x}^2" for x in xs if x != xi) + f")/{den}^2")
          if xi == xj else f"{xi}*{xj}/{den}^2" for xj in xs] for xi in xs]
    points = []
    for _ in range(3):
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        scale = 0.5 * rng.random() / sum(c * c for c in v) ** 0.5
        points.append([c * scale for c in v])
    return validate_manifest({
        "dimension": dim,
        "metric": {"kind": "ppower", "a": a,
                   "b": [f"{xi}/{den}" for xi in xs], "p": 1.0},
        "samples": {"points": points, "direction_count": 16},
        "checks": ["einstein", "reversibility", "randers_conditions",
                   "structural_vs_generic", "ricci_identities"],
        "tolerances": {"reversibility": 1e-7},
    })


def sphere_manifest():
    """The round sphere a_ij = 4 delta_ij / (1 + |x|^2)^2 in 2-D as a
    ``riemann`` manifest, with three fixed and three seed-drawn points:
    lambda = 1 everywhere, and the ``ricci_flat_parallel`` check fails."""
    a = "4/(1+x1^2+x2^2)^2"
    return validate_manifest({
        "dimension": 2,
        "metric": {"kind": "riemann", "a": [[a, "0"], ["0", a]]},
        "samples": {"points": [[0.2, 0.3], [-0.4, 0.1], [0.0, -0.6]],
                    "random_points": 3, "seed": 5, "direction_count": 16},
        "checks": ["einstein", "reversibility", "flag_curvature",
                   "ricci_identities", "ricci_flat_parallel"],
        "tolerances": {},
    })


def bundled(name, seed=None):
    """A bundled manifest, with its random points drawn from ``seed``."""
    def make():
        if seed is None:
            return load_manifest(MANIFESTS / f"{name}.json")
        doc = json.loads((MANIFESTS / f"{name}.json").read_text())
        doc["samples"]["seed"] = seed
        return validate_manifest(doc)
    return make


GOLDEN = [
    ("rotational_family", bundled("rotational_family"),
     "98b251faf8bf33725938f91b2da15aca263675ade1bd98168e924b937d8121c9"),
    ("funk_ball", bundled("funk_ball"),
     "d7c6f25476385d4bf119d4c71486e53f8aff37849cbd6646a00015274dd3f28b"),
    ("non_einstein_control", bundled("non_einstein_control"),
     "3eda9e7489688e4f4292332f993b063783c7b58d88bbbbd53cae797dd3cb1d9a"),
    ("rotational_family_seed3", bundled("rotational_family", 3),
     "6a7c2153ff345c67cab97625fb049def843ac76fda9eb1b36efec83e2dd70aa3"),
    ("funk_ball_seed3", bundled("funk_ball", 3),
     "36f381222d46f9e0c70596878868409a7bc6d94e8189ddda747ae1d03671b06e"),
    ("funk_3d_seed7", lambda: funk_manifest(3, 7),
     "9daf8b4e76eb6b1eaffbae1ed37ee52612437884e0bbf4a83c95c87efac7d023"),
    ("funk_4d_seed5", lambda: funk_manifest(4, 5),
     "e09120ffb6336c56b4ae5fa3204190b534c837dd7ba57dc7faf53be002fd536b"),
    ("funk_4d_seed11", lambda: funk_manifest(4, 11),
     "72cdcadc5aa06d58b8ad05deeb061c5af957ee622e89468d86d086f8f4fd1862"),
    ("riemann_sphere", sphere_manifest,
     "cd048c4cc27c6b5e4d866b9072f515271f808a2333faf2ffde55393b097d40f3"),
]


@pytest.mark.parametrize("name,make,digest", GOLDEN,
                         ids=[name for name, _, _ in GOLDEN])
def test_report_bytes_match_the_recorded_digest(name, make, digest):
    text = report.json_dumps(runner.run(make())).encode("utf-8")
    assert hashlib.sha256(text).hexdigest() == digest
