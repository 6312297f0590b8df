import json

import numpy as np

from face_induction_oracle import replaced
from freep.cli import main
from freep.cubes import CubeComplex
from freep.retraction import build_context, estimate_lipschitz, retract


def max_weight_diff(a, b) -> float:
    """The largest |a(i) - b(i)| over the points of the free elements a and
    b; elements over different hosts raise."""
    if a.host is not b.host:
        raise ValueError("elements live over different hosts")
    keys = a.weights.keys() | b.weights.keys()
    return max((abs(a.weights.get(i, 0.0) - b.weights.get(i, 0.0)) for i in keys), default=0.0)


def test_coordinate_helpers():
    x = (0.25, 0.5, 0.75)
    assert replaced(x, 2, 0.0) == (0.25, 0.5, 0.0)


def test_negative_offsets_and_fractional_scale():
    cx = CubeComplex(d=2, R=0.5, offsets=((-1, 0), (0, 0)))
    ctx = build_context(cx)
    m = retract(ctx, np.array([-0.2, 0.3]))
    assert m.weights and all(0 < w < 1 for w in m.weights.values())


def test_harness_report_is_deterministic():
    cx = CubeComplex(d=2, R=1.0, offsets=((0, 0), (1, 0)))
    ctx = build_context(cx)
    assert estimate_lipschitz(ctx, 0.5, 25, 3) == estimate_lipschitz(ctx, 0.5, 25, 3)


def test_cli_seeded_report_bytes_are_stable(capsys, tmp_path):
    args = [
        "--command", "retraction-verify", "--d", "1", "--p", "0.5",
        "--seed", "9", "--samples", "30",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
