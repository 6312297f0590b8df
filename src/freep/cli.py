"""Batch verification front door.

One JSON report per run; exit status 0 only when every certified check in
the run passed, 1 when a check failed (the first violated invariant is
named on stderr), 2 on unusable configuration, input files or report file.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import constants, cubes, dyadic, freenorm, metric, retraction
from .constants import EVAL_TOL
from .reportio import report_json

# the numeric flags: float for a real number, or the least value of a count
_NUMBERS = {"p": float, "alpha": float, "d": 1, "kmax": 1, "R": float, "seed": 0, "samples": 0}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freep",
        description="certified free p-norm, retraction, and dyadic-basis checks",
    )
    ap.add_argument("--command", choices=_DISPATCH)
    ap.add_argument("--config", help="JSON file with default flag values")
    for name, kind in _NUMBERS.items():
        ap.add_argument(f"--{name}", type=float if kind is float else int)
    ap.add_argument("--in", dest="inputs", action="append", default=None,
                    help="input file; repeat for commands taking two inputs")
    ap.add_argument("--out", help="report file (stdout when omitted)")
    return ap


def _merge_config(args) -> dict:
    # in the order of the parser, which the beyond-range message keeps
    cfg = {key: val for key, val in vars(args).items() if key != "config"}
    if args.config:
        import json

        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as e:
            raise ValueError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        alias = {"in": "inputs"}
        for key, val in raw.items():
            key = alias.get(key, key)
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            if cfg[key] is None:
                cfg[key] = val
    if cfg["command"] not in _DISPATCH:
        raise ValueError("--command is required (or must be set in the config file)")
    # a config file can hold any JSON value, and JSON true is an int to Python
    for name, kind in _NUMBERS.items():
        val = cfg[name]
        if val is None:
            continue
        if kind is not float:
            constants.check_count(f"--{name}", val, kind)
        elif isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"--{name} must be a real number, got {val!r}")
        elif isinstance(val, int) and not -sys.float_info.max <= val <= sys.float_info.max:
            # a JSON integer has no size limit: do not echo hundreds of digits
            raise ValueError(
                f"--{name} must be a real number, got an integer beyond the double range")
    if cfg["p"] is not None:
        try:
            constants.check_p(cfg["p"])
        except ValueError as e:
            raise ValueError(f"--p: {e}") from None
    inputs = cfg["inputs"]
    if inputs is not None and (
        not isinstance(inputs, list) or not all(isinstance(f, str) for f in inputs)
    ):
        raise ValueError(f"--in must be a list of strings, got {inputs!r}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ValueError(f"--out must be a string, got {cfg['out']!r}")
    return cfg


def _need(cfg, *names):
    for name in names:
        if cfg[name] is None:
            raise ValueError(f"command {cfg['command']!r} requires --{name}")
    return [cfg[n] for n in names]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read input file {path}: {e}") from None


def _load_space_and_element(cfg):
    inputs = cfg["inputs"] or []
    if len(inputs) != 2:
        raise ValueError(
            f"command {cfg['command']!r} needs two --in files: the point set, then the element"
        )
    points, base = metric.load_points(_read(inputs[0]))
    space = metric.l1_space(points, base)
    elem = freenorm.parse_element(space, _read(inputs[1]))
    return space, elem


def _load_complex(cfg) -> cubes.CubeComplex:
    inputs = cfg["inputs"] or []
    if inputs:
        return cubes.load_complex(_read(inputs[0]))
    (d,) = _need(cfg, "d")
    R = cfg["R"] if cfg["R"] is not None else 1.0
    return cubes.CubeComplex(d=d, R=R, offsets=((0,) * d,))


def _cmd_norm(cfg):
    p, = _need(cfg, "p")
    space, elem = _load_space_and_element(cfg)
    if cfg["alpha"] is not None:
        space = metric.holder_distort(space, cfg["alpha"])
        elem = freenorm.FreeElement(space, elem.weights)
    if p == 1.0:
        value, witness = freenorm.exact_norm_p1(elem)
    else:
        value, witness = freenorm.exact_norm_small(elem, p)
    report = {
        "command": "norm",
        "p": p,
        "alpha": cfg["alpha"],
        "n_points": space.n,
        "norm": value,
        "witness": [[a, mol.x, mol.y] for a, mol in witness.terms],
    }
    return report, []


def _cmd_retraction_verify(cfg):
    p, = _need(cfg, "p")
    report = retraction.estimate_lipschitz(
        retraction.build_context(_load_complex(cfg)),
        p,
        cfg["samples"] if cfg["samples"] is not None else 200,
        cfg["seed"] if cfg["seed"] is not None else 0,
    )
    report["command"] = "retraction-verify"
    failures = []
    if report["max_upper_cost_ratio"] > report["theoretical_upper"] * (1 + EVAL_TOL):
        failures.append("decomposition cost ratio exceeds the certified upper constant")
    if report["max_reconstruction_residual"] > EVAL_TOL:
        failures.append("decomposition does not reconstruct the retraction difference")
    lower = report["theoretical_lower"]
    if abs(report["witness_value"] - lower) > lower * EVAL_TOL:
        failures.append("witness value differs from the certified lower constant")
    return report, failures


def _cmd_basis_verify(cfg):
    p, alpha, d, kmax = _need(cfg, "p", "alpha", "d", "kmax")
    report = dyadic.verify_norming(d, alpha, p, kmax)
    report["command"] = "basis-verify"
    failures = []
    if not report["basis_ok"]:
        failures.append("a basis element exceeds the norming bound")
    if report["max_molecule_cost"] > report["molecule_bound"] * (1 + EVAL_TOL):
        failures.append("a molecule decomposition exceeds the certified cost bound")
    if report["max_molecule_residual"] > EVAL_TOL:
        failures.append("a molecule decomposition does not reconstruct its molecule")
    if not report["complete"]:
        failures.append("pair budget exceeded: report incomplete")
    return report, failures


def _cmd_decompose(cfg):
    alpha, = _need(cfg, "alpha")
    space, elem = _load_space_and_element(cfg)
    if any(space.points[space.base]):
        raise ValueError(f"the dyadic basis is pointed at the origin, but the base point "
                         f"{space.base} of {cfg['inputs'][0]} is {space.points[space.base]}")
    weights = {}
    for idx, w in elem.weights.items():
        pt = metric.DyadicPoint.from_fractions(
            [Fraction(float(c)) for c in space.points[idx]]
        )
        weights[pt] = weights.get(pt, 0.0) + w
    # the element is analysed and checked scaled by 2^-e into [1/2, 1) at
    # its largest |weight|, so that no tolerance underflows; the scaling and
    # the exact peel are exact, and coefficients and residual scale back
    e = math.frexp(max(map(abs, weights.values()), default=0.0))[1]
    weights = {pt: math.ldexp(w, -e) for pt, w in weights.items()}
    comb = dyadic.analyze(weights, alpha)
    residual = dyadic.reconstruction_residual(comb, weights, alpha)
    report = {
        "command": "decompose",
        "alpha": alpha,
        "n_terms": len(comb.coeffs),
        "coefficients": [
            {"point": [float(c) for c in v.floats()], "level": v.level, "coeff": math.ldexp(c, e)}
            for v, c in comb.items_sorted()
        ],
        "residual": math.ldexp(residual, e),
    }
    failures = []
    if residual > freenorm.residual_tol(weights):
        failures.append("basis coefficients do not reconstruct the element")
    return report, failures


def _cmd_bm_report(cfg):
    p, alpha, d = _need(cfg, "p", "alpha", "d")
    lower, upper = constants.retraction_bounds(p, d)
    report = {
        "command": "bm-report",
        "p": p,
        "alpha": alpha,
        "d": d,
        "c_const": constants.c_const(p, 2**d),
        "rho": constants.rho(p, alpha),
        "tau": constants.tau(p, alpha, d),
        "retraction_lower": lower,
        "retraction_upper": upper,
        "bm_bound": constants.bm_bound(p, alpha, d),
    }
    return report, []


def _cmd_lambda_check(cfg):
    import numpy as np

    complex = _load_complex(cfg)
    n_samples = cfg["samples"] if cfg["samples"] is not None else 2000
    seed = cfg["seed"] if cfg["seed"] is not None else 0
    rng = np.random.default_rng(seed)
    offsets = np.array(complex.offsets, dtype=float)
    d = complex.d

    X = np.empty((n_samples, d))
    for k in range(n_samples):
        w = offsets[rng.integers(len(offsets))]
        X[k] = complex.R * (w + rng.random(d))
    cube, weights = cubes.vertex_weights(complex, X)
    # summed left to right like the list of nonzero weights (adding a zero
    # weight leaves a float sum unchanged)
    total = np.zeros(n_samples)
    for col in weights.T:
        total = total + col
    max_partition = float(np.abs(total - 1.0).max(initial=0.0))
    # the tensor product again, from the one-dimensional weight per coordinate
    t = np.clip(X / complex.R - cube, 0.0, 1.0)
    max_product = 0.0
    for col, bits in enumerate(cubes.vertex_bits(d)):
        prod = np.ones(n_samples)
        for i, b in enumerate(bits):
            prod = prod * cubes.scalar_coeff(t[:, i], b)
        max_product = max(max_product, float(np.abs(prod - weights[:, col]).max(initial=0.0)))

    verts = np.array(complex.vertices(), dtype=np.int64)
    cube, weights = cubes.vertex_weights(complex, complex.R * verts.astype(float))
    expected = np.zeros_like(weights)
    expected[np.arange(len(verts)), (verts - cube) @ (1 << np.arange(d)[::-1])] = 1.0
    kronecker = bool(np.array_equal(weights, expected))

    report = {
        "command": "lambda-check",
        "d": complex.d,
        "R": complex.R,
        "complex": [list(w) for w in complex.offsets],
        "samples": n_samples,
        "seed": seed,
        "max_partition_deviation": max_partition,
        "kronecker_exact": kronecker,
        "max_product_deviation": max_product,
    }
    failures = []
    if max_partition > 1e-12:
        failures.append("vertex weights do not sum to one within 1e-12")
    if not kronecker:
        failures.append("vertex weights are not exactly Kronecker at vertices")
    if max_product > 1e-14:
        failures.append("multidimensional weight differs from the coordinate product")
    return report, failures


_DISPATCH = {
    "norm": _cmd_norm,
    "retraction-verify": _cmd_retraction_verify,
    "basis-verify": _cmd_basis_verify,
    "decompose": _cmd_decompose,
    "bm-report": _cmd_bm_report,
    "lambda-check": _cmd_lambda_check,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _merge_config(args)
        try:
            report, failures = _DISPATCH[cfg["command"]](cfg)
        except OverflowError:
            flags = " ".join(f"--{k} {v}" for k, v in cfg.items() if isinstance(v, (int, float)))
            advice = "raise --p"
            if cfg["d"] is not None:
                advice += " or lower --d"
            if cfg["alpha"] is not None:
                advice += " or move --alpha away from 0 and 1"
            raise ValueError(f"{flags} take a constant beyond the double range; {advice}") from None
        text = report_json(report)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if cfg["out"]:
        try:
            Path(cfg["out"]).write_text(text)
        except OSError as e:
            print(f"error: cannot write report file {cfg['out']}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if failures:
        print(f"check failed: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
