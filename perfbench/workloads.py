"""The three workloads: seeded inputs drawn from recorded pools, the
operations run on them, and the checks on every output.

Every input a seed can select lies in a fixed pool whose reference outputs
were recorded at the seed commit (`reference.json`, written by
`record.py`), so any seed is checked against recorded values. The seed
picks the same number of inputs of each kind, so the work of one round
barely depends on the seed. `round_s` is a workload's median unscaled
round time at the seed commit, measured in a slow period of a 2-vCPU
virtual machine; a run does seconds // round_s rounds, so that every run,
of any commit, does the same work.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from freep import cli, dyadic, freenorm, metric

REL_TOL = 1e-9

# exact-norm: queries per round and pool size, by host size
EXACT_PER_ROUND = {3: 30, 4: 40, 5: 36, 6: 20, 7: 4}
EXACT_POOL = {3: 120, 4: 160, 5: 144, 6: 80, 7: 24}
P_MIX = (1.0, 0.8, 0.5, 0.3)
ALPHA_MIX = (0.3, 0.5, 0.7)

# norming: (d, k_max) grids, and the (alpha, p) pool each draws 3 from
NORMING_GRIDS = ((1, 5), (2, 2), (3, 1))
NORMING_POOL = tuple((a, p) for a in ALPHA_MIX for p in (0.4, 0.6, 0.8, 1.0))
NORMING_PER_GRID = 3
PAIR_BUDGET = inspect.signature(dyadic.verify_norming).parameters["pair_budget"].default

# cli-cold: command variants, and the commands of one round in README order
CLI_POOL = 24
CLI_COMMANDS = ("bm-report", "retraction-verify", "basis-verify", "lambda-check",
                "norm", "norm-p1", "decompose")
CLI_NORM_POINTS = 6
CLI_P1_POINTS = 40
CLI_LAMBDA_SAMPLES = 2000  # the command's default
CLI_COMPLEX = "2 1.0\n0 0\n1 0\n0 0\n"  # two unit squares side by side, base at the origin
CLI_COMPLEX_VERTICES = 6


class CheckFailed(Exception):
    """An output differs from its reference or fails a certified check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expect_close(value: float, ref: float, what: str) -> None:
    expect(abs(value - ref) <= REL_TOL * max(abs(value), abs(ref)),
           f"{what} = {value!r} differs from its reference {ref!r}")


# ---------------------------------------------------------------------------
# exact-norm


def exact_query_spec(n: int, i: int) -> dict:
    """Pool entry i of host size n: an l1 host in dimension 1-3, plain or
    Hölder-distorted, an element on a random nonempty support, and p."""
    rng = np.random.default_rng([n, i])
    d = int(rng.integers(1, 4))
    points = (rng.random((n, d)) * 4.0).tolist()
    support = rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)
    weights = {int(j): float(rng.normal()) for j in sorted(support)}
    p = P_MIX[int(rng.integers(len(P_MIX)))]
    alpha = None if rng.random() < 0.5 else ALPHA_MIX[int(rng.integers(len(ALPHA_MIX)))]
    return {"points": points, "weights": weights, "p": p, "alpha": alpha}


def distance_certificate(host) -> freenorm.DualCertificate:
    """The functions x -> d(x, x_j) - d(base, x_j), one per point: each is
    1-Lipschitz and vanishes at the base; every pair is active for all n."""
    D = host.dist
    n = host.n
    F = D - D[host.base][None, :]
    activity = np.broadcast_to(~np.eye(n, dtype=bool), (n, n, n))
    return freenorm.DualCertificate(host, F.T, n, activity)


def exact_query(spec: dict):
    host = metric.l1_space(spec["points"], 0)
    if spec["alpha"] is not None:
        host = metric.holder_distort(host, spec["alpha"])
    m = freenorm.FreeElement(host, spec["weights"])
    return m, spec["p"], distance_certificate(host)


def exact_run(query) -> tuple[float, float]:
    """One certified norm query: the exact p-norm with its witness checked,
    a dual lower bound, and the exact p = 1 value with its witness checked."""
    m, p, cert = query
    value, witness = freenorm.exact_norm_small(m, p)
    upper = freenorm.upper_bound_from(m, p, witness)
    lower = freenorm.dual_lower_bound(m, p, cert)
    value1, witness1 = freenorm.exact_norm_p1(m)
    upper1 = freenorm.upper_bound_from(m, 1.0, witness1)
    expect_close(upper, value, "witness cost")
    expect_close(upper1, value1, "p = 1 witness cost")
    expect(lower <= value * (1 + REL_TOL), f"dual lower bound {lower!r} exceeds the norm {value!r}")
    expect(value1 <= value * (1 + REL_TOL), f"p = 1 norm {value1!r} exceeds the p-norm {value!r}")
    return value, value1


class ExactNorm:
    name = "exact-norm"
    in_process = True  # the operations run in the benchmark process
    round_s = 4.12

    def __init__(self, seed: int, ref: dict | None):
        rng = np.random.default_rng(seed)
        keys = [(n, int(i)) for n, k in EXACT_PER_ROUND.items()
                for i in rng.choice(EXACT_POOL[n], size=k, replace=False)]
        self.keys = [keys[j] for j in rng.permutation(len(keys))]
        self.queries = [exact_query(exact_query_spec(n, i)) for n, i in self.keys]
        self.ref = ref

    def ops(self):
        for (n, i), query in zip(self.keys, self.queries):
            yield f"n{n}/{i}", lambda q=query, n=n, i=i: self.check(exact_run(q), n, i)

    def check(self, out, n, i):
        value, value1 = out
        ref_value, ref_value1 = self.ref[str(n)][i]
        expect_close(value, ref_value, "exact norm")
        expect_close(value1, ref_value1, "p = 1 norm")

    def work_counts(self) -> dict:
        hist = Counter(n for n, _ in self.keys)
        return {"exact_norm_small": hist, "lp_edges": sum(n * (n - 1) for n, _ in self.keys)}


# ---------------------------------------------------------------------------
# norming


def norming_run(d, k, alpha, p) -> dict:
    report = dyadic.verify_norming(d, alpha, p, k)
    expect(report["basis_ok"], "a basis element exceeds the norming bound")
    expect(report["complete"], "pair budget exceeded")
    expect(report["max_molecule_cost"] <= report["molecule_bound"] + REL_TOL,
           "a molecule decomposition exceeds the certified cost bound")
    expect(report["max_molecule_residual"] <= REL_TOL,
           "a molecule decomposition does not reconstruct its molecule")
    return report


def basis_host_sizes(d: int, k: int, alpha: float) -> Counter:
    """Host sizes of the basis elements that verify_norming sends to the
    exact engine (those within its cap)."""
    sizes = (dyadic.basis_element(v, alpha).host.n for v in dyadic.basis_points(d, k))
    return Counter(n for n in sizes if n <= freenorm.DEFAULT_CAP)


def grid_pairs(d: int, k: int) -> tuple[int, int]:
    """(molecule pairs decomposed, pairs cut by the pair budget)."""
    pairs = math.comb((2**k + 1) ** d, 2)
    return min(pairs, PAIR_BUDGET), max(0, pairs - PAIR_BUDGET)


class Norming:
    """Each round runs one verify_norming call per grid; the seed picks
    NORMING_PER_GRID (alpha, p) pairs per grid and rounds cycle through
    them, so every round does the same work."""

    name = "norming"
    in_process = True
    round_s = 2.54

    def __init__(self, seed: int, ref: dict | None):
        rng = np.random.default_rng(seed)
        picks = [rng.choice(len(NORMING_POOL), size=NORMING_PER_GRID, replace=False)
                 for _ in NORMING_GRIDS]
        self.groups = [[(d, k, int(js[r])) for (d, k), js in zip(NORMING_GRIDS, picks)]
                       for r in range(NORMING_PER_GRID)]
        self.rounds = 0
        self.ref = ref

    def ops(self):
        group = self.groups[self.rounds % len(self.groups)]
        self.rounds += 1
        for d, k, j in group:
            yield f"d{d}k{k}/{j}", lambda d=d, k=k, j=j: self.check(
                norming_run(d, k, *NORMING_POOL[j]), d, k, j)

    def check(self, report, d, k, j):
        ref = self.ref[f"{d},{k}"][j]
        for key in ("max_basis_norm", "max_molecule_cost"):
            expect_close(report[key], ref[key], key)

    def work_counts(self) -> dict:
        """Per round; the host sizes and pairs do not depend on (alpha, p)."""
        hist, pairs, truncated = Counter(), 0, 0
        for d, k, j in self.groups[0]:
            hist += basis_host_sizes(d, k, NORMING_POOL[j][0])
            got, cut = grid_pairs(d, k)
            pairs, truncated = pairs + got, truncated + cut
        return {"exact_norm_small": hist, "dyadic.pairs": pairs, "dyadic.pairs_truncated": truncated}


# ---------------------------------------------------------------------------
# cli-cold


def cli_variant(v: int) -> dict:
    """Pool entry v: the flags and input files of each README command."""
    rng = np.random.default_rng([7, v])
    alpha = ALPHA_MIX[int(rng.integers(len(ALPHA_MIX)))]
    p = (0.5, 0.8)[int(rng.integers(2))]
    norm_pts = (rng.random((CLI_NORM_POINTS, 2)) * 4.0).tolist()
    norm_w = {j: float(rng.normal()) for j in range(1, CLI_NORM_POINTS) if rng.random() < 0.8}
    norm_w = norm_w or {1: 1.0}
    p1_pts = (rng.random((CLI_P1_POINTS, 2)) * 10.0).tolist()
    p1_w = {j: float(rng.normal()) for j in range(1, CLI_P1_POINTS)}
    grid = [(a, b) for a in range(9) for b in range(9) if (a, b) != (0, 0)]
    dy_idx = rng.choice(len(grid), size=6, replace=False)
    dy_pts = [(0.0, 0.0)] + [(grid[j][0] / 8, grid[j][1] / 8) for j in dy_idx]
    dy_w = {j: float(rng.normal()) for j in range(1, len(dy_pts))}
    return {
        "alpha": alpha,
        "files": {
            "norm_space.txt": metric.save_points(norm_pts, 0),
            "norm_element.txt": "".join(f"{w!r} {j}\n" for j, w in norm_w.items()),
            "p1_space.txt": metric.save_points(p1_pts, 0),
            "p1_element.txt": "".join(f"{w!r} {j}\n" for j, w in p1_w.items()),
            "dyadic_space.txt": metric.save_points(dy_pts, 0),
            "dyadic_element.txt": "".join(f"{w!r} {j}\n" for j, w in dy_w.items()),
            "complex.txt": CLI_COMPLEX,
        },
        "args": {
            "bm-report": ["--p", repr(p), "--alpha", repr(alpha), "--d", str(1 + v % 3)],
            "retraction-verify": ["--p", repr(p), "--seed", str(v), "--samples", "200",
                                  "--in", "complex.txt"],
            "basis-verify": ["--d", "2", "--kmax", "2", "--alpha", repr(alpha), "--p", repr(p)],
            "lambda-check": ["--d", "3", "--R", "2", "--samples", str(CLI_LAMBDA_SAMPLES),
                             "--seed", str(v)],
            "norm": ["--p", "0.5", "--alpha", repr(alpha), "--in", "norm_space.txt",
                     "--in", "norm_element.txt"],
            "norm-p1": ["--p", "1", "--in", "p1_space.txt", "--in", "p1_element.txt"],
            "decompose": ["--alpha", repr(alpha), "--in", "dyadic_space.txt",
                          "--in", "dyadic_element.txt"],
        },
    }


def cli_argv(variant: dict, cmd: str, workdir: Path) -> list[str]:
    """Command-line arguments of one command, with input and report paths
    inside `workdir`."""
    args = [str(workdir / a) if a.endswith(".txt") else a for a in variant["args"][cmd]]
    command = "norm" if cmd == "norm-p1" else cmd
    return ["--command", command, *args, "--out", str(workdir / f"{cmd}.json")]


def report_values(cmd: str, report: dict) -> dict:
    """The reference-checked values of a report: norm values, certified
    maxima and exact counts (rounding-level residuals are left to the
    command's own checks, which set the exit status)."""
    keys = {
        "bm-report": ("c_const", "rho", "tau", "retraction_lower", "retraction_upper", "bm_bound"),
        "retraction-verify": ("max_lower_ratio", "max_upper_cost_ratio", "witness_value",
                              "exact_norms_checked", "n_samples"),
        "basis-verify": ("max_basis_norm", "max_molecule_cost", "bm_bound", "basis_ok", "complete"),
        "lambda-check": ("kronecker_exact", "samples"),
        "norm": ("norm",),
        "norm-p1": ("norm",),
        "decompose": ("n_terms",),
    }[cmd]
    out = {k: report[k] for k in keys}
    if cmd == "decompose":
        out["coeff_abs_sum"] = sum(abs(c["coeff"]) for c in report["coefficients"])
    return out


def compare_values(values: dict, ref: dict, what: str) -> None:
    for key, want in ref.items():
        got = values[key]
        if isinstance(want, float):
            expect_close(got, want, f"{what} {key}")
        else:
            expect(got == want, f"{what} {key} = {got!r} differs from its reference {want!r}")


def cli_variant_index(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(CLI_POOL))


class CliCold:
    name = "cli-cold"
    round_s = 10.96
    commands = CLI_COMMANDS

    def __init__(self, v: int, ref: dict | None, workdir: Path, env: dict):
        """Variant v of the pool; `ref` maps variant to command to its
        reference entry, or is None when recording."""
        self.v = v
        self.variant = cli_variant(v)
        self.workdir = workdir
        self.env = env
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.variant["files"].items():
            (workdir / name).write_text(text)
        self.ref = ref
        self.hosts = {cmd: self._host(cmd) for cmd in ("norm", "norm-p1")}
        self.in_process = False
        self.child_maxrss_kb = 0
        self.observed: dict[str, dict] = {}

    def _host(self, cmd):
        files = self.variant["files"]
        prefix = "norm" if cmd == "norm" else "p1"
        host = metric.l1_space(*metric.load_points(files[f"{prefix}_space.txt"]))
        if cmd == "norm":
            host = metric.holder_distort(host, self.variant["alpha"])
        return host, freenorm.parse_element(host, files[f"{prefix}_element.txt"])

    def run_command(self, cmd: str) -> int:
        argv = cli_argv(self.variant, cmd, self.workdir)
        (self.workdir / f"{cmd}.json").unlink(missing_ok=True)  # never check a stale report
        if self.in_process:
            return cli.main(argv)
        proc = subprocess.Popen([sys.executable, "-m", "freep.cli", *argv], env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        if err:
            sys.stderr.write(err.decode(errors="replace"))
        return proc.returncode

    def ops(self):
        self.report_bytes = 0
        self.changed = 0
        for cmd in CLI_COMMANDS:
            yield cmd, lambda cmd=cmd: self.check(self.run_command(cmd), cmd)

    def check(self, code: int, cmd: str):
        data = (self.workdir / f"{cmd}.json").read_bytes() if code == 0 else b""
        report = json.loads(data) if data else {}
        entry = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
                 "values": report and report_values(cmd, report)}
        self.observed[cmd] = entry
        self.report_bytes += len(data)
        ref = self.ref[self.v][cmd] if self.ref is not None else {"exit": 0}
        expect(code == ref["exit"], f"{cmd} exited with status {code}")
        if self.ref is not None:
            self.changed += entry["sha256"] != ref["sha256"]
            compare_values(entry["values"], ref["values"], cmd)
        if cmd in self.hosts:
            host, m = self.hosts[cmd]
            p = 1.0 if cmd == "norm-p1" else 0.5
            decomp = freenorm.Decomposition(
                host, tuple((a, freenorm.Molecule(host, x, y)) for a, x, y in report["witness"]))
            expect_close(freenorm.upper_bound_from(m, p, decomp), report["norm"], f"{cmd} witness cost")

    def work_counts(self) -> dict:
        rv = self.observed["retraction-verify"]["values"]
        hist = Counter({CLI_NORM_POINTS: 1}) + basis_host_sizes(2, 2, self.variant["alpha"])
        hist[CLI_COMPLEX_VERTICES] += rv["exact_norms_checked"]
        pairs, truncated = grid_pairs(2, 2)
        return {"exact_norm_small": hist, "lp_edges": CLI_P1_POINTS * (CLI_P1_POINTS - 1),
                "dyadic.pairs": pairs, "dyadic.pairs_truncated": truncated,
                "retraction.pairs": rv["n_samples"],
                "retraction.exact_norms_checked": rv["exact_norms_checked"]}
