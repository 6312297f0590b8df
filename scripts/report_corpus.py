"""Run a fixed corpus of `freep` CLI reports in-process and write their
manifest; with --against, list every report field that moved against a
manifest saved before.

The corpus is
  - the runs of scripts/readme_commands.sh, on the same input files;
  - the pinned reports of `test_reports_are_byte_stable` (tests/test_cli.py);
  - basis-verify on the three grids of the benchmark's `norming` workload,
    each at the 12 (alpha, p) of its pool;
  - norm on the README files at p = 0.3, 0.5, 0.8 and 1;
  - norm on seeded hosts shaped like the benchmark's `exact-norm` pool:
    3-7 points in dimension 1-3, plain and at alpha 0.3, 0.5 and 0.7,
    supports of all but one or two host points, each at p = 1, 0.8, 0.5
    and 0.3, so both exact routes and their witnesses are pinned;
  - the `norm` and `norm --p 1` runs of the benchmark's first `cli-cold`
    variants, on their own input files (perfbench/workloads.py).
Each entry keeps its argv, exit status, parsed report and the sha256 of the
report bytes; one aggregate digest covers them all.

    PYTHONPATH=src python scripts/report_corpus.py --out old.json
    PYTHONPATH=src python scripts/report_corpus.py --out new.json --against old.json

A moved field is printed with its largest distance in units in the last
place (ulp) and its direction; a field that is not a number is printed
with its old and new values.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import random
import shlex
import struct
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

README_SCRIPT = Path(__file__).resolve().parent / "readme_commands.sh"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the seeded exact-norm-like hosts, their alpha (None: plain) and their p
POOL_HOSTS = 24
POOL_ALPHAS = (None, 0.3, 0.5, 0.7)
POOL_PS = ("1", "0.8", "0.5", "0.3")
CLI_VARIANTS = 4


def _lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _pool_files(i: int) -> dict[str, str]:
    """Host i of the exact-norm-like slice, n = 3-7 points in dimension
    1-3 with coordinates in [0, 4), and an element of gaussian weights on
    n - 1 or n - 2 of its non-base points (one point when n = 3)."""
    r = random.Random(1000 + i)
    n, d = 3 + i % 5, 1 + i % 3
    support = r.sample(range(1, n), max(1, n - 1 - r.randrange(2)))
    return {
        f"pool{i}.txt": f"{d} 0\n" + _lines([r.uniform(0, 4) for _ in range(d)] for _ in range(n)),
        f"pool{i}_element.txt": _lines((r.gauss(0, 1), j) for j in sorted(support)),
    }


def _cli_variants() -> list[dict]:
    """The benchmark's first CLI_VARIANTS `cli-cold` variants: their input
    files and the flags of each command (`cli_variant` in
    perfbench/workloads.py)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [workloads.cli_variant(v) for v in range(CLI_VARIANTS)]


def _files() -> dict[str, str]:
    """The input files of the corpus: those scripts/readme_commands.sh
    writes, with the same bytes, and the input files of the pinned
    reports."""
    r40, r41, r42 = random.Random(40), random.Random(41), random.Random(42)
    return {
        "space.txt": "2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n",
        "element.txt": "1.0 1\n-0.5 2\n0.25 3\n",
        "space40.txt": "2 0\n" + _lines((r40.uniform(0, 10), r40.uniform(0, 10)) for _ in range(40)),
        "element40.txt": _lines((r41.gauss(0, 1), j) for j in range(1, 40)),
        "positive40.txt": _lines((abs(r42.gauss(0, 1)), j) for j in range(1, 40)),
        "L.txt": "2 0.7\n0 0\n1 0\n1 1\n2 1\n0 0\n",
        "two_squares.txt": "2 1.0\n0 0\n1 0\n0 0\n",
        "gapped.txt": "2 1.0\n0 0\n2 0\n0 0\n",
        "L35.txt": "2 0.7\n3 5\n4 5\n4 6\n3 5\n",
        "far.txt": "2 0\n0 0\n1e300 0\n0 1\n",
        "far4.txt": "2 0\n0 0\n1e300 0\n0 1\n1 0\n",
        "far_element.txt": "1e300 2\n",
        "far_pair.txt": "1e300 2\n1e300 3\n",
        **{name: text for i in range(POOL_HOSTS) for name, text in _pool_files(i).items()},
        **{f"cli{v}_{name}": text for v, variant in enumerate(_cli_variants())
           for name, text in variant["files"].items() if name.startswith(("norm_", "p1_"))},
    }


def _readme_runs() -> list[list[str]]:
    """The argv of each `run` line of scripts/readme_commands.sh, without
    its --out."""
    runs = [shlex.split(line)[1:] for line in README_SCRIPT.read_text().splitlines()
            if line.startswith("run --command")]
    if not runs:
        raise SystemExit(f"{README_SCRIPT} holds no run lines")
    return runs


PINNED = [
    "--command lambda-check --d 3 --R 2 --samples 10000 --seed 0",
    "--command retraction-verify --d 2 --p 0.5 --seed 7 --samples 1000",
    "--command lambda-check --d 3 --R 2 --samples 2000 --seed 3",
    "--command retraction-verify --p 0.8 --seed 3 --samples 200 --in two_squares.txt",
    "--command retraction-verify --p 0.3 --seed 5 --samples 400 --in L.txt",
    "--command retraction-verify --p 0.3 --seed 5 --samples 400 --in gapped.txt",
    "--command retraction-verify --d 3 --p 0.75 --R 0.7 --seed 2 --samples 500",
    "--command basis-verify --d 2 --alpha 0.5 --p 0.5 --kmax 2",
    "--command basis-verify --d 1 --kmax 5 --alpha 0.7 --p 0.3",
    "--command basis-verify --d 3 --kmax 1 --alpha 0.25 --p 0.4",
    "--command norm --p 0.5 --alpha 0.5 --in space.txt --in element.txt",
    "--command retraction-verify --p 1 --seed 5 --samples 400 --in L35.txt",
    "--command norm --p 0.8 --in far.txt --in far_element.txt",
    "--command norm --p 0.8 --in far4.txt --in far_pair.txt",
]

# the grids and the (alpha, p) pool of the benchmark's norming workload
NORMING_GRIDS = ((1, 5), (2, 2), (3, 1))
NORMING_POOL = [(a, p) for a in (0.3, 0.5, 0.7) for p in (0.4, 0.6, 0.8, 1.0)]


def corpus_runs() -> list[list[str]]:
    runs = _readme_runs() + [line.split() for line in PINNED]
    runs += [["--command", "basis-verify", "--d", str(d), "--kmax", str(k),
              "--alpha", repr(a), "--p", repr(p)]
             for d, k in NORMING_GRIDS for a, p in NORMING_POOL]
    runs += [["--command", "norm", "--p", p, "--in", "space.txt", "--in", "element.txt"]
             for p in ("0.3", "0.5", "0.8", "1")]
    for i in range(POOL_HOSTS):
        alpha = POOL_ALPHAS[i % len(POOL_ALPHAS)]
        flags = ["--alpha", repr(alpha)] if alpha is not None else []
        runs += [["--command", "norm", "--p", p, *flags, "--in", f"pool{i}.txt",
                  "--in", f"pool{i}_element.txt"] for p in POOL_PS]
    for v, variant in enumerate(_cli_variants()):
        for cmd in ("norm", "norm-p1"):
            args = [f"cli{v}_{a}" if a.endswith(".txt") else a for a in variant["args"][cmd]]
            runs.append(["--command", "norm", *args])
    # one entry per argv, in first-seen order
    return list({" ".join(argv): argv for argv in runs}.values())


def build_manifest() -> dict:
    """{"aggregate": digest, "reports": {argv joined: entry}}, every run of
    the corpus made by `freep.cli.main` in a directory of the input files."""
    from freep.cli import main

    files = _files()
    runs = corpus_runs()
    missing = {a for argv in runs for a in argv if a.endswith(".txt")} - set(files)
    if missing:
        raise SystemExit(f"no corpus input for {sorted(missing)}")
    reports = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            for argv in runs:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = main(argv)
                text = out.getvalue()
                reports[" ".join(argv)] = {
                    "argv": argv,
                    "exit": code,
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "report": json.loads(text) if text else None,
                }
        finally:
            os.chdir(cwd)
    summary = sorted((key, e["exit"], e["sha256"]) for key, e in reports.items())
    aggregate = hashlib.sha256(json.dumps(summary).encode()).hexdigest()
    return {"aggregate": aggregate, "reports": reports}


def _ordered(x: float) -> int:
    """The position of x among the doubles: adjacent doubles differ by 1."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _moves(old, new, path):
    """(path, old, new, ulp or None) for each leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            yield from _moves(old.get(key), new.get(key), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moves(a, b, f"{path}[{i}]")
    elif _is_number(old) and _is_number(new):
        if float(old) != float(new):
            yield path, old, new, abs(_ordered(float(new)) - _ordered(float(old)))
    elif old != new:
        yield path, old, new, None


def diff(old: dict, new: dict) -> list[str]:
    """The lines that --against prints: each moved report with its moved
    fields, then per field the largest move over the corpus."""
    lines = []
    fields: dict[str, list] = {}
    old_reports, new_reports = old["reports"], new["reports"]
    for key in sorted(set(old_reports) ^ set(new_reports)):
        lines.append(f"{'only in the new' if key in new_reports else 'only in the old'}: {key}")
    common = [key for key in new_reports if key in old_reports]
    for key in common:
        a, b = old_reports[key], new_reports[key]
        if (a["exit"], a["sha256"]) == (b["exit"], b["sha256"]):
            continue
        lines.append(f"moved: {key}")
        if a["exit"] != b["exit"]:
            lines.append(f"  exit {a['exit']} -> {b['exit']}")
        for path, x, y, ulp in _moves(a["report"], b["report"], ""):
            if ulp is None:
                lines.append(f"  {path}: {x!r} -> {y!r}")
            else:
                way = "up" if float(y) > float(x) else "down"
                lines.append(f"  {path}: {x!r} -> {y!r}, {ulp} ulp {way}")
            fields.setdefault(path, []).append((x, y, ulp))
    for path, moves in sorted(fields.items()):
        numeric = [(x, y, ulp) for x, y, ulp in moves if ulp is not None]
        text = f"field {path}: moved in {len(moves)} of {len(common)} reports"
        if numeric:
            up = sum(float(y) > float(x) for x, y, _ in numeric)
            rel = max(abs(float(y) - float(x)) / max(abs(float(x)), abs(float(y)))
                      for x, y, _ in numeric)
            text += (f", at most {max(u for _, _, u in numeric)} ulp ({rel:.2g} relative),"
                     f" {up} up and {len(numeric) - up} down")
        lines.append(text)
    if not lines:
        lines.append(f"no report moved ({len(common)} compared)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the manifest here")
    ap.add_argument("--against", help="a saved manifest to compare with")
    args = ap.parse_args(argv)
    manifest = build_manifest()
    if args.out:
        Path(args.out).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest['reports'])} reports, aggregate {manifest['aggregate']}")
    if args.against:
        old = json.loads(Path(args.against).read_text())
        print("\n".join(diff(old, manifest)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
