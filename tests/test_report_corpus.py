"""The report corpus of scripts/report_corpus.py: pinned by its aggregate
digest, and its diff names each moved field with its ulp distance."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_corpus.py"

# re-recorded when the p = 1 transport became one transportation simplex:
# the five norm --p 1 reports on 40-point files moved (space40 with
# element40 and the p1 files of cli0-cli3), each to another optimal forest,
# the norm by 1 ulp in cli1 and 2 ulp in cli2; the other 161 did not move
AGGREGATE = "81106d1d4cb8a03d9b744af448f0b5815517c3c292a6ca0deed456fc610ddd4c"


def load():
    spec = importlib.util.spec_from_file_location("report_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_corpus_aggregate_digest():
    manifest = load().build_manifest()
    assert len(manifest["reports"]) == 166
    assert all(entry["exit"] == 0 for entry in manifest["reports"].values())
    assert manifest["aggregate"] == AGGREGATE


def manifest(report, sha):
    return {"reports": {"run": {"exit": 0, "sha256": sha, "report": report}}}


def test_corpus_diff_names_each_moved_field():
    corpus = load()
    old = manifest({"cost": 1.0, "ok": True, "witness": [[2, 1, 0.5]], "same": 3.0}, "a")
    new = manifest(
        {"cost": math.nextafter(math.nextafter(1.0, 2.0), 2.0), "ok": False,
         "witness": [[2, 1, math.nextafter(0.5, 0.0)]], "same": 3}, "b")
    assert corpus.diff(old, new) == [
        "moved: run",
        "  cost: 1.0 -> 1.0000000000000004, 2 ulp up",
        "  ok: True -> False",
        "  witness[0][2]: 0.5 -> 0.49999999999999994, 1 ulp down",
        "field cost: moved in 1 of 1 reports, at most 2 ulp (4.4e-16 relative), 1 up and 0 down",
        "field ok: moved in 1 of 1 reports",
        "field witness[0][2]: moved in 1 of 1 reports, at most 1 ulp (1.1e-16 relative),"
        " 0 up and 1 down",
    ]
    assert corpus.diff(old, old) == ["no report moved (1 compared)"]
