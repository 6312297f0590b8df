"""The report corpus of scripts/report_corpus.py: pinned by its aggregate
digest, and its diff names each moved field with its ulp distance."""

import importlib.util
import math
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_corpus.py"

# re-recorded when the retraction harness's exact cross-check took the
# exact-norm cap DEFAULT_CAP as its size rule: the three retraction-verify
# reports on 7-8-vertex complexes (gapped.txt, L35.txt and the d = 3 unit
# cube) moved in exact_norms_checked alone, 0 -> 50; the other 163 did not
# move
AGGREGATE = "5a9c0e922f91a5ed6e8d3da272a1e5ebcc9239f09caf6fd0b61d0dc1b6f494aa"


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
