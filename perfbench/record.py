"""Record the reference outputs of every input the workloads can select.

    python3 perfbench/record.py

Runs each pooled input once with the current sources, checks it the way
the benchmark does, and writes perfbench/reference.json: exact and p = 1
norms per exact-norm query, the certified maxima per norming call, and per
CLI command its exit status, report digest and checked values. The
committed file was recorded at the seed commit; recording again moves the
correctness gate, so only a change to the benchmark itself may do that.
"""

import json
import os
import shutil
import sys
from pathlib import Path

from run import pin_blas

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main() -> int:
    pin_blas(os.environ)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads as w

    ref = {"exact-norm": {}, "norming": {}, "cli-cold": []}
    for n, pool in w.EXACT_POOL.items():
        ref["exact-norm"][str(n)] = [
            list(w.exact_run(w.exact_query(w.exact_query_spec(n, i)))) for i in range(pool)]
    for d, k in w.NORMING_GRIDS:
        ref["norming"][f"{d},{k}"] = [
            {key: w.norming_run(d, k, alpha, p)[key] for key in ("max_basis_norm", "max_molecule_cost")}
            for alpha, p in w.NORMING_POOL]
    workdir = BENCH_DIR / ".work" / f"record-{os.getpid()}"
    try:
        for v in range(w.CLI_POOL):
            wl = w.CliCold(v, None, workdir, {})
            wl.in_process = True
            for _, op in wl.ops():
                op()
            ref["cli-cold"].append(wl.observed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # not empty: a benchmark run is using it
            pass
    (BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
