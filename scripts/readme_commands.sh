#!/bin/sh
# Run every README CLI command at README size with the `freep` on PATH, in
# the current directory: the two file commands on a 4-point dyadic file
# (norm also at p = 1, the transport route), norm --p 1 on a 40-point file
# with a signed element and with an all-positive one (one demand point, the
# base, so the simplex's start is the flow), basis-verify also at d = 3,
# whose centre point is beyond the exact-norm cap (the fallback cost), and
# at d = 2, kmax = 4, whose 41,616 molecule pairs
# fit the default pair budget but are checked over many blocks, and
# lambda-check and retraction-verify on an L-shaped complex file at R = 0.7
# (the complex-file harness route: one vertex-indicator certificate bounds
# every sampled image difference). Ten runs are not README commands:
# decompose of the element 1e-14 delta(point 1) on the 4-point file, whose
# coefficients are pruned relative to the largest, not below an absolute
# floor; norm --p 0.5 on a 200-point file with a 7-point element, the exact
# tree program on a large host in a fresh process; norm --p 1 on a
# 400-point file with a signed weight on every point, a transport of about
# 200 by 200 points that the simplex solves by pivots; basis-verify at d = 3,
# kmax = 3, a cold 729-point grid plan with the fallback classes on three
# levels; basis-verify at d = 4, kmax = 1, a cold class table with two
# classes beyond the cap, whose hosts are never built; and two runs at small
# p, where the constants reach 5e9 to 1e11 and a value checked against its
# constant passes within EVAL_TOL relative to it: retraction-verify at d = 2,
# p = 0.03 (the witness value) and basis-verify at d = 4, p = 0.1 (a basis
# norm one rounding above its bound); and two runs of norm --p 0.8 on points
# 1e300 apart with weights of 1e300, whose norms are finite although terms
# of the tree program are inf, which must pass without a RuntimeWarning (CI
# runs this script with PYTHONWARNINGS=error::RuntimeWarning); and
# retraction-verify on the d = 3 unit cube, whose 8 vertices fit the
# exact-norm cap, so its first 50 ratios are checked against exact norms of
# supports of up to 7 points. They are written
# `run --p ... --command ...` (or `run --alpha ...`) because
# scripts/report_corpus.py takes the lines that begin `run --command` into
# its pinned corpus, and these are not README commands. Each report is written with --out and parsed as strict JSON. A
# nonzero exit (a failed certified check, a crash, or a report that is not
# JSON) stops the script with that status.
set -e
run() {
    freep "$@" --out report.json
    python3 -c '
import json, sys

def refuse(token):
    sys.exit(f"report.json holds {token}, which is not JSON")

json.load(open(sys.argv[1]), parse_constant=refuse)
' report.json
}
run --command bm-report --p 0.5 --alpha 0.5 --d 2
run --command retraction-verify --d 2 --p 0.5 --seed 7 --samples 1000
run --command basis-verify --d 2 --alpha 0.5 --p 0.5 --kmax 2
run --command basis-verify --d 3 --alpha 0.5 --p 0.5 --kmax 1
run --command basis-verify --d 2 --alpha 0.5 --p 0.5 --kmax 4
run --command lambda-check --d 3 --R 2 --samples 10000 --seed 0
printf '2 0\n0 0\n0.5 0\n0.5 0.25\n1 1\n' > space.txt
printf '1.0 1\n-0.5 2\n0.25 3\n' > element.txt
run --command norm --p 0.5 --alpha 0.5 --in space.txt --in element.txt
run --command norm --p 1 --in space.txt --in element.txt
run --command decompose --alpha 0.5 --in space.txt --in element.txt
printf '1e-14 1\n' > tiny.txt
run --alpha 0.5 --command decompose --in space.txt --in tiny.txt
python3 -c 'import random; r = random.Random(40); print("2 0"); [print(r.uniform(0, 10), r.uniform(0, 10)) for _ in range(40)]' > space40.txt
python3 -c 'import random; r = random.Random(41); [print(r.gauss(0, 1), j) for j in range(1, 40)]' > element40.txt
run --command norm --p 1 --in space40.txt --in element40.txt
python3 -c 'import random; r = random.Random(42); [print(abs(r.gauss(0, 1)), j) for j in range(1, 40)]' > positive40.txt
run --command norm --p 1 --in space40.txt --in positive40.txt
printf '2 0.7\n0 0\n1 0\n1 1\n2 1\n0 0\n' > L.txt
run --command lambda-check --in L.txt
run --command retraction-verify --p 0.5 --samples 200 --in L.txt
python3 -c 'import random; r = random.Random(200); print("2 0"); [print(r.uniform(0, 10), r.uniform(0, 10)) for _ in range(200)]' > space200.txt
python3 -c 'import random; r = random.Random(201); [print(r.gauss(0, 1), j) for j in r.sample(range(1, 200), 7)]' > element200.txt
run --p 0.5 --command norm --in space200.txt --in element200.txt
python3 -c 'import random; r = random.Random(400); print("2 0"); [print(r.uniform(0, 10), r.uniform(0, 10)) for _ in range(400)]' > space400.txt
python3 -c 'import random; r = random.Random(401); [print(r.gauss(0, 1), j) for j in range(1, 400)]' > element400.txt
run --p 1 --command norm --in space400.txt --in element400.txt
run --p 0.5 --command basis-verify --d 3 --alpha 0.5 --kmax 3
run --p 0.5 --command basis-verify --d 4 --alpha 0.5 --kmax 1
run --p 0.03 --command retraction-verify --d 2 --samples 50
run --p 0.1 --command basis-verify --d 4 --alpha 0.5 --kmax 1
printf '2 0\n0 0\n1e300 0\n0 1\n' > far.txt
printf '1e300 2\n' > far_element.txt
run --p 0.8 --command norm --in far.txt --in far_element.txt
printf '2 0\n0 0\n1e300 0\n0 1\n1 0\n' > far4.txt
printf '1e300 2\n1e300 3\n' > far_pair.txt
run --p 0.8 --command norm --in far4.txt --in far_pair.txt
run --p 0.5 --command retraction-verify --d 3 --samples 200
