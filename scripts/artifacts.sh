#!/usr/bin/env bash
# Write the program's reference artifacts to OUT_DIR: verify reports and their
# stdout, four sweeps, two generated states, eval of that pair in both orders
# and at q = Q_MAX, eval of a d = 64 pair in both orders, eval of a
# 2 x 2 pair whose D_q leaves the float range,
# the output of the two probe scripts, and the node-budget
# table of scripts/quadrature_budget.py at two operands per band (its check
# that it reproduces the library's own rule runs with it).
#
# Every command runs through `python -m qrelent`, so PYTHONPATH (or the
# installed package) picks the source tree that runs.  Two trees give the same
# bytes when `diff -r` of their outputs is empty:
#
#   PYTHONPATH=src scripts/artifacts.sh /tmp/new
#   PYTHONPATH=/path/to/other/checkout/src scripts/artifacts.sh /tmp/old
#   diff -r /tmp/old /tmp/new
#
# Paths inside the artifacts are relative to OUT_DIR, so the output does not
# depend on where it is written, and BLAS runs on one thread, so it does not
# depend on the host's core count.  It takes about 20 s.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
scripts=$(cd "$(dirname "$0")" && pwd)
# one BLAS thread: the d = 256 trace distance in sweep_d256.csv moves in the
# last bit with the thread count, so the bytes would depend on the host
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
# pin the tree PYTHONPATH selects before leaving the working directory
PYTHONPATH=$(python -c 'import os, qrelent; print(os.path.dirname(os.path.dirname(os.path.abspath(qrelent.__file__))))')
export PYTHONPATH
mkdir -p "$1"
cd "$1"

python -m qrelent verify --trials 40 --seed 3 --out verify_t40_s3.json > verify_t40_s3.txt
python -m qrelent verify --trials 200 --seed 11 --out verify_t200_s11.json > verify_t200_s11.txt
# 1000 trials span several construction blocks per suite; the runs above fit in one
python -m qrelent verify --trials 1000 --seed 1 --out verify_t1000_s1.json > verify_t1000_s1.txt
# a d = 64 state-suite instance fills a block alone, and blocks mix dimensions
python -m qrelent verify --trials 40 --dims 3,64 --seed 5 --out verify_t40_s5_d64.json \
    > verify_t40_s5_d64.txt
python -m qrelent sweep --dims 2,3,5,16 --q 1.5,2,3,1.0001 --b0 0.05,0.01,0.001 \
    --trials 7 --seed 4 --out sweep_small.csv > /dev/null
python -m qrelent sweep --dims 16,64 --q 1.5,2,3 --b0 1e-3,1e-4 --trials 2 --seed 3 \
    --out sweep_large.csv > /dev/null
# d = 256: each divergence sum has 65 536 terms, enough for exact_sum to fold.
# sigma(b0) has a standard basis, so this sweep, like every sweep and like
# eval_float_range below, takes the gather path for its overlaps and
# compressions (linalg.basis_rows); most verify and eval pairs take the product
python -m qrelent sweep --dims 256 --q 1.5,2 --b0 1e-3 --trials 1 --seed 2 \
    --out sweep_d256.csv > /dev/null
# b0^(q-1) underflows at q = 34 and 40 and D_40 is past the float range:
# ratio_dq_b0 comes from the divergence sums with (q-1) ln b0 in each exponent
python -m qrelent sweep --dims 16 --q 34,40 --b0 1e-10 --trials 1 --seed 1 \
    --out sweep_ratio_edge.csv > /dev/null
python -m qrelent gen --d 8 --rank 5 --seed 2 --out rho.json > /dev/null
python -m qrelent gen --d 8 --rank 8 --seed 3 --out sigma.json > /dev/null
# rho has rank 5 and sigma full rank: D(rho||sigma) is finite, D(sigma||rho)
# is +inf, and the bounds that need a strictly positive pair are vacuous;
# q = 1.000000001 covers the q -> 1 end of the divergence sum
python -m qrelent eval rho.json sigma.json --q 1.000000001,1.5,2,3,7 > eval_rho_sigma.json
python -m qrelent eval sigma.json rho.json --q 1.000000001,1.5,2,3,7 > eval_sigma_rho.json
# q = 40 is Q_MAX, the largest order D_q and the thm3 row accept
python -m qrelent eval rho.json sigma.json --q 40 > eval_rho_sigma_q40.json
# d = 64: each state in a non-trivial basis, rho of rank 40 against a
# full-rank sigma.  D(rho64||sigma64) takes the finite branch: rho's
# compression to sigma's support has 24 eigenvalues at round-off level, and
# those at or below zero (12 of them) are cut.  D(sigma64||rho64) is +inf
python -m qrelent gen --d 64 --rank 40 --seed 5 --out rho64.json > /dev/null
python -m qrelent gen --d 64 --rank 64 --seed 6 --out sigma64.json > /dev/null
python -m qrelent eval rho64.json sigma64.json --q 1.5,2,3 > eval_rho64_sigma64.json
python -m qrelent eval sigma64.json rho64.json --q 1.5,2,3 > eval_sigma64_rho64.json
# the float-range pair rho = diag(0.5, 0.5), sigma = diag(1 - 1e-10, 1e-10):
# b0^(1-q) alone overflows from q = 31.8 on, D_31 and D_32 = 7.5e298 still
# fit in float64, and D_33 and D_40 are past it (+inf, as is thm3's rhs).
# The two hand-written state files are removed once evaluated
printf '{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], [0, 0]]}\n' > range_rho.json
printf '{"dim": 2, "re": [[0.9999999999, 0], [0, 1e-10]], "im": [[0, 0], [0, 0]]}\n' \
    > range_sigma.json
python -m qrelent eval range_rho.json range_sigma.json --q 31,32,33,40 > eval_float_range.json
rm range_rho.json range_sigma.json
python "$scripts/divergence_rate.py" > divergence_rate.txt
python "$scripts/tightness_crossover.py" > tightness_crossover.txt
python "$scripts/quadrature_budget.py" --operands 2 > quadrature_budget.txt
