#!/usr/bin/env bash
# Diff the program's outputs against those of a base commit.
#
# Usage: .github/diff-outputs.sh BASE_SRC WORK_DIR
#
# BASE_SRC is the src directory of the base commit's checkout; the head side
# is the src directory next to this script. Outputs go to WORK_DIR. Every
# reproduce target (with the --svg plot of each figure), a simulate study of
# every method and policy in both delta modes, large-N, window-edge and
# mixed-N studies, the benchmark's N = 1e6 sampling study at two seeds, a
# study of two stack groups that share sampling windows across populations,
# a study at N = 1e5 whose fixed-point iterates rise on
# one population and fall on the other, a study of 1100 tiny populations
# whose narrow sampling rows are inverted in blocks of many rows, a study
# at N = 500 whose draw check fails once and inverts that draw again on the
# full window, a study of two populations at N = 1e6 whose wide sampling
# rows of two probabilities share a cluster,
# single-table estimate reports (stdout, stderr and exit code, two of them
# on candidate maps with two fixed points), and estimate reports with a parametric bootstrap run on both sides. reproduce and simulate solve many rows per
# batch, estimate solves its table as a one-row batch, and the bootstrap
# solves its fit as one row and its replicates as one batch; the tiny
# population and the (0, 1, 3) table reach the 60-solve cap of the candidate
# fixed point and fail there, (2, 9007199254740985, 4) has the largest
# total a table may have, 2**53 - 1, and on the four tables from
# (15000, 9000, 6000) to (400000, 240000, 320000) steps near the maximizers
# fall on both sides of the double form's rounding bound, so some step signs
# are decided in double and some again in decimal. Every case whose outputs
# differ, and every reproduce or simulate run that fails, is reported, and
# the script then exits 1.
set -u

base_src=$1
work=$2
head_src="$(cd "$(dirname "$0")/.." && pwd)/src"
mkdir -p "$work"
bad=()

# run SIDE OUT ARGS...: run dualrec from SIDE's src, stdout to OUT.
run() {
  local src=$head_src
  if [ "$1" = base ]; then src=$base_src; fi
  local out=$2
  shift 2
  PYTHONPATH="$src" python -m dualrec "$@" > "$out"
}

# report LINE: print LINE and remember it for the summary.
report() {
  echo "$1"
  bad+=("$1")
}

# compare CASE FILE...: diff each base-FILE against head-FILE in WORK_DIR.
compare() {
  local case=$1 same=1 file
  shift
  for file in "$@"; do
    diff "$work/base-$file" "$work/head-$file" || same=0
  done
  if [ "$same" = 0 ]; then report "differs: $case"; fi
}

for target in table2 table3 table4 fig1 fig2 fig3 fig4; do
  files=("$target.csv")
  case $target in fig*) files+=("$target.svg") ;; esac
  for side in base head; do
    args=(reproduce --target "$target" --replicates 20)
    case $target in fig*) args+=(--svg "$work/$side-$target.svg") ;; esac
    run "$side" "$work/$side-$target.csv" "${args[@]}" ||
      report "fails on $side: reproduce $target"
  done
  compare "reproduce $target" "${files[@]}"
done

cat > "$work/study.json" <<'JSON'
{"populations": [
   {"label": "P1", "N": 500, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25},
   {"label": "P6", "N": 500, "p1": 0.6, "p_dot1": 0.7, "phi": 0.8},
   {"label": "sparse", "N": 40, "p1": 0.1, "p_dot1": 0.3, "phi": 1.0},
   {"label": "tiny", "N": 20, "p1": 0.1, "p_dot1": 0.3, "phi": 1.0}],
 "estimators": [
   "dse", "pl-mt", "mpl-mt", "pl-mtb",
   "adpl-mtb:fixed:0.5", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
   "adpl-mt:fixed:0.5", "adpl-mt:scaled:1.25", "adpl-mt:recapture:1.25",
   "adpl-mt:scaled:4",
   "dse@oracle", "pl-mt@oracle", "mpl-mt@oracle", "pl-mtb@oracle",
   "adpl-mtb:fixed:0.5@oracle", "adpl-mtb:scaled:1.25@oracle",
   "adpl-mtb:recapture:1.25@oracle", "adpl-mt:fixed:0.5@oracle",
   "adpl-mt:scaled:1.25@oracle", "adpl-mt:recapture:1.25@oracle"],
 "replicates": 20, "seed": 7}
JSON
# Large-N draws: at N <= 500 every binomial_cdf window starts at 0, so only
# these populations exercise that window's left bound and rows that are
# wide or hold many points on each side of their cuts; the closed forms keep
# the study to sampling. At seed 7, 7 of the 19 distinct stage-3 rows of
# "straddle" are at least _ALONE wide, each a block of its own, and 12 are
# narrower and share padded blocks, so one draw_binomial call has rows on
# both sides of that size.
cat > "$work/large.json" <<'JSON'
{"populations": [
   {"label": "M", "N": 1000000, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25},
   {"label": "G", "N": 1000000000, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25},
   {"label": "skewed", "N": 1000000, "p1": 0.02, "p_dot1": 0.3, "phi": 1.0},
   {"label": "straddle", "N": 523000, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25}],
 "estimators": ["dse", "pl-mtb"],
 "replicates": 20, "seed": 7}
JSON
# Window ends: at p1 = 0.98, p.1 = 0.97 (N = 2000) every stage's window ends
# at n; at N = 1e7 every row is at least _ALONE wide, so each is a block of
# one row that reads its log-factorials as slices; N = 3 has windows of a
# few points.
cat > "$work/ends.json" <<'JSON'
{"populations": [
   {"label": "high", "N": 2000, "p1": 0.98, "p_dot1": 0.97, "phi": 1.0},
   {"label": "wide", "N": 10000000, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25},
   {"label": "three", "N": 3, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25}],
 "estimators": ["dse", "pl-mtb"],
 "replicates": 20, "seed": 7}
JSON
# Mixed-N likelihood study: run_study stacks the rows of populations of
# different N into one batch, and @oracle rows evaluate delta at their own
# population's N.
cat > "$work/mixed.json" <<'JSON'
{"populations": [
   {"label": "N20", "N": 20, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25},
   {"label": "N500", "N": 500, "p1": 0.6, "p_dot1": 0.7, "phi": 0.8},
   {"label": "N20000", "N": 20000, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25}],
 "estimators": [
   "mpl-mt", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
   "adpl-mtb:scaled:1.25@oracle", "adpl-mtb:recapture:1.25@oracle"],
 "replicates": 20, "seed": 7}
JSON
# Group draw: at R = 300 a stack group holds 13 populations (4096 // 300,
# with R not dividing STACK_ROWS), so these 14 make two groups. Populations
# of one design at N = 200, 500 and 1000 share (trials, probability) pairs
# across populations within a draw, and the padded blocks hold several rows
# with several draws each.
{
  printf '{"populations": [\n'
  for copy in a b c d; do
    for n in 200 500 1000; do
      printf '   {"label": "A%s%s", "N": %s, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25},\n' \
        "$copy" "$n" "$n"
    done
  done
  printf '   {"label": "B500", "N": 500, "p1": 0.7, "p_dot1": 0.55, "phi": 0.8},\n'
  printf '   {"label": "B1000", "N": 1000, "p1": 0.7, "p_dot1": 0.55, "phi": 0.8}],\n'
  printf ' "estimators": ["dse", "pl-mtb", "adpl-mtb:scaled:1.25"],\n'
  printf ' "replicates": 300, "seed": 7}\n'
} > "$work/group.json"
# Candidate fixed points at N = 1e5: at seed 7 the iterates of
# adpl-mtb:scaled:1.25 and adpl-mtb:recapture:1.25 rise from the anchor on
# all 20 rows of "rise" and fall on all 20 rows of "fall", so the searches
# started from each solve's current iterate gallop both ways; the other
# estimators start from round(DSE) (pl-mt, mpl-mt) or the DSE anchor
# (fixed delta, @oracle).
cat > "$work/gallop.json" <<'JSON'
{"populations": [
   {"label": "rise", "N": 100000, "p1": 0.5, "p_dot1": 0.65, "phi": 1.25},
   {"label": "fall", "N": 100000, "p1": 0.1, "p_dot1": 0.2, "phi": 1.0}],
 "estimators": [
   "pl-mt", "mpl-mt", "adpl-mtb:scaled:1.25", "adpl-mtb:recapture:1.25",
   "adpl-mt:fixed:0.5", "adpl-mtb:scaled:1.25@oracle"],
 "replicates": 20, "seed": 7}
JSON
# Narrow rows: 1100 populations of N = 2 to 4, each with a p1 of its own,
# make one stack group whose stages draw 1100 to over 2000 distinct
# (trials, probability) pairs of windows a few points wide, all in one
# cluster, so they are packed into padded blocks of many rows, each
# inverted by one bisection over its rows.
python - "$work/narrow.json" <<'PY'
import json
import sys

populations = [
    {"label": f"n{i}", "N": 2 + i % 3, "p1": 0.3 + 0.0004 * i, "p_dot1": 0.6, "phi": 1.0}
    for i in range(1100)
]
with open(sys.argv[1], "w") as out:
    json.dump(
        {"populations": populations, "estimators": ["dse", "pl-mtb"], "replicates": 3, "seed": 9},
        out,
    )
PY
# Draw check: P2 at R = 20 000, seed 13. Its 60 000 draws come from rows
# cut on both sides at N = 500, and one stage-1 draw, of (500, 0.4565...),
# lies within the rows' bound B of a CDF step: it fails the check and is
# inverted again on binomial_cdf's window.
cat > "$work/recheck.json" <<'JSON'
{"populations": [
   {"label": "P2", "N": 500, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25}],
 "estimators": ["dse", "pl-mtb"],
 "replicates": 20000, "seed": 13}
JSON
# Shared cluster: two populations at N = 1e6 that differ only in p1 (0.6
# and 0.6002) form one stack group, and in each stage their wide rows, of
# two probabilities, overlap and share one cluster's log-factorial tables,
# each probability reading k ln p and (n - k) ln(1 - p) from its own.
cat > "$work/shared.json" <<'JSON'
{"populations": [
   {"label": "A", "N": 1000000, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25},
   {"label": "B", "N": 1000000, "p1": 0.6002, "p_dot1": 0.7, "phi": 1.25}],
 "estimators": ["dse", "pl-mtb"],
 "replicates": 20, "seed": 7}
JSON
# The benchmark's sample-large-n study (N = 1e6, R = 50, the closed forms)
# at two seeds.
for seed in 4 5; do
  cat > "$work/sample$seed.json" <<JSON
{"populations": [
   {"label": "L1", "N": 1000000, "p1": 0.6, "p_dot1": 0.7, "phi": 1.25}],
 "estimators": ["dse", "pl-mtb"],
 "replicates": 50, "seed": $seed}
JSON
done
for study in study large ends mixed group gallop narrow recheck shared sample4 sample5; do
  for side in base head; do
    run "$side" "$work/$side-$study.csv" simulate --config "$work/$study.json" ||
      report "fails on $side: simulate $study"
  done
  compare "simulate $study" "$study.csv"
done

# estimate_cases "X11 X10 X01" "DESCRIPTOR..." [ARG...]: compare estimate
# (stdout, stderr and exit code) on that table for each descriptor, in text
# and in JSON, with the extra ARGs.
estimate_cases() {
  local cells=$1 descriptors=$2 descriptor method format side code args flags
  shift 2
  printf '{"x11": %s, "x10": %s, "x01": %s}\n' $cells > "$work/table.json"
  for descriptor in $descriptors; do
    method="${descriptor%%:*}"
    args=(--method "$method")
    if [ "$method" != "$descriptor" ]; then args+=(--delta "${descriptor#*:}"); fi
    args+=("$@")
    for format in text json; do
      flags=("${args[@]}")
      if [ "$format" = json ]; then flags+=(--json); fi
      for side in base head; do
        code=0
        run "$side" "$work/$side-estimate.out" estimate --table "$work/table.json" "${flags[@]}" \
          2> "$work/$side-estimate.err" || code=$?
        echo "exit $code" >> "$work/$side-estimate.err"
      done
      compare "estimate $cells $descriptor${*:+ $*} $format" estimate.out estimate.err
    done
  done
}

# (1, 3000, 3000) and (95000001, 0, 0) take the decimal recheck in all four
# kernels; (95000001, 0, 0) also reaches the search ceiling (adpl-mtb:scaled),
# delta = 1 (adpl-mtb:recapture, as (5, 0, 3) does) and the nuisance edges
# c_hat = 1, p_hat = 0 and phi_hat = inf, or none at all where N_hat = x1.
for cells in "50 30 20" "2 500 400" "0 0 5" "0 1 3" "2 9007199254740985 4" \
  "15000 9000 6000" "25000 15000 20000" "250000 150000 200000" "400000 240000 320000" \
  "1 3000 3000" "95000001 0 0" "5 0 3"; do
  estimate_cases "$cells" "dse pl-mt mpl-mt pl-mtb \
    adpl-mtb:fixed:0.5 adpl-mtb:scaled:1.25 adpl-mtb:recapture:1.25 \
    adpl-mt:fixed:0.5 adpl-mt:scaled:1.25 adpl-mt:recapture:1.25 adpl-mt:scaled:4"
done
for cells in "50 30 20" "2 500 400"; do
  estimate_cases "$cells" "dse pl-mt adpl-mtb:recapture:1.25 adpl-mt:scaled:1.25" \
    --bootstrap 40 --seed 7
done
# Candidate maps with two fixed points each (13122788 and 13122794, then
# 15442161 and 15442168): the iteration returns the first.
estimate_cases "205177 1307 37712" "adpl-mtb:recapture:0.25"
estimate_cases "178155 270 162507" "adpl-mtb:recapture:1.25"

echo "${#bad[@]} cases differ or fail"
for line in "${bad[@]}"; do
  echo "  $line"
done
[ "${#bad[@]}" = 0 ]
