#!/usr/bin/env bash
# Diff the program's outputs against those of a base commit.
#
# Usage: .github/diff-outputs.sh BASE_SRC WORK_DIR
#
# BASE_SRC is the src directory of the base commit's checkout; the head side
# is the src directory next to this script. .github/diff_cases.py holds the
# cases (every reproduce target with each figure's SVG plot, simulate
# studies, and single-table estimate reports) and runs all of them in one
# process per side, writing each case's stdout, stderr and exit code under
# WORK_DIR/base and WORK_DIR/head. Every case whose files differ, and every
# reproduce or simulate case that exits non-zero, is reported, followed by
# the number of cases compared; the script then exits 1 if any was reported.
set -u

base_src=$1
work=$2
here="$(cd "$(dirname "$0")" && pwd)"
bad=()

# report LINE: print LINE and remember it for the summary.
report() {
  echo "$1"
  bad+=("$1")
}

for side in base head; do
  src=$base_src
  if [ "$side" = head ]; then src="$(dirname "$here")/src"; fi
  PYTHONPATH="$src" python "$here/diff_cases.py" "$src" "$work" "$side" ||
    report "fails on $side: diff_cases.py"
done

count=0
while IFS= read -r case; do
  count=$((count + 1))
  file=${case// /_}
  if [ "${case%% *}" != estimate ]; then
    for side in base head; do
      [ "$(tail -n 1 "$work/$side/$file.err" 2> /dev/null)" = "exit 0" ] ||
        report "fails on $side: $case"
    done
  fi
  same=1
  for ext in out err svg; do
    if [ -e "$work/base/$file.$ext" ] || [ -e "$work/head/$file.$ext" ]; then
      diff "$work/base/$file.$ext" "$work/head/$file.$ext" || same=0
    fi
  done
  if [ "$same" = 0 ]; then report "differs: $case"; fi
done < "$work/head/cases"

echo "${#bad[@]} cases differ or fail"
for line in "${bad[@]}"; do
  echo "  $line"
done
echo "$count cases compared"
[ "${#bad[@]}" = 0 ]
