#!/bin/sh
# Run the eleven reference commands of the output contract against one source tree.
#
# Usage: tools/reference_outputs.sh SRC_DIR OUT_DIR
#
# Each command writes its files into OUT_DIR/<name> through a relative
# --output, so that paths in stdout do not depend on OUT_DIR, and keeps its
# stdout, stderr and exit code beside them as <name>.stdout, <name>.stderr
# and <name>.exit.  Comparing two source trees is then
#
#   tools/reference_outputs.sh old/src /tmp/old
#   tools/reference_outputs.sh new/src /tmp/new
#   diff -r /tmp/old /tmp/new
set -u
if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2

eps=0.0909090909090909
run() {
    name=$1
    shift
    PYTHONPATH="$src" python3 -m adiasearch "$@" --output "$name" \
        >"$name.stdout" 2>"$name.stderr"
    echo "$?" >"$name.exit"
}

run run_local run --strategy local --n 20 --epsilon "$eps"
run run_parallel run --strategy parallel --n 20 --T 4.7 --r 8
run run_parallel_erf run --strategy parallel --n 37 --marked 5 --T 3.1 --r 6.5 \
    --shape erf --steps 6000
run run_linear run --strategy linear --n 20 --T 440
run sweep_local_n sweep --strategy local --variable n --epsilon "$eps" \
    --values 10 20 1000 1000000
run sweep_parallel_n sweep --strategy parallel --variable n --epsilon "$eps" --r 12 \
    --values 10 20 300 1000
run sweep_inv_gamma sweep --strategy parallel --variable inv_gamma \
    --values 1.0 2.0 3.5 --n 20 --r 12
run sweep_epsilon sweep --strategy local --variable epsilon --values 0.05 0.1 0.25 --n 50
run compare compare --epsilon "$eps" --r 12 --n 20
run check check
run check_seed_words check --seed 12345678901234567890 --n-list 2 3 512 --steps 1000 \
    --full-steps 8000
