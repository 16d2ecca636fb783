#!/bin/sh
# Run the eleven reference commands of the output contract against one source tree.
#
# Usage: tools/reference_outputs.sh SRC_DIR OUT_DIR
#
# The commands are the lines of tests/reference_commands.txt.  Each writes
# its files into OUT_DIR/<name> through a relative --output, so that paths
# in stdout do not depend on OUT_DIR, and keeps its stdout, stderr and exit
# code beside them as <name>.stdout, <name>.stderr and <name>.exit.
# Comparing two source trees is then
#
#   tools/reference_outputs.sh old/src /tmp/old
#   tools/reference_outputs.sh new/src /tmp/new
#   diff -r /tmp/old /tmp/new
set -u
if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
commands=$(cd "$(dirname "$0")/.." && pwd)/tests/reference_commands.txt || exit 2
src=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2

set -f  # the arguments are split on blanks, never globbed
grep -v '^#' "$commands" | while read -r name args; do
    [ -n "$name" ] || continue
    PYTHONPATH="$src" python3 -m adiasearch $args --output "$name" \
        </dev/null >"$name.stdout" 2>"$name.stderr"
    echo "$?" >"$name.exit"
done
