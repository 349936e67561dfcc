#!/bin/sh
# The whole pipeline through the command line, end to end, in a scratch
# directory: make data, check its algebra, train both phases, generate a
# long video, score it.  Every command is reproducible byte-for-byte under
# a fixed seed; run the script twice and compare the outputs.
set -e

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"
echo "working in $WORK"

run() { echo; echo "\$ vidchain $*"; python3 -m vidchain.cli "$@"; }

# a small configuration so the whole script finishes in a couple of minutes
cat > small.json <<'JSON'
{"t_c": 8, "r": 4, "z_content": 16, "z_motion": 6, "hidden": 32, "batch": 4,
 "steps": 60}
JSON

run dataset-gen --kind shapes --out data --count 40 --length 24 --seed 0
run roundtrip-check --data data --t-c 8
run train --data data --out clip.ckpt --config small.json --report train.tsv
run train-recall --data data --init clip.ckpt --out recall.ckpt \
    --config small.json
run generate --ckpt recall.ckpt --out clips.rcg --count 4
run generate-long --ckpt recall.ckpt --out long.rcg --clips 12 \
    --report chain.tsv
run eval --data long.rcg --reference data --report scores.tsv --seg-len 8

echo
echo "artifacts:"
ls -l *.ckpt *.rcg *.tsv | awk '{print "  " $5 "\t" $9}'
echo
echo "first lines of the evaluation report:"
head -6 scores.tsv | sed 's/^/  /'
