#!/usr/bin/env bash
# Byte-compare what two oodlab checkouts write for a fixed command list.
#
#   scripts/byte_check.sh PARENT CHANGE
#
# PARENT and CHANGE are source checkouts (each with src/oodlab). Each runs in
# its own fresh directory under $TMPDIR with one BLAS thread, and writes no
# bytecode into either checkout. The list uses only `replicate`, `gen-data`
# and `compare`: `replicate` on the three full presets; single-replication
# `replicate` runs of setting2 with 200 iterations and of wood2d with 200
# iterations and a 32x32 grid, which writes no generator weights and whose PGM
# rows fill every 16-sample line; `gen-data --seed 7`; `replicate
# --config full.ini`, a short see_ood run on that CSV with a written 3x3 cost
# matrix and every [data] key set, the one run that trains on a non-binary
# cost matrix; `replicate --config deep.ini`, a short
# see_ood run whose discriminator (2 16 8 3) has a hidden layer past layer 0
# and whose generator is 2 16 2; and two `compare` runs. Then `diff -r`
# compares every output file and the collected stdout. Exit status 0 means no
# difference. Takes a few minutes per checkout.
set -euo pipefail
[ $# -eq 2 ] || { echo "usage: $0 PARENT CHANGE" >&2; exit 2; }
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONDONTWRITEBYTECODE=1
work=$(mktemp -d)

run() {  # run CHECKOUT OUTDIR
    local src
    src="$(cd "$1" && pwd)/src"
    cd "$2"
    oodlab() { PYTHONPATH="$src" python3 -m oodlab.cli "$@"; }
    for p in wood2d setting1 setting2; do oodlab replicate --preset "$p" --out "$p"; done
    printf '[train]\niterations = 200\n[eval]\nreplications = 1\n' > one200.ini
    oodlab replicate --preset setting2 --config one200.ini --out setting2-one
    printf '[train]\niterations = 200\n[eval]\nreplications = 1\ngrid_resolution = 32\n' \
        > grid32.ini
    oodlab replicate --preset wood2d --config grid32.ini --out wood2d-grid32
    oodlab gen-data --seed 7 --out gen-data
    printf '0,1,2\n1,0,1\n2,1,0\n' > cost.csv
    printf '%s\n' '[method]' 'method = see_ood' \
        '[train]' 'iterations = 50' 'lr_d = 0.01' \
        '[data]' 'path = gen-data/dataset.csv' 'cost_matrix = cost.csv' \
        'ood_subsample = 3' \
        '[eval]' 'replications = 1' 'grid_resolution = 20' > full.ini
    oodlab replicate --config full.ini --out full
    printf '%s\n' '[method]' 'method = see_ood' \
        '[train]' 'iterations = 100' 'discriminator_arch = 2 16 8 3' 'generator_arch = 2 16 2' \
        '[eval]' 'replications = 1' 'grid_resolution = 20' > deep.ini
    oodlab replicate --config deep.ini --out deep
    oodlab compare --a setting1 --b wood2d --tnr 0.95 --out compare1
    oodlab compare --a setting2 --b wood2d --tnr 0.99 --out compare2
}

mkdir "$work/parent" "$work/change"
(run "$1" "$work/parent") > "$work/parent/stdout.txt"
(run "$2" "$work/change") > "$work/change/stdout.txt"
diff -r "$work/parent" "$work/change"
echo "no difference in $(find "$work/parent" -type f | wc -l) files ($work)"
