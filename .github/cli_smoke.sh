#!/usr/bin/env bash
# python -m lcps end to end on edge-case and capped inputs, each command with
# its own time limit and expected exit code. Run from anywhere:
#   bash .github/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src
# The generated input files go to the runner's temporary directory, or to a
# fresh one that is removed on exit.
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# aab against aba, the README's example
python -m lcps solve -x aab -y aba
# a 20 000-character input against one character, auto
timeout 60 python -m lcps solve --format json -x "$(python -c 'print("a"*20000)')" -y a
# the same pair, y first, on geom
timeout 60 python -m lcps solve --algo geom --format json -x a -y "$(python -c 'print("a"*20000)')"
# dp's thinnest input at its default cell cap: 8192 characters against one
timeout 60 python -m lcps solve --algo dp --format json -x "$(python -c 'print("a"*8192)')" -y a
# dp's densest thin input at its default cell cap: 4096 characters against aa
timeout 60 python -m lcps solve --algo dp --format json -x "$(python -c 'print("a"*4096)')" -y aa
# a 100 000-character input against an empty one
timeout 60 python -m lcps solve --format json -x "$(python -c 'print("a"*100000)')" -y ''
# fill_table on a 100 000-character input and an empty one, in either order
timeout 60 python -c "from lcps import fill_table; fill_table(b'a'*100000, b''); fill_table(b'', b'a'*100000)"
# geom on a 33 004-character input against abba, past int16 positions
timeout 60 python -m lcps solve --algo geom --format json -x "$(python -c 'print("ab"+"c"*33000+"ba")')" -y abba
# writes a 200 000-character FASTA file with CRLF line ends
python -c "import random, sys; r = random.Random(1); s = ''.join(r.choices('acgt', k=200000)).encode(); open(sys.argv[1], 'wb').write(b'>r1\r\n' + b''.join(s[i:i + 60] + b'\r\n' for i in range(0, len(s), 60)))" "$RUNNER_TEMP/crlf.fa"
# that FASTA file against ACGT: P = 200 000 degenerates on int32 points
timeout 60 python -m lcps solve --fasta --format json --x-file "$RUNNER_TEMP/crlf.fa" -y ACGT
# geom at its densest square under the default rectangle cap: n = m = 80 over 2 symbols, P = 1 223 120
timeout 120 python -c "from lcps import GenSpec, generate; from lcps.cli import main; x, y = generate(GenSpec(80, 80, 2, 1)); raise SystemExit(main(['solve', '--algo', 'geom', '--format', 'json', '-x=' + x.decode('latin-1'), '-y=' + y.decode('latin-1')]))"
# x = y = the 40 letters A-Z and a-n, then their reverse: dp is inside its cell
# cap at n = m = 80, geom settles its one block of 41 groups by the in-order
# pass, and a disagreement exits 5
nested=ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnnmlkjihgfedcbaZYXWVUTSRQPONMLKJIHGFEDCBA
timeout 60 python -m lcps compare -x "$nested" -y "$nested"
# writes a 5 000 000-character ACGT file
python -c "import random, sys; open(sys.argv[1], 'wb').write(random.Random(1).randbytes(5000000).translate(b'ACGT' * 64))" "$RUNNER_TEMP/acgt.txt"
# that ACGT file against ACGT: solve declines on both solvers' caps, exit 4
rc=0; timeout 60 python -m lcps solve --x-file "$RUNNER_TEMP/acgt.txt" -y ACGT || rc=$?; test "$rc" -eq 4
# that ACGT file against ACGT: matches counts it, exit 0
timeout 60 python -m lcps matches --x-file "$RUNNER_TEMP/acgt.txt" -y ACGT
