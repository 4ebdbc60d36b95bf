#!/bin/sh
# Determinism smoke check: runs every session command twice on one config
# each, sync also over 100 000 steps (longer than the widest 65 536-step
# exact-sync block of the response kernel), transmit also on a
# multiplicative line with a drawn disturbance and, for each operator, over
# 20 000 steps (the benchmark's analog size; the additive one at the
# paper's rho = 0.5, y0 = -1), digital also at rho = 2 (the README config
# never syncs and saturates 15 996 response states) and at mu = 4, k =
# 32 768, x0 = y0 = 16 384 (synced from step 0, one drive clip after the
# sync, a carrier of period 20), and hop also as a multiplicative pattern hop
# (both line levels), as a bare source = off hop, as a hop whose first idle
# phase takes about 6 960 steps at rho = 0.998 (more than the 4 096 rows
# of a kernel chunk, which the hop kernel cuts only between sessions, so
# the phase stays in one chunk) and as a 300-session bernoulli hop of
# about 18 400 rows (the benchmark's hop size, which the kernel yields in
# five chunks), and diagnose with the Lyapunov exponent, the spectrum
# and the bifurcation scan; fails unless both runs wrote byte-identical
# trace, hop, spectrum and bifurcation CSVs and stdout.
# Five failing sessions also run twice each: a transmit whose response
# passes its guard at step 18, inside the kernel's first block, a sync
# whose drive escapes at step 2 (x: 0.146... -> 0.5 -> 1.0), and a hop for
# each of the hop kernel's three failure kinds: one at rho = 1 whose first
# idle phase never triggers, one whose drive escapes on that same step 2,
# where its trigger would hop, and a pattern hop of amplitude 1e6 whose
# response passes the guard at step 27, in its first active phase; the
# three hops end the hop kernel's last chunk on a failure.  Each must exit
# 2 with byte-identical stderr.  Every trace CSV is also read back with
# load_trace_csv and written again, which must give the same bytes.  Two
# configs whose scale factor k is too large also run twice each: a sync
# whose 2 * x0 overflows in the control law (mu + |rho| < 2) and a sync
# whose guard * k overflows; each must exit 1 with byte-identical stderr,
# and so must six configs that fail their session's checks: a sync of
# steps = 0, a sync with source = foo, a sync with mode = foo, a transmit
# whose pattern 012 is not over {0,1}, a digital whose k = 1024.5 is not
# an integer, and a bernoulli transmit in mode = fixed.
# PYTHONWARNINGS=error turns any warning into a traceback, so a run that
# warns fails too.
# Run 2 of every config, failing ones included, uses the package in the
# directory given as the first argument, by default this checkout's src,
# so passing another tree's src checks this one's outputs byte for byte
# against that tree's.
#
# usage, from the repository root: sh .github/determinism-smoke.sh [reference-src]
set -eu
export PYTHONWARNINGS=error
src="$(pwd)/src"
ref="$(cd "${1:-src}" && pwd)"
tree() { if [ "$1" = 1 ]; then echo "$src"; else echo "$ref"; fi; }
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"
printf 'steps = 2000\n' > sync.cfg
printf 'steps = 100000\n' > sync-long.cfg
printf 'source = bernoulli\nseed = 1\nsteps = 2000\nthreshold = 5.0\n' > transmit.cfg
printf 'operator = multiplicative\namplitude = 0.2\nsource = bernoulli\nseed = 7\nsteps = 2000\ndisturbance = 0.01\n' > transmit-mul.cfg
printf 'rho = 0.5\ny0 = -1\nsource = bernoulli\nseed = 2\nsteps = 20000\nthreshold = 5.0\n' > transmit-long.cfg
printf 'operator = multiplicative\namplitude = 0.2\nsource = bernoulli\nseed = 4\nsteps = 20000\n' > transmit-mul-long.cfg
printf 'mode = fixed\nk = 1024\nx0 = 122\ny0 = -1024\nsteps = 16000\nsource = bernoulli\nseed = 3\n' > digital.cfg
printf 'mode = fixed\nk = 1024\nx0 = 122\ny0 = -1024\nsteps = 16000\nsource = bernoulli\nseed = 3\nrho = 2.0\n' > digital-unsynced.cfg
printf 'mode = fixed\nmu = 4.0\nk = 32768\nx0 = 16384\ny0 = 16384\nsteps = 16000\nsource = bernoulli\nseed = 3\n' > digital-clip.cfg
printf 'source = bernoulli\nseed = 5\nsessions = 20\nactive_steps = 40\n' > hop.cfg
printf 'operator = multiplicative\namplitude = 0.2\nsource = pattern\npattern = 0110\nhold = 4\nsessions = 120\nactive_steps = 40\n' > hop-mul.cfg
printf 'source = off\nsessions = 120\n' > hop-off.cfg
printf 'rho = 0.998\nsource = pattern\npattern = 01\nsessions = 2\nactive_steps = 5\n' > hop-slow.cfg
printf 'source = bernoulli\nseed = 1\nsessions = 300\nactive_steps = 40\n' > hop-long.cfg
traces=""
for name in sync sync-long transmit transmit-mul transmit-long transmit-mul-long digital \
    digital-unsynced digital-clip hop hop-mul hop-off hop-slow hop-long; do
  command="${name%%-*}"
  for run in 1 2; do
    traces="$traces $name-$run.csv"
    set -- "$command" --config "$name.cfg" --out "$name-$run.csv"
    if [ "$command" = hop ]; then set -- "$@" --hops-out "$name-hops-$run.csv"; fi
    PYTHONPATH="$(tree "$run")" python -m chaoslink.cli "$@" > "$name-$run.out"
  done
  cmp "$name-1.csv" "$name-2.csv"
  cmp "$name-1.out" "$name-2.out"
  if [ "$command" = hop ]; then cmp "$name-hops-1.csv" "$name-hops-2.csv"; fi
done
PYTHONPATH="$src" python -c '
import sys
from chaoslink.simkit import export_csv, load_trace_csv
for path in sys.argv[1:]:
    export_csv(load_trace_csv(path), path + ".again")
' $traces
for trace in $traces; do cmp "$trace" "$trace.again"; done
for run in 1 2; do
  PYTHONPATH="$(tree "$run")" python -m chaoslink.cli diagnose --mu 3.7 --lyapunov \
    --spectrum-out "spectrum-$run.csv" --bifurcation-out "bifurcation-$run.csv" > "diagnose-$run.out"
done
cmp spectrum-1.csv spectrum-2.csv
cmp bifurcation-1.csv bifurcation-2.csv
cmp diagnose-1.out diagnose-2.out
printf 'source = bernoulli\nseed = 1\nsteps = 2000\namplitude = 1e100\nthreshold = 5e99\nguard = 1e300\n' > transmit-guard.cfg
printf 'mu = 4.0\nx0 = 0.1464466094067262\n' > sync-escape.cfg
printf 'rho = 1.0\nsessions = 2\n' > hop-idle.cfg
printf 'mu = 4.0\nx0 = 0.1464466094067262\nrho = 0.0\nsync_window = 1\n' > hop-escape.cfg
printf 'source = pattern\npattern = 1\namplitude = 1e6\nsessions = 2\n' > hop-guard.cfg
printf 'mu = 1.0\nrho = 0.5\nk = 1e308\nx0 = 9.5e307\ny0 = 9.5e307\n' > sync-law-k.cfg
printf 'k = 4.28e307\nx0 = 1e307\ny0 = 3e307\n' > sync-guard-k.cfg
printf 'steps = 0\n' > sync-steps.cfg
printf 'source = foo\n' > sync-source.cfg
printf 'mode = foo\n' > sync-mode.cfg
printf 'source = pattern\npattern = 012\n' > transmit-pattern.cfg
printf 'mode = fixed\nk = 1024.5\nx0 = 122\ny0 = -1024\nsource = bernoulli\nseed = 3\n' > digital-k.cfg
printf 'mode = fixed\nsource = bernoulli\nseed = 1\n' > transmit-fixed.cfg
for case in transmit-guard:2 sync-escape:2 hop-idle:2 hop-escape:2 hop-guard:2 sync-law-k:1 \
    sync-guard-k:1 sync-steps:1 sync-source:1 sync-mode:1 transmit-pattern:1 digital-k:1 \
    transmit-fixed:1; do
  name="${case%:*}"
  expected="${case#*:}"
  command="${name%%-*}"
  for run in 1 2; do
    status=0
    PYTHONPATH="$(tree "$run")" python -m chaoslink.cli "$command" --config "$name.cfg" \
      --out "$name-$run.csv" 2> "$name-$run.err" || status=$?
    if [ "$status" -ne "$expected" ]; then
      echo "$name run $run: exit $status, expected $expected" >&2
      cat "$name-$run.err" >&2
      exit 1
    fi
  done
  cmp "$name-1.err" "$name-2.err"
done
