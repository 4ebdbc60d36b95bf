#!/bin/sh
# Determinism smoke check: runs every session command twice on one config
# each, sync also over 100 000 steps (longer than the largest 65 536-step
# window of the exact-sync vector pass), transmit also on a multiplicative
# line with a drawn disturbance, and hop also as a multiplicative pattern hop
# (both line levels), as a bare source = off hop and as a hop whose first idle
# phase (about 6 960 steps at rho = 0.998) outlasts one kernel chunk; fails
# unless both runs wrote byte-identical trace and hop CSVs.  Four failing
# sessions also run twice each: a transmit whose response passes its guard
# at step 18, inside the kernel's first block, a sync whose drive escapes at
# step 2 (x: 0.146... -> 0.5 -> 1.0), a hop at rho = 1 whose first idle
# phase never triggers, and a hop whose drive escapes on that same step 2,
# where its trigger would hop; the two hops end the hop kernel's last chunk
# on a failure.  Each must exit 2 with byte-identical stderr.  Every trace
# CSV is also read back with load_trace_csv and written again, which must
# give the same bytes.  Two configs whose scale factor k is too large also
# run twice each: a sync whose 2 * x0 overflows in the control law
# (mu + |rho| < 2) and a sync whose guard * k overflows; each must exit 1
# with byte-identical stderr.
# PYTHONWARNINGS=error turns any warning into a traceback, so a run that
# warns fails too.
#
# usage, from the repository root: sh .github/determinism-smoke.sh
set -eu
export PYTHONWARNINGS=error
src="$(pwd)/src"
dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT
cd "$dir"
printf 'steps = 2000\n' > sync.cfg
printf 'steps = 100000\n' > sync-long.cfg
printf 'source = bernoulli\nseed = 1\nsteps = 2000\nthreshold = 5.0\n' > transmit.cfg
printf 'operator = multiplicative\namplitude = 0.2\nsource = bernoulli\nseed = 7\nsteps = 2000\ndisturbance = 0.01\n' > transmit-mul.cfg
printf 'mode = fixed\nk = 1024\nx0 = 122\ny0 = -1024\nsteps = 16000\nsource = bernoulli\nseed = 3\n' > digital.cfg
printf 'source = bernoulli\nseed = 5\nsessions = 20\nactive_steps = 40\n' > hop.cfg
printf 'operator = multiplicative\namplitude = 0.2\nsource = pattern\npattern = 0110\nhold = 4\nsessions = 120\nactive_steps = 40\n' > hop-mul.cfg
printf 'source = off\nsessions = 120\n' > hop-off.cfg
printf 'rho = 0.998\nsource = pattern\npattern = 01\nsessions = 2\nactive_steps = 5\n' > hop-slow.cfg
traces=""
for name in sync sync-long transmit transmit-mul digital hop hop-mul hop-off hop-slow; do
  command="${name%%-*}"
  for run in 1 2; do
    traces="$traces $name-$run.csv"
    set -- "$command" --config "$name.cfg" --out "$name-$run.csv"
    if [ "$command" = hop ]; then set -- "$@" --hops-out "$name-hops-$run.csv"; fi
    PYTHONPATH="$src" python -m chaoslink.cli "$@"
  done
  cmp "$name-1.csv" "$name-2.csv"
  if [ "$command" = hop ]; then cmp "$name-hops-1.csv" "$name-hops-2.csv"; fi
done
PYTHONPATH="$src" python -c '
import sys
from chaoslink.simkit import export_csv, load_trace_csv
for path in sys.argv[1:]:
    export_csv(load_trace_csv(path), path + ".again")
' $traces
for trace in $traces; do cmp "$trace" "$trace.again"; done
printf 'source = bernoulli\nseed = 1\nsteps = 2000\namplitude = 1e100\nthreshold = 5e99\nguard = 1e300\n' > transmit-guard.cfg
printf 'mu = 4.0\nx0 = 0.1464466094067262\n' > sync-escape.cfg
printf 'rho = 1.0\nsessions = 2\n' > hop-idle.cfg
printf 'mu = 4.0\nx0 = 0.1464466094067262\nrho = 0.0\nsync_window = 1\n' > hop-escape.cfg
printf 'mu = 1.0\nrho = 0.5\nk = 1e308\nx0 = 9.5e307\ny0 = 9.5e307\n' > sync-law-k.cfg
printf 'k = 4.28e307\nx0 = 1e307\ny0 = 3e307\n' > sync-guard-k.cfg
for case in transmit-guard:2 sync-escape:2 hop-idle:2 hop-escape:2 sync-law-k:1 sync-guard-k:1; do
  name="${case%:*}"
  expected="${case#*:}"
  command="${name%%-*}"
  for run in 1 2; do
    status=0
    PYTHONPATH="$src" python -m chaoslink.cli "$command" --config "$name.cfg" \
      --out "$name-$run.csv" 2> "$name-$run.err" || status=$?
    if [ "$status" -ne "$expected" ]; then
      echo "$name run $run: exit $status, expected $expected" >&2
      cat "$name-$run.err" >&2
      exit 1
    fi
  done
  cmp "$name-1.err" "$name-2.err"
done
