#!/bin/sh
# Run every reconstructed table/figure experiment (quick mode by default;
# pass --full for paper-scale settings), then sweep the full problem zoo.
# Every training run lands in the qpinn-run-v1 store (target/runs, or
# --runs DIR), and the last step renders the store's tables from it.
set -e
store=target/runs
prev=
for arg in "$@"; do
  [ "$prev" = --runs ] && store=$arg
  prev=$arg
done

# The grid tables T1, T3, T4 and F3: one binary, one row per setting.
echo "=== tables ==="
./target/release/tables "$@"
echo

for bin in t2_eigen t5_solvers t6_hybrid t7_inverse \
           f1_convergence f2_slices f4_norm_drift f5_scaling f6_tdse2d; do
  echo "=== $bin ==="
  ./target/release/$bin "$@"
  echo
done

# The zoo sweep enumerates from the registry itself (sweep
# --list-problems), so newly registered families join the run without
# touching this script.
./target/release/sweep --list-problems | while read -r key; do
  echo "=== sweep: $key ==="
  ./target/release/sweep --problem "$key" "$@"
  echo
done

# Every recorded run as a table row: the grid tables again, now from the
# store, beside the final errors of every other training above.
echo "=== runs table ($store) ==="
./target/release/qpinn-obs runs table --dir "$store"
