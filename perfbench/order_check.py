"""Show that an operation's time does not depend on its position in the pass.

    python3 perfbench/order_check.py --workload bundle --seed 11 --rounds 4

Runs the workload's list forward and reversed, alternating which goes
first, and prints for every operation the median wall time in each order
and their ratio.  Each operation runs in its own interpreter, so nothing
warm carries over from the operation before it; the ratios should sit
within the run-to-run noise.
"""

from __future__ import annotations

import argparse
import statistics

import run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=4)
    args = ap.parse_args()
    ops = run.build_ops(args.workload, args.seed)
    forward, backward = [], []
    for r in range(args.rounds):
        # alternate which order goes first, so that drift of the machine's
        # speed does not favour one of them
        for reverse in ((False, True) if r % 2 == 0 else (True, False)):
            if reverse:
                backward.append(run.run_pass(ops[::-1], False)[::-1])
            else:
                forward.append(run.run_pass(ops, False))
    fwd = run.per_op_median(forward, "wall_s")
    bwd = run.per_op_median(backward, "wall_s")
    print(f"{'operation':58s} {'forward':>9s} {'reversed':>9s} {'ratio':>6s}")
    for op, f, b in zip(ops, fwd, bwd):
        print(f"{op['id'][:58]:58s} {f:9.3f} {b:9.3f} {b / f:6.3f}")
    ratios = [b / f for f, b in zip(fwd, bwd)]
    print(f"{'sum':58s} {sum(fwd):9.3f} {sum(bwd):9.3f} {sum(bwd) / sum(fwd):6.3f}")
    print(f"median ratio {statistics.median(ratios):.3f}, "
          f"range {min(ratios):.3f} to {max(ratios):.3f}")


if __name__ == "__main__":
    main()
