"""Race the four optimizers over a small benchmark grid and rank them.

A desk-sized version of the full comparison: a handful of functions, a few
seeded trials per cell, mean errors per cell, then average ranks per
algorithm across the chosen functions.  Everything reruns bit-identically
for a fixed base seed.

Usage:
    python demos/benchmark_shootout.py --dim 10 --trials 5 --budget 20000
"""

import argparse

from bareopt import ALGORITHMS, aggregate, rank_algorithms, run_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--functions", nargs="+",
                        default=["F1", "F2", "F4", "F7", "F10"])
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--budget", type=int, default=20_000)
    parser.add_argument("--base-seed", type=int, default=1)
    args = parser.parse_args()

    print(f"grid: {len(ALGORITHMS)} algorithms x {len(args.functions)} "
          f"functions, {args.dim}D, {args.trials} trials x {args.budget} "
          f"evaluations\n")

    means = {}
    for algo in ALGORITHMS:
        for fn in args.functions:
            outcomes = run_experiment(algo, fn, args.dim,
                                      n_trials=args.trials,
                                      max_fes=args.budget,
                                      base_seed=args.base_seed)
            means[(algo, fn)] = aggregate(outcomes).mean

    header = f"{'function':>9}" + "".join(f"{a:>12}" for a in ALGORITHMS)
    print(header)
    for fn in args.functions:
        row = f"{fn:>9}"
        for algo in ALGORITHMS:
            row += f"{means[(algo, fn)]:>12.3e}"
        print(row)

    average = rank_algorithms(means, group=args.functions)["average_rank"]
    print("\naverage rank (lower is better):")
    for algo in sorted(average, key=average.get):
        print(f"  {algo:<6} {average[algo]:.2f}")


if __name__ == "__main__":
    main()
