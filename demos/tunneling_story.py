"""Follow the tunneling decisions of one sampler run scale by scale.

Every time the sampler considers a worsening move it computes an acceptance
probability from the fitness gap, the step length, and the current width
parameter.  The width decays within a sampling scale and is reset when the
scale halves, so the probabilities fall and recover in cycles.  The demo
records one run and prints per-scale summaries of those decisions.

Usage:
    python demos/tunneling_story.py --function F7 --dim 10 --budget 50000
"""

import argparse

import numpy as np

from bareopt import record_run, transmission_trace
from bareopt.records import ACCEPT_TUNNEL, SCALE_HALVE


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--function", default="F7")
    parser.add_argument("--dim", type=int, default=10)
    parser.add_argument("--budget", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    outcome, log = record_run("bip", args.function, args.dim,
                              max_fes=args.budget, seed=args.seed,
                              success_threshold=1e-8)
    trace = dict(transmission_trace(log))
    print(f"{args.function}/{args.dim}D, seed {args.seed}: "
          f"error {outcome.final_error:.3e} after {outcome.evals_used} "
          f"evaluations, {len(trace)} tunneling decisions\n")

    # bucket the decisions by sampling scale using the scale-halve markers,
    # each of which carries the sigma of the scale it starts
    kind, index = log.events.column("kind"), log.events.column("index")
    boundaries = index[kind == SCALE_HALVE].tolist()
    accepted = index[kind == ACCEPT_TUNNEL]
    sigmas = [log.events.batches[0].sigma,
              *(b.sigma for b in log.events.batches if b.kind[0] == SCALE_HALVE)]
    print(f"{'scale':>5} {'sigma':>12} {'decisions':>9} {'accepted':>8} "
          f"{'max prob':>9} {'mean prob':>9}")
    start = 0
    for scale, (end, sigma) in enumerate(zip([*boundaries, args.budget + 1], sigmas)):
        probs = np.array([p for i, p in trace.items() if start <= i < end])
        taken = np.count_nonzero((start <= accepted) & (accepted < end))
        if probs.size:
            print(f"{scale:>5} {sigma:>12.4g} {probs.size:>9} {taken:>8} "
                  f"{probs.max():>9.3f} {probs.mean():>9.3f}")
        else:
            print(f"{scale:>5} {sigma:>12.4g} {0:>9} {taken:>8} {'-':>9} "
                  f"{'-':>9}")
        start = end

    print("\nthe max probability climbs back after each halving because the")
    print("width parameter is reset to the new sampling scale, then decays")
    print("again as the anneal counter grows within the scale.")


if __name__ == "__main__":
    main()
