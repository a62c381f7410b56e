"""Survey how often free nilpotent lifts of random Anosov toral
automorphisms stay Anosov as the nilpotency step grows.

Example:
    python scripts/lift_survey.py --dim 3 --samples 50 --max-step 4
"""

import argparse
import random
import sys

from anosov_forge import linalg, validate
from anosov_forge.actions import is_anosov_matrix, product_matrix
from anosov_forge.freenil import free_nilpotent_lift


def random_unimodular(rng: random.Random, d: int, shears: int = 8):
    m = linalg.identity(d)
    for _ in range(rng.randint(2, shears)):
        e = [[int(i == j) for j in range(d)] for i in range(d)]
        i, j = rng.sample(range(d), 2)
        e[i][j] = rng.randint(-3, 3)
        m = linalg.mat_mul(m, linalg.to_mat(e))
    return [[int(v) for v in row] for row in m]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--max-step", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    anosov_base = 0
    survived = [0] * (args.max_step + 1)
    drawn = 0
    while anosov_base < args.samples:
        a = random_unimodular(rng, args.dim)
        drawn += 1
        if not is_anosov_matrix(a):
            continue
        anosov_base += 1
        action = validate([a])
        for k in range(2, args.max_step + 1):
            lift = free_nilpotent_lift(action, k)
            if is_anosov_matrix(product_matrix(lift.action, (1,))):
                survived[k] += 1

    print(f"drew {drawn} matrices, {anosov_base} Anosov bases (dim {args.dim})")
    for k in range(2, args.max_step + 1):
        frac = survived[k] / anosov_base
        print(f"  step {k}: {survived[k]}/{anosov_base} lifts Anosov ({frac:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
