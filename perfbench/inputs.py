"""The operations of one round of each workload, made from the seed.

    python3 perfbench/inputs.py --workload identify-cm --seed 7

prints one round's operations, one JSON object per line.  The seed only
orders and draws inputs; the program sees the generated inputs alone.
identify-cm inputs are class polynomials rebuilt from mpmath.kleinj (see
checks.py), never taken from qstar.
"""

from __future__ import annotations

import argparse
import json
import random

from checks import kleinj_class_polynomial, reduced_forms

WORKLOADS = ("pipeline-search", "pipeline-fields", "class-sweep", "identify-cm")

PIPELINE_LEVELS = (67, 73, 107)
PIPELINE_HEIGHT = 1000
FIELDS_LEVEL = 85
FIELDS_HEIGHT = 100
SWEEP_MAX_ABS_D = 300
# discriminants drawn per class number.  These lookups cost about the same
# (mostly interpreter start-up), so a draw does not change the cost of a
# round.  The lookups of degree 3, 4 and 8 cost more and vary more with D
# (degree 4: 0.5 s to 1.3 s; degree 8: 1.6 s to 10 s, growing with |D|), so
# one fixed D stands for each.  Ten of the fourteen operations have degree
# 1 to 3, so the median operation stays among them.
LOOKUP_DRAWN = {1: 2, 2: 2}
LOOKUP_FIXED = (-23, -39, -95)  # h = 3, 4, 8
LOOKUP_MAX_ABS_D = 120


def discriminants(max_abs: int) -> list:
    """Negative discriminants D with 3 <= |D| <= max_abs, by increasing |D|."""
    return [-n for n in range(3, max_abs + 1) if -n % 4 in (0, 1)]


def _pipeline(level: int, height: int) -> dict:
    args = ["pipeline", str(level), "--height", str(height)]
    return {"key": str(level), "level": level, "args": args}


def operations(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "pipeline-search":
        levels = list(PIPELINE_LEVELS)
        rng.shuffle(levels)
        return [_pipeline(level, PIPELINE_HEIGHT) for level in levels]
    if workload == "pipeline-fields":
        return [_pipeline(FIELDS_LEVEL, FIELDS_HEIGHT)]
    if workload == "class-sweep":
        ds = discriminants(SWEEP_MAX_ABS_D)
        rng.shuffle(ds)
        return [{"key": str(D), "D": D} for D in ds]
    if workload == "identify-cm":
        pools = {h: [] for h in LOOKUP_DRAWN}
        for D in discriminants(LOOKUP_MAX_ABS_D):
            pools.get(len(reduced_forms(D)), []).append(D)
        chosen = [D for h, k in LOOKUP_DRAWN.items() for D in rng.sample(pools[h], k)]
        chosen += LOOKUP_FIXED
        ops = []
        for D in chosen:
            H = kleinj_class_polynomial(D)
            for hit, coeffs in ((True, H), (False, [H[0] + 1] + H[1:])):
                ops.append({
                    "key": f"{'hit' if hit else 'miss'} {D}",
                    "D": D,
                    "hit": hit,
                    "args": ["identify-cm", "--minpoly"] + [str(c) for c in reversed(coeffs)],
                })
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for op in operations(args.workload, args.seed):
        print(json.dumps(op))


if __name__ == "__main__":
    main()
