"""Write the certified chain values that the formula-n5 workload is
checked against.

    python3 perfbench/make_reference.py

Each point is drawn the way identity testing draws rational points
(pool seeds 0..POINTS-1), solved with `chain.solve_renormalized`, and
certified by exact balance substitution, positivity, the identity
normalization and rotation invariance before anything is written.  One
solve takes about 45 s on one core, so the file takes a few minutes.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from checks import check_chain_values, rational_point
from source import use_checkout_source

N = 5
POINTS = 6
REFERENCE = Path(__file__).resolve().parent / "reference_n5.json"


def perm_key(w) -> str:
    return ",".join(map(str, w))


def main() -> int:
    use_checkout_source()
    from ringtasep import chain, perms

    special = perms.enumerate_states(N)
    points = []
    for seed in range(POINTS):
        x, y = rational_point(N, random.Random(seed))
        psi = chain.solve_renormalized(N, chain.RateParams(x, y))
        errors = check_chain_values(psi, x, y)
        if errors:
            print(f"point {seed} not certified:", *errors, sep="\n  ",
                  file=sys.stderr)
            return 1
        points.append({"seed": seed, "x": [str(v) for v in x],
                       "y": [str(v) for v in y],
                       "psi": {perm_key(w): str(v) for w, v in sorted(psi.items())}})
        print(f"point {seed}: certified", flush=True)
    REFERENCE.write_text(json.dumps(
        {"n": N, "special_states": [perm_key(w) for w in special],
         "points": points}, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
