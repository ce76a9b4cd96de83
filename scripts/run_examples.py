"""Run the three worked blow-up examples and print timings.

Usage: python scripts/run_examples.py [dmax]
"""

import sys
import time

from grperiod.assembler import period_series
from grperiod.targets import (
    BlowUpSpec,
    example3_normalized_model,
    example3_verbatim_model,
    normalize_blowup,
)
from grperiod.validation import (
    oracle_blowup,
    oracle_example1,
    oracle_example2,
    oracle_pinned_verbatim,
)


def show(label, regularised):
    terms = " + ".join(
        f"{v}x^{d}" if d else str(v) for d, v in enumerate(regularised) if v
    )
    print(f"{label}: {terms}")


def main():
    dmax = int(sys.argv[1]) if len(sys.argv) > 1 else 12

    t0 = time.perf_counter()
    ps1 = period_series(*normalize_blowup(BlowUpSpec(4, (1, 1, 2))), dmax=dmax)
    t1 = time.perf_counter()
    show(f"Bl P^4 (1,1,2)   [{t1 - t0:6.2f}s]", ps1.regularised)
    oracle = oracle_example1(dmax)
    assert ps1.regularised == oracle, "engine disagrees with closed-form sum"

    t0 = time.perf_counter()
    ps2 = period_series(
        *normalize_blowup(BlowUpSpec(6, (1, 2, 2)), twist_k=2), dmax=dmax
    )
    t1 = time.perf_counter()
    show(f"Bl P^6 (1,2,2)   [{t1 - t0:6.2f}s]", ps2.regularised)
    assert ps2.regularised == oracle_example2(dmax)

    t0 = time.perf_counter()
    ps3 = period_series(*normalize_blowup(BlowUpSpec(2, (1, 1))), dmax=min(dmax, 10))
    t1 = time.perf_counter()
    show(f"Bl_pt P^2        [{t1 - t0:6.2f}s]", ps3.regularised)

    # the pinned Gr(3, O^3 + O(2)) configuration vs the normalized blow-up
    # model of P^6 in degrees (1,1,1,2): past x^0 they share no nonzero term.
    print()
    vt, vw, vdiv = example3_verbatim_model()
    t0 = time.perf_counter()
    pinned = period_series(vt, vw, dmax, divisor=vdiv, skip_nonconvex=True)
    t1 = time.perf_counter()
    show(f"pinned Gr(3,...) [{t1 - t0:6.2f}s]", pinned.regularised)
    assert pinned.regularised == oracle_pinned_verbatim(dmax)

    nt, nw, ndiv = example3_normalized_model()
    norm = period_series(nt, nw, dmax, divisor=ndiv)
    show("Bl P^6 (1,1,1,2)", norm.regularised)
    assert norm.regularised == oracle_blowup(6, (1, 1, 1, 2), dmax)
    diff = [
        d for d in range(dmax + 1) if pinned.regularised[d] != norm.regularised[d]
    ]
    print("mismatch at degrees:", diff if diff else "none")


if __name__ == "__main__":
    main()
