"""Tour of the series-convergence classifier.

The engine decides whether a nonnegative series converges using dyadic
partial sums, a decay-exponent fit at dyadic anchors (Cauchy condensation in
numerical form), and integral-test tail sandwiches.  Closed-form knowledge
travels as a term law, turning extrapolation into exact comparison.

Run: python demos/series_engine.py
"""

import math

import numpy as np

from convlab import EnginePolicy, TermLaw, TermSource, analyze_series


def show(label, verdict):
    extra = ""
    if verdict.p_hat is not None:
        extra += f"  p_hat={verdict.p_hat:.4f}"
    if verdict.sum_estimate is not None:
        extra += f"  sum={verdict.sum_estimate:.8f}"
    if verdict.tail_bound is not None:
        extra += f"  tail_bound={verdict.tail_bound:.2e}"
    print(f"{label:28s} -> {verdict.klass:12s}{extra}")


def power(p):
    return TermSource(lambda ns: ns.astype(float) ** -p)


def main():
    print("== p-series calibration ==")
    for p in (0.8, 1.0, 1.1, 1.5, 2.0):
        show(f"sum n^(-{p})", analyze_series(power(p)))
    print(f"(true value of sum n^-2: pi^2/6 = {math.pi ** 2 / 6:.8f})")

    print("\n== the boundary is reported honestly ==")
    show("sum n^-1.02", analyze_series(power(1.02)))
    print("this series converges, but its fitted exponent sits inside the")
    print("decision margin above 1, so the engine declines to guess")

    print("\n== a drifting exponent can still mislead the fit ==")
    src = TermSource(
        lambda ns: 1.0 / (ns.astype(float) * np.log(ns.astype(float) + 1.0) ** 2)
    )
    show("sum 1/(n ln^2(n+1))", analyze_series(src))
    print("this series converges to at least 3.3877355: its terms to 10^6 sum")
    print("to 3.3153531, and the rest to more than 1/ln(10^6 + 2).  The local")
    print("slope 1 + 2/ln n drifts, the last anchors fit a steeper power with a")
    print("narrow interval, and the reported sum misses the true one")

    print("\n== term laws upgrade the verdict ==")
    vanishing = TermSource(
        lambda ns: (ns <= 100).astype(float) * 0.5,
        law=TermLaw(start=101),
    )
    show("terms vanish after n=100", analyze_series(vanishing))
    rate = TermSource(lambda ns: ns.astype(float) ** -1.2, law=TermLaw(None, ((None, 1.2),)))
    show("sum n^-1.2, rate n^-1.2", analyze_series(rate))
    exact = TermSource(lambda ns: ns.astype(float) ** -1.2, law=TermLaw(terms=((1.0, 1.2),)))
    show("sum n^-1.2, law n^-1.2", analyze_series(exact))
    print("a rate law still scans and extrapolates one power; a law that")
    print("states the terms exactly reads none, and sums them as zeta(1.2)")
    mixed = TermSource(lambda ns: ns.astype(float) ** -2.0 - ns.astype(float) ** -4.0 / 2.0,
                       law=TermLaw(terms=((1.0, 2.0), (-0.5, 4.0))))
    show("sum n^-2 - n^-4/2", analyze_series(mixed))
    print(f"(true value: zeta(2) - zeta(4)/2 = {math.pi ** 2 / 6 - math.pi ** 4 / 180:.8f})")

    geom = TermSource(lambda ns: 0.5 ** ns.astype(float))
    show("sum 2^(-n)", analyze_series(geom))

    print("\n== the horizon is the engine's one setting ==")
    for n_max in (10_000, 1_000_000):
        v = analyze_series(power(2.0), EnginePolicy(n_max=n_max))
        show(f"sum n^-2, n_max={n_max}", v)
    print("the sum estimate is nondecreasing in the horizon because the")
    print("reported value adds the integral-test lower bound for the tail")


if __name__ == "__main__":
    main()
